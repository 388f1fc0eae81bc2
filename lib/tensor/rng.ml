(** Deterministic, splittable pseudo-random number generator.

    Every source of randomness in the repository (weight initialization,
    dataset generation, input generation, shuffling) flows through a value of
    type {!t}, so all experiments are reproducible from a single seed.  The
    core generator is xorshift128+ (Vigna, 2014), which is fast and has more
    than enough statistical quality for simulation workloads. *)

(* The state (s0, s1) lives unboxed in 16 bytes, s0 first, so that a draw
   writes it without allocating. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 seed =
  (* Used to derive well-mixed initial state from small integer seeds. *)
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The state seeded from [seed] by two splitmix64 rounds. *)
let of_seed64 seed =
  let s0 = splitmix64 seed in
  let s1 = splitmix64 s0 in
  (* xorshift128+ must not start from the all-zero state. *)
  let s1 = if Int64.equal s0 0L && Int64.equal s1 0L then 1L else s1 in
  let t = Bytes.create 16 in
  set64 t 0 s0;
  set64 t 8 s1;
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] next t =
  let x = get64 t 0 and y = get64 t 8 in
  set64 t 0 y;
  let x = Int64.logxor x (Int64.shift_left x 23) in
  let x = Int64.logxor (Int64.logxor x y) (Int64.logxor
            (Int64.shift_right_logical x 17) (Int64.shift_right_logical y 26)) in
  set64 t 8 x;
  Int64.add x y

(** [split t] derives an independent generator without disturbing [t]'s
    stream beyond one draw; useful for giving each sub-task its own stream. *)
let split t = of_seed64 (next t)

let[@inline] bits53 t = Int64.to_float (Int64.shift_right_logical (next t) 11)

(** [float t bound] is uniform in [0, bound). *)
let[@inline] float t bound = bits53 t /. 9007199254740992.0 *. bound

(** [uniform t lo hi] is uniform in [lo, hi). *)
let uniform t lo hi = lo +. float t (hi -. lo)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* shift by 2 so the result fits OCaml's 63-bit int as a non-negative *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

(** [int_range t lo hi] is uniform in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

(** Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = Stdlib.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(** In-place Fisher-Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** [choose t arr] picks a uniformly random element. Requires nonempty. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

(** [choose_list t l] is [choose t (Array.of_list l)]: the same element
    from the same draw, without copying the list. Requires nonempty. *)
let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

(** [sample_without_replacement t k arr] returns [k] distinct elements in
    random order (all of [arr] if [k >= length]). *)
let sample_without_replacement t k arr =
  let a = Array.copy arr in
  shuffle t a;
  Array.sub a 0 (Stdlib.min k (Array.length a))

(** Bernoulli draw with probability [p]. *)
let bernoulli t p = float t 1.0 < p

(** [coin t] decides as [bernoulli t 0.5] does, from the same draw:
    [bits53 / 2^53 < 0.5] holds exactly when the draw's top bit is 0. *)
let coin t = next t >= 0L
