(** Numeric abstract domains for the abstract interpreter: intervals with
    widening/narrowing, a parity sub-lattice, and three-valued booleans.

    Soundness against native ints: OCaml integers wrap silently at 63 bits,
    so interval arithmetic only claims an exact result when no concrete
    execution within the operand bounds can wrap — corner sums are checked
    for two's-complement overflow, and anything that might wrap degrades to
    [top].  Parity, by contrast, is exact under two's-complement wrap
    (wrapping adds a multiple of 2^62), so the parity component never needs
    the guard. *)

(* ---------------- bounds ---------------- *)

type bound = NegInf | Fin of int | PosInf

let bound_le a b =
  match (a, b) with
  | NegInf, _ | _, PosInf -> true
  | PosInf, _ -> b = PosInf
  | _, NegInf -> a = NegInf
  | Fin x, Fin y -> x <= y

let bound_min a b = if bound_le a b then a else b
let bound_max a b = if bound_le a b then b else a

let bound_to_string = function
  | NegInf -> "-inf"
  | PosInf -> "+inf"
  | Fin n when n = max_int -> "intmax"
  | Fin n when n = min_int + 1 -> "intmin+1"
  | Fin n when n = max_int - 1 -> "intmax-1"
  | Fin n -> string_of_int n

(* ---------------- intervals ---------------- *)

type t = Bot | Iv of bound * bound

let bot = Bot
let top = Iv (NegInf, PosInf)
let const n = Iv (Fin n, Fin n)
let range l u = if l > u then Bot else Iv (Fin l, Fin u)
let at_least l = Iv (Fin l, PosInf)
let at_most u = Iv (NegInf, Fin u)

let is_bot t = t = Bot

let is_const = function Iv (Fin l, Fin u) when l = u -> Some l | _ -> None

let equal (a : t) (b : t) = a = b

let mk lo hi =
  (* normalise an empty interval to Bot *)
  if bound_le lo hi then Iv (lo, hi) else Bot

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv (l1, u1), Iv (l2, u2) -> Iv (bound_min l1 l2, bound_max u1 u2)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) -> mk (bound_max l1 l2) (bound_min u1 u2)

let contains t n =
  match t with
  | Bot -> false
  | Iv (l, u) -> bound_le l (Fin n) && bound_le (Fin n) u

(** Standard widening: bounds that grew jump to infinity.  Applied at loop
    heads only; narrowing afterwards recovers bounds pinned by the guard. *)
let widen old next =
  match (old, next) with
  | Bot, x -> x
  | x, Bot -> x
  | Iv (l1, u1), Iv (l2, u2) ->
      let lo = if bound_le l1 l2 then l1 else NegInf in
      let hi = if bound_le u2 u1 then u1 else PosInf in
      Iv (lo, hi)

(** Widening with thresholds: a growing bound jumps to the nearest program
    constant (guard literals and their neighbours) before giving up and
    going to infinity.  This keeps bounded loop counters finite {e during}
    the upward phase, which matters here more than in classic interval
    analysis: once a bound reaches infinity, the native-int wrap guard tops
    the whole interval on the next arithmetic step and narrowing can no
    longer recover it.  [thresholds] must be sorted ascending. *)
let widen_to ~(thresholds : int list) old next =
  match (old, next) with
  | Bot, x | x, Bot -> x
  | Iv (l1, u1), Iv (l2, u2) ->
      let lo =
        if bound_le l1 l2 then l1
        else
          match l2 with
          | Fin v -> (
              match List.filter (fun t -> t <= v) thresholds with
              | [] -> NegInf
              | ts -> Fin (List.fold_left max min_int ts))
          | _ -> NegInf
      in
      let hi =
        if bound_le u2 u1 then u1
        else
          match u2 with
          | Fin v -> (
              match List.filter (fun t -> t >= v) thresholds with
              | [] -> PosInf
              | ts -> Fin (List.fold_left min max_int ts))
          | _ -> PosInf
      in
      Iv (lo, hi)

(** Standard narrowing: refine only the bounds widening sent to infinity, so
    a narrowing sweep cannot oscillate. *)
let narrow old next =
  match (old, next) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) ->
      let lo = if l1 = NegInf then l2 else l1 in
      let hi = if u1 = PosInf then u2 else u1 in
      mk lo hi

(* ---------------- overflow-safe arithmetic ---------------- *)

(* Every concrete value is a native int, so an {e infinite} bound is pure
   lattice bookkeeping (widening needs a point its chains stop at):
   concretely NegInf means min_int and PosInf means max_int.  Addition and
   subtraction therefore evaluate the interval corners under that reading
   with exact two's-complement overflow checks — if a corner would wrap,
   the whole result degrades to [top], never to a wrong bound.
   Multiplication keeps a cruder guard: bounds within +-2^30, so products
   stay under 2^61 (the corner-check for [*] has its own min_int traps and
   products rarely drive loop counters). *)
let mul_limit = 1 lsl 30

let within limit = function
  | Bot -> true
  | Iv (Fin l, Fin u) -> l >= -limit && u <= limit
  | Iv _ -> false

(* what a bound means for a concrete execution *)
let conc_lo = function NegInf -> min_int | Fin l -> l | PosInf -> max_int
let conc_hi = function PosInf -> max_int | Fin u -> u | NegInf -> min_int

(* native add/sub with exact overflow detection; [None] = would wrap *)
let add_ovf a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

let sub_ovf a b =
  let s = a - b in
  if (a >= 0) <> (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

let neg = function
  | Bot -> Bot
  | Iv (Fin l, Fin u) when l > min_int -> Iv (Fin (-u), Fin (-l))
  | Iv (Fin l, PosInf) when l > min_int -> Iv (NegInf, Fin (-l))
  (* a NegInf lower bound admits min_int, whose negation wraps to itself *)
  | Iv _ -> top

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) -> (
      match (add_ovf (conc_lo l1) (conc_lo l2), add_ovf (conc_hi u1) (conc_hi u2)) with
      | Some lo, Some hi -> Iv (Fin lo, Fin hi)
      | _ -> top)

let sub a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) -> (
      match (sub_ovf (conc_lo l1) (conc_hi u2), sub_ovf (conc_hi u1) (conc_lo l2)) with
      | Some lo, Some hi -> Iv (Fin lo, Fin hi)
      | _ -> top)

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (Fin l1, Fin u1), Iv (Fin l2, Fin u2)
    when within mul_limit a && within mul_limit b ->
      let cs = [ l1 * l2; l1 * u2; u1 * l2; u1 * u2 ] in
      let lo = List.fold_left min max_int cs in
      let hi = List.fold_left max min_int cs in
      Iv (Fin lo, Fin hi)
  | _ -> top

(** Truncated division, OCaml/Java semantics: |a/b| <= |a| for |b| >= 1, and
    the result sign follows the operand signs.  Division by zero crashes, so
    the result interval describes only the non-crashing executions (b <> 0).
    We return a sound hull rather than the tightest interval. *)
let div a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ when meet b (const 0) = b -> Bot (* divisor can only be 0: never returns *)
  | Iv (l, u), Iv _ ->
      let mag = function Fin n when n > min_int -> Fin (abs n) | _ -> PosInf in
      let m = bound_max (mag l) (mag u) in
      (match m with
      | Fin m -> Iv (Fin (-m), Fin m)
      | _ ->
          (* keep one-sided sign info when the dividend is one-sided and the
             divisor is known positive *)
          (match (l, u, b) with
          | Fin l0, _, Iv (bl, _) when l0 >= 0 && bound_le (Fin 1) bl -> Iv (Fin 0, u)
          | _, Fin u0, Iv (bl, _) when u0 <= 0 && bound_le (Fin 1) bl -> Iv (l, Fin 0)
          | _ -> top))

(** Truncated remainder: |a mod b| < |b| and the sign follows the dividend. *)
let rem a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ when meet b (const 0) = b -> Bot
  | Iv (l, _), Iv (bl, bu) ->
      let mag = function Fin n when n > min_int -> Fin (abs n) | _ -> PosInf in
      (match bound_max (mag bl) (mag bu) with
      | Fin m when m >= 1 ->
          let lo = if bound_le (Fin 0) l then 0 else -(m - 1) in
          let hi = m - 1 in
          let r = range lo hi in
          (* a mod b also satisfies |a mod b| <= |a| *)
          (match a with
          | Iv (Fin al, Fin au) when al > min_int ->
              let am = max (abs al) (abs au) in
              meet r (range (-am) am)
          | _ -> r)
      | _ -> if bound_le (Fin 0) l then Iv (Fin 0, PosInf) else top)

let abs_ = function
  | Bot -> Bot
  | Iv (Fin l, u) when l >= 0 -> Iv (Fin l, u) (* abs x = x, never wraps *)
  | Iv (Fin l, Fin u) when l > min_int ->
      if u <= 0 then Iv (Fin (-u), Fin (-l))
      else Iv (Fin 0, Fin (max (-l) u))
  | Iv (Fin l, PosInf) when l > min_int -> Iv (Fin 0, PosInf)
  (* abs min_int wraps to min_int, so a NegInf lower bound forces top *)
  | Iv _ -> top

let min_ a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) -> Iv (bound_min l1 l2, bound_min u1 u2)

let max_ a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, u1), Iv (l2, u2) -> Iv (bound_max l1 l2, bound_max u1 u2)

(* ---------------- comparison outcomes ---------------- *)

(** [cmp_lt a b] = (may be true, may be false) for [a < b]. *)
let cmp_lt a b =
  match (a, b) with
  | Bot, _ | _, Bot -> (false, false)
  | Iv (l1, u1), Iv (l2, u2) ->
      let may_t =
        (* exists x in a, y in b with x < y  <=>  min a < max b *)
        match (l1, u2) with
        | NegInf, _ | _, PosInf -> true
        | PosInf, _ | _, NegInf -> false
        | Fin x, Fin y -> x < y
      in
      let may_f =
        (* exists x >= y  <=>  max a >= min b *)
        match (u1, l2) with
        | PosInf, _ | _, NegInf -> true
        | NegInf, _ | _, PosInf -> false
        | Fin x, Fin y -> x >= y
      in
      (may_t, may_f)

let cmp_le a b =
  let t, f = cmp_lt b a in
  (f, t)

(* ---------------- refinement helpers ---------------- *)

(** Refine [a] assuming [a < b] holds: a <= max(b) - 1.  A PosInf bound on
    [b] still refines — concretely it means max_int, so [a] is at most
    max_int - 1.  That cap is what keeps guarded loop counters (i < n)
    finite through the increment: i + 1 then provably cannot wrap. *)
let refine_lt a b =
  match b with
  | Bot -> Bot
  | Iv (_, u) ->
      let hi = conc_hi u in
      if hi = min_int then Bot else meet a (at_most (hi - 1))

(** Refine [a] assuming [a >= b]: a >= min(b). *)
let refine_ge a b =
  match b with
  | Bot -> Bot
  | Iv (l, _) -> meet a (at_least (conc_lo l))

let refine_le a b =
  match b with
  | Bot -> Bot
  | Iv (_, u) -> meet a (at_most (conc_hi u))

let refine_gt a b =
  match b with
  | Bot -> Bot
  | Iv (l, _) ->
      let lo = conc_lo l in
      if lo = max_int then Bot else meet a (at_least (lo + 1))

let refine_eq a b = meet a b

(** Refine [a] assuming [a <> b]: only trims when [b] is a constant sitting
    on one of [a]'s endpoints. *)
let refine_ne a b =
  match (a, is_const b) with
  | Iv (Fin l, u), Some n when l = n -> mk (Fin (l + 1)) u
  | Iv (l, Fin u), Some n when u = n -> mk l (Fin (u - 1))
  | _ -> a

let to_string = function
  | Bot -> "_|_"
  | Iv (Fin l, Fin u) when l = u -> Printf.sprintf "{%d}" l
  | Iv (l, u) -> Printf.sprintf "[%s, %s]" (bound_to_string l) (bound_to_string u)

(* ---------------- parity ---------------- *)

module Parity = struct
  (** Exact under native-int wrap: wrapping adds a multiple of 2^62. *)
  type t = PBot | Even | Odd | PTop

  let bot = PBot
  let top = PTop
  let equal (a : t) b = a = b

  let of_int n = if n land 1 = 0 then Even else Odd

  let join a b =
    match (a, b) with
    | PBot, x | x, PBot -> x
    | PTop, _ | _, PTop -> PTop
    | Even, Even -> Even
    | Odd, Odd -> Odd
    | _ -> PTop

  let meet a b =
    match (a, b) with
    | PTop, x | x, PTop -> x
    | PBot, _ | _, PBot -> PBot
    | Even, Even -> Even
    | Odd, Odd -> Odd
    | _ -> PBot

  let contains t n =
    match t with PTop -> true | PBot -> false | Even -> n land 1 = 0 | Odd -> n land 1 = 1

  let add a b =
    match (a, b) with
    | PBot, _ | _, PBot -> PBot
    | PTop, _ | _, PTop -> PTop
    | Even, Even | Odd, Odd -> Even
    | _ -> Odd

  let sub = add
  let neg a = a

  let mul a b =
    match (a, b) with
    | PBot, _ | _, PBot -> PBot
    | Even, _ | _, Even -> Even (* even absorbs, even against top included *)
    | Odd, Odd -> Odd
    | _ -> PTop

  (* truncated div/mod do not preserve parity in any useful way *)
  let div _ _ = PTop
  let rem _ _ = PTop

  let to_string = function PBot -> "_|_" | Even -> "even" | Odd -> "odd" | PTop -> "any"
end

(* ---------------- three-valued booleans ---------------- *)

module Abool = struct
  type t = { may_t : bool; may_f : bool }

  let bot = { may_t = false; may_f = false }
  let top = { may_t = true; may_f = true }
  let const b = if b then { may_t = true; may_f = false } else { may_t = false; may_f = true }
  let of_pair (may_t, may_f) = { may_t; may_f }
  let equal (a : t) b = a = b
  let join a b = { may_t = a.may_t || b.may_t; may_f = a.may_f || b.may_f }
  let meet a b = { may_t = a.may_t && b.may_t; may_f = a.may_f && b.may_f }
  let not_ a = { may_t = a.may_f; may_f = a.may_t }
  let is_bot a = (not a.may_t) && not a.may_f
  let contains a b = if b then a.may_t else a.may_f

  let and_ a b =
    {
      may_t = a.may_t && b.may_t;
      may_f = a.may_f || (a.may_t && b.may_f);
    }

  let or_ a b =
    {
      may_t = a.may_t || (a.may_f && b.may_t);
      may_f = a.may_f && b.may_f;
    }

  let to_string a =
    match (a.may_t, a.may_f) with
    | true, true -> "bool"
    | true, false -> "true"
    | false, true -> "false"
    | false, false -> "_|_"
end
