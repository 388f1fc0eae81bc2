(** Summary statistics shared by every workload.

    Timings are reported as a median and the highest percentile of a fixed
    ladder that still has at least ten samples beyond it, together with the
    sample count, so a reported tail is never a single outlier. *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* [ceil] of a product such as 0.95 *. 20.0 can land one above the exact
   rank through representation error; the epsilon keeps exact ranks exact *)
let rank n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

(** Nearest-rank quantile of an ascending array, [q] in [\[0, 1\]]. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  sorted.(max 0 (min (n - 1) (rank n q - 1)))

let median a = quantile (sorted a) 0.5

(** Percentiles a tail may be reported at, lowest first. *)
let ladder = [ 0.5; 0.75; 0.9; 0.95; 0.99; 0.995; 0.999 ]

(** Samples ranked strictly above the nearest-rank [q] quantile of [n]. *)
let beyond n q = n - rank n q

(** The highest percentile of {!ladder} with at least [min_beyond]
    samples beyond it among [n], if any. *)
let tail_level ?(min_beyond = 10) n =
  List.fold_left (fun acc q -> if beyond n q >= min_beyond then Some q else acc) None ladder

type summary = {
  n : int;
  p50 : float;
  tail_q : float;  (* 0 when too few samples support any tail *)
  tail : float;    (* the value at [tail_q]; 0 when unsupported *)
}

let empty = { n = 0; p50 = 0.0; tail_q = 0.0; tail = 0.0 }

(** Median and supported tail of [samples]; {!empty} when there are none. *)
let summarize samples =
  let n = Array.length samples in
  if n = 0 then empty
  else
    let s = sorted samples in
    match tail_level n with
    | None -> { n; p50 = quantile s 0.5; tail_q = 0.0; tail = 0.0 }
    | Some q -> { n; p50 = quantile s 0.5; tail_q = q; tail = quantile s q }
