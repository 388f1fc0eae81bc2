(** Minimum line-covering sets of symbolic traces.

    §6.1.2: "we first identify a minimum set of symbolic traces for each
    method that achieve the same line coverage as before, and then gradually
    remove symbolic traces that are not in the minimum set."  Exact minimum
    set cover is NP-hard; like coverage tooling generally, we use the greedy
    approximation (ln n-competitive), which matches the paper's scale
    claims. *)

module IntSet = Set.Make (Int)

(** [greedy bs] returns a sublist of [bs] that covers the union of their
    lines, chosen greedily by marginal coverage (ties broken towards traces
    with more concrete executions, which generalize better). *)
let greedy (bs : Blended.t list) =
  let target =
    List.fold_left
      (fun acc b -> IntSet.union acc (IntSet.of_list b.Blended.lines))
      IntSet.empty bs
  in
  let rec go chosen uncovered remaining =
    if IntSet.is_empty uncovered then List.rev chosen
    else
      let scored =
        List.map
          (fun b ->
            let gain = IntSet.cardinal (IntSet.inter uncovered (IntSet.of_list b.Blended.lines)) in
            (gain, b.Blended.n_concrete, b))
          remaining
      in
      match List.sort (fun (g1, c1, _) (g2, c2, _) -> compare (g2, c2) (g1, c1)) scored with
      | (0, _, _) :: _ | [] -> List.rev chosen  (* nothing adds coverage *)
      | (_, _, best) :: _ ->
          let uncovered = IntSet.diff uncovered (IntSet.of_list best.Blended.lines) in
          let remaining = List.filter (fun b -> b != best) remaining in
          go (best :: chosen) uncovered remaining
  in
  go [] target bs

(** Order blended traces so that a line-covering core comes first and the
    redundant traces follow (most-redundant last).  Taking a prefix of the
    result of size >= |core| always preserves line coverage — this is the
    reduction schedule for Figures 6c/6d, 7, 8 and 9. *)
let reduction_order (bs : Blended.t list) =
  let core = greedy bs in
  let rest = List.filter (fun b -> not (List.memq b core)) bs in
  core @ rest
