(** The dataset filtering pipeline behind Table 1.

    The paper keeps only a subset of Java-med/Java-large, dropping methods
    for four reasons: (1) they do not compile, (2) they reference external
    packages the test generator cannot see, (3) test generation exceeds its
    timeout, and (4) they are too small to be interesting.  This module
    reproduces that pipeline over MiniJava: the typechecker plays javac,
    {!Feedback} plays Randoop, and the corpus generator marks a fraction of
    methods as depending on unavailable libraries.

    On top of the paper's four reasons, the dataflow lint gate
    ({!Liger_analysis.Lint}) statically rejects methods that typecheck but
    can never be useful corpus examples: possible use-before-initialisation
    (crashes on some path), statically unreachable code, and constant-guard
    loops that provably never terminate (test generation would only time
    out on them — the static gate fires first, as the cheap checks do in
    the paper's pipeline). *)

open Liger_lang
open Liger_analysis
module Obs = Liger_obs.Obs

type reason =
  | No_compile        (* typechecker rejects *)
  | Uninit_use        (* lint: a read may precede every assignment *)
  | Unreachable_code  (* lint: statements no execution can reach *)
  | Nonterm_loop      (* lint: constant-guard loop that cannot exit *)
  | Div_by_zero       (* lint/absint: a divisor is provably zero *)
  | Dead_branch       (* lint/absint: interval-infeasible branch arm *)
  | External_deps     (* references packages unavailable to the generator *)
  | Testgen_timeout   (* Randoop-analogue produced no usable execution *)
  | Too_small         (* "a couple of lines" *)

let reason_to_string = function
  | No_compile -> "does not compile"
  | Uninit_use -> "use before init"
  | Unreachable_code -> "unreachable code"
  | Nonterm_loop -> "non-terminating loop"
  | Div_by_zero -> "definite division by zero"
  | Dead_branch -> "provably dead branch"
  | External_deps -> "missing external packages"
  | Testgen_timeout -> "test generation timeout"
  | Too_small -> "too small"

type verdict =
  | Kept of Feedback.result
  | Dropped of reason

(** A raw corpus entry before filtering: the method plus provenance flags
    set by the corpus generator. *)
type candidate = {
  meth : Ast.meth;
  uses_external : bool;  (* simulates references to unavailable libraries *)
}

let min_statements = 3

(** Classify one candidate, running test generation only if the static gates
    pass (the cheap checks run first, as in the paper's pipeline). *)
let classify ?budget rng (c : candidate) : verdict =
  if not (Obs.Span.with_ ~name:"filter.typecheck" (fun () -> Typecheck.is_well_typed c.meth))
  then Dropped No_compile
  else
    let lint = Obs.Span.with_ ~name:"filter.lint" (fun () -> Lint.check c.meth) in
    (* nonterm before unreachable: an endless loop also makes its
       continuation unreachable, and the loop is the sharper diagnosis *)
    if lint.Lint.uninit_uses <> [] then Dropped Uninit_use
    else if lint.Lint.nonterm_sids <> [] then Dropped Nonterm_loop
    else if lint.Lint.unreachable_sids <> [] then Dropped Unreachable_code
    else if lint.Lint.div_by_zero_sids <> [] then Dropped Div_by_zero
    else if lint.Lint.dead_branch_sids <> [] then Dropped Dead_branch
    else if c.uses_external then Dropped External_deps
    else if Ast.stmt_count c.meth < min_statements then Dropped Too_small
    else
    let r =
      Obs.Span.with_ ~name:"filter.testgen"
        ~args:(fun () -> [ ("method", c.meth.Ast.mname) ])
        (fun () -> Feedback.generate ?budget rng c.meth)
    in
    if r.Feedback.gave_up then Dropped Testgen_timeout else Kept r

type stats = {
  original : int;
  filtered : int;  (* surviving *)
  by_reason : (reason * int) list;
}

(** Run the pipeline over a corpus and tally Table 1's columns.

    Candidates are classified on the {!Liger_parallel.Parallel} pool — each
    with its own generator split from [rng] in candidate order, so the
    verdicts (and therefore the corpus) are identical at any job count. *)
let run ?budget rng (candidates : candidate list) =
  let verdicts =
    Liger_parallel.Parallel.map_rng_list rng
      (fun rng c -> (c, classify ?budget rng c))
      candidates
  in
  let tally = Hashtbl.create 4 in
  let kept = ref [] in
  List.iter
    (fun (c, verdict) ->
      match verdict with
      | Kept r ->
          Obs.Metrics.incr "filter.kept";
          kept := (c.meth, r) :: !kept
      | Dropped reason ->
          Obs.Metrics.incr "filter.dropped" ~labels:[ ("reason", reason_to_string reason) ];
          Hashtbl.replace tally reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally reason)))
    verdicts;
  let by_reason =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt tally r with Some n -> Some (r, n) | None -> None)
      [ No_compile; Uninit_use; Nonterm_loop; Unreachable_code; Div_by_zero;
        Dead_branch; External_deps; Testgen_timeout; Too_small ]
  in
  ( List.rev !kept,
    { original = List.length candidates; filtered = List.length !kept; by_reason } )
