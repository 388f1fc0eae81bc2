(** The semantic probing task family: per-statement labels computed
    exactly by the static analyses, used to measure what program facts an
    embedding encodes.

    A linear readout trained on frozen per-statement embeddings
    ({!Liger_eval.Probe}) can only do well on these tasks if the embedding
    itself linearly exposes the corresponding fact — the standard probing
    methodology, with the twist that MiniJava's analyses make every label
    {e exact} rather than heuristically annotated:

    - {e live-after}: is the variable a statement defines still live after
      the statement ({!Liger_analysis.Liveness})?
    - {e dominating-branch}: is the statement's execution conditional on a
      dominating decision ({!Liger_analysis.Dominator}) — some branch
      statement strictly dominates it and it does not postdominate that
      branch (a rejoin point after an [if] is unconditional again)?
    - {e always-reached}: does the statement dominate exit, executing on
      every terminating run?
    - {e sign-at-exit}: the sign class of the defined variable right after
      the statement, as proved by the abstract interpreter
      ({!Liger_analysis.Absint}): negative / zero / positive, or mixed when
      the interval straddles zero.

    Labels join the per-statement embeddings on statement id; statements
    the encoded traces never execute simply contribute no probe example. *)

open Liger_lang
open Liger_analysis

type task = Live_after | Dominating_branch | Always_reached | Sign_at_exit

let all_tasks = [ Live_after; Dominating_branch; Always_reached; Sign_at_exit ]

let task_name = function
  | Live_after -> "live-after"
  | Dominating_branch -> "dominating-branch"
  | Always_reached -> "always-reached"
  | Sign_at_exit -> "sign-at-exit"

let classes = function
  | Live_after | Dominating_branch | Always_reached -> 2
  | Sign_at_exit -> 4

type example = { p_sid : int; p_task : task; p_class : int }

let sign_class (iv : Interval.t) =
  match iv with
  | Interval.Iv (_, Interval.Fin u) when u < 0 -> 0
  | Interval.Iv (Interval.Fin 0, Interval.Fin 0) -> 1
  | Interval.Iv (Interval.Fin l, _) when l > 0 -> 2
  | _ -> 3

(** All probe examples of one method.  Only reachable statement nodes get
    labels; [Live_after] and [Sign_at_exit] additionally need the statement
    to define a variable (and the latter an integer-valued one). *)
let label_method (meth : Ast.meth) : example list =
  let cfg = Cfg.build meth in
  let live = Liveness.analyze ~cfg meth in
  let dom = Dominator.dominators cfg in
  let pdom = Dominator.postdominators cfg in
  let absint = Absint.analyze ~cfg meth in
  let out = ref [] in
  let push sid task cls = out := { p_sid = sid; p_task = task; p_class = cls } :: !out in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Stmt s when dom.Dominator.reachable.(i) ->
          let sid = s.Ast.sid in
          (match Cfg.def_of_stmt s with
          | Some (x, _) -> (
              push sid Live_after
                (if Dataflow.VarSet.mem x live.Liveness.live_out.(i) then 1 else 0);
              match Absint.env_lookup absint.Absint.after.(i) x with
              | Absint.AInt (iv, _) when not (Interval.is_bot iv) ->
                  push sid Sign_at_exit (sign_class iv)
              | _ -> ())
          | None -> ());
          (* conditional on a decision: a branch above it on every path in,
             and some execution of that branch bypasses this statement *)
          let under_branch =
            List.exists
              (fun d ->
                (match Cfg.stmt_of cfg d with
                | Some ds -> Cfg.is_branch ds
                | None -> false)
                && not (Dominator.dominates pdom i d))
              (Dominator.strict_doms dom i)
          in
          push sid Dominating_branch (if under_branch then 1 else 0);
          push sid Always_reached
            (if Dominator.dominates dom i Cfg.exit_ then 1 else 0)
      | _ -> ())
    cfg.Cfg.nodes;
  List.rev !out

(** Class histogram of a label set — corpora dominated by one class make a
    probe score meaningless, so reports show the majority share too. *)
let tally task (examples : example list) =
  let counts = Array.make (classes task) 0 in
  List.iter
    (fun e -> if e.p_task = task then counts.(e.p_class) <- counts.(e.p_class) + 1)
    examples;
  counts
