(** Feedback-directed test generation, standing in for Randoop (§6.1).

    The generator alternates two strategies: (1) directed inputs from the
    bounded symbolic executor, which nail the scalar-guarded paths, and
    (2) random inputs with pool reuse, which discover the rest.  Feedback is
    twofold, as in Randoop: inputs that produce a new path (or deepen an
    under-populated path group) are kept and their observed values are fed
    back into the generation pool; inputs that crash the method are
    remembered only as evidence for filtering.

    Random draws from a small pool repeat inputs (a third of the attempts
    on a generated corpus, timeouts included), so each call remembers the
    trace of every argument list it has run and runs a repeat no more: a
    trace is a function of the method, the arguments and the fuel alone
    ({!Interp.exec} snapshots its arguments and keeps no state between
    runs).  Everything else an attempt does, a repeat does too: it counts
    as an attempt (and as a crash or timeout), joins its path group, and
    if kept, is kept again and feeds the pool, so the result is the one
    running every input would give. *)

open Liger_lang
open Liger_trace
open Liger_symexec
module Obs = Liger_obs.Obs

type budget = {
  max_attempts : int;       (* total executions allowed (Randoop's timeout) *)
  target_paths : int;       (* stop once this many distinct paths are found *)
  per_path : int;           (* desired concrete executions per path *)
  fuel : int;               (* interpreter step budget per execution *)
}

let default_budget = { max_attempts = 400; target_paths = 20; per_path = 5; fuel = 20_000 }

type result = {
  traces : Exec_trace.t list;  (* successful traces only *)
  n_attempts : int;           (* inputs considered *)
  n_executions : int;         (* interpreter runs: distinct inputs *)
  n_crashes : int;
  n_timeouts : int;
  gave_up : bool;  (* no successful execution within the budget *)
}

let path_key tr = Exec_trace.path_key tr

(** Generate executions for [meth].  Deterministic given [rng]. *)
let generate ?(budget = default_budget) rng (meth : Ast.meth) : result =
  let pool = Randgen.create_pool () in
  let prepared = Exec_trace.prepare meth in
  let groups : (int * int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let kept = ref [] in
  let n_attempts = ref 0 in
  let n_crashes = ref 0 in
  let n_timeouts = ref 0 in
  let n_executions = ref 0 in
  (* the trace of every argument list run so far; only a kept trace keeps
     its steps here, since a repeat of any other is never kept *)
  let runs : (Value.t list, Exec_trace.t) Hashtbl.t = Hashtbl.create 64 in
  (* groups holding [per_path] traces, counted as each fills *)
  let n_full = ref 0 in
  let consider args =
    incr n_attempts;
    let seen = Hashtbl.find_opt runs args in
    let tr =
      match seen with
      | Some tr -> tr
      | None ->
          incr n_executions;
          Exec_trace.run ~fuel:budget.fuel ~keep_steps:64 prepared args
    in
    let keep =
      match tr.Exec_trace.outcome with
      | Interp.Crashed _ ->
          incr n_crashes;
          false
      | Interp.Timeout ->
          incr n_timeouts;
          false
      | Interp.Returned ret ->
          let key = path_key tr in
          let count =
            match Hashtbl.find_opt groups key with
            | Some c -> c
            | None ->
                let c = ref 0 in
                Hashtbl.add groups key c;
                if budget.per_path <= 0 then incr n_full;
                c
          in
          if !count < budget.per_path then begin
            incr count;
            if !count = budget.per_path then incr n_full;
            kept := tr :: !kept;
            (* feed observed values back into the pool *)
            List.iter (Randgen.remember pool) args;
            Randgen.remember pool ret;
            true
          end
          else false
    in
    if Option.is_none seen then
      Hashtbl.add runs args (if keep then tr else { tr with Exec_trace.steps = [] })
  in
  (* phase 1: directed inputs from symbolic execution *)
  let directed =
    Obs.Span.with_ ~name:"testgen.symexec" (fun () ->
        Symexec.generate_inputs
          ~config:{ Symexec.max_paths = 48; max_steps = 400 }
          rng meth)
  in
  Obs.Span.with_ ~name:"testgen.exec" (fun () ->
      List.iter
        (fun args -> if !n_attempts < budget.max_attempts then consider args)
        directed;
      (* phase 2: random generation until the budget or the targets are hit *)
      while
        !n_attempts < budget.max_attempts
        && not (Hashtbl.length groups >= budget.target_paths
                && !n_full >= min budget.target_paths (Hashtbl.length groups))
      do
        consider (Randgen.args ~pool rng meth)
      done);
  let gave_up = Hashtbl.length groups = 0 in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add "testgen.attempts" !n_attempts;
    Obs.Metrics.add "testgen.executions" !n_executions;
    Obs.Metrics.add "testgen.crashes" !n_crashes;
    Obs.Metrics.add "testgen.timeouts" !n_timeouts;
    if gave_up then Obs.Metrics.incr "testgen.gave_up"
  end;
  {
    traces = List.rev !kept;
    n_attempts = !n_attempts;
    n_executions = !n_executions;
    n_crashes = !n_crashes;
    n_timeouts = !n_timeouts;
    gave_up;
  }

(** Blended traces straight from a generation result. *)
let blended meth (r : result) = Blended.group meth r.traces
