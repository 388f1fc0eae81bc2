(** Return-value slicing: which variables can influence what a method
    returns?

    Built on the def-use relation the CFG exposes: the slice seeds with the
    variables read by [Return] statements plus every branch condition's
    variables (conservative control dependence — the executed path itself is
    data the blended trace carries), then closes backwards over definitions:
    if a relevant variable is defined from [ys], the [ys] are relevant.

    The point (following Henkel et al.'s abstracted traces): the
    statements outside the slice can go without changing which function
    the program computes.  [liger analyze] reports the relevant variables,
    and the fuzz [analysis] oracle runs the sliced method against the
    original.  The mutator's dead declarations are exactly such
    statements. *)

open Liger_lang
module VarSet = Dataflow.VarSet

(** The set of variables that can influence the return value (or control
    flow) of [meth]. *)
let relevant_vars ?cfg (meth : Ast.meth) : VarSet.t =
  let cfg = match cfg with Some c -> c | None -> Cfg.build meth in
  let defs = ref [] in
  (* seed: variables returns read, plus every branch guard's variables *)
  let seed = ref VarSet.empty in
  Array.iter
    (fun node ->
      match node with
      | Cfg.Stmt s -> (
          (match Cfg.def_of_stmt s with
          | Some (x, _) -> defs := (x, Cfg.uses_of_stmt s) :: !defs
          | None -> ());
          match s.Ast.node with
          | Ast.Return e ->
              seed := VarSet.union !seed (VarSet.of_list (Ast.expr_vars e))
          | Ast.If _ | Ast.While _ | Ast.For _ ->
              seed := VarSet.union !seed (VarSet.of_list (Cfg.uses_of_stmt s))
          | _ -> ())
      | Cfg.Entry | Cfg.Exit -> ())
    cfg.Cfg.nodes;
  (* closure over the def-use chains *)
  let relevant = ref !seed in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, uses) ->
        if VarSet.mem x !relevant then
          List.iter
            (fun y ->
              if not (VarSet.mem y !relevant) then begin
                relevant := VarSet.add y !relevant;
                changed := true
              end)
            uses)
      !defs
  done;
  !relevant

(** Statements in the backward slice: definitions of relevant variables,
    branches, jumps and returns — the [sid]s [liger analyze] highlights. *)
let slice_sids ?cfg (meth : Ast.meth) : int list =
  let cfg = match cfg with Some c -> c | None -> Cfg.build meth in
  let rel = relevant_vars ~cfg meth in
  Array.to_list cfg.Cfg.nodes
  |> List.filter_map (fun node ->
         match node with
         | Cfg.Stmt s -> (
             match s.Ast.node with
             | Ast.Return _ | Ast.If _ | Ast.While _ | Ast.For _ | Ast.Break
             | Ast.Continue ->
                 Some s.Ast.sid
             | _ -> (
                 match Cfg.def_of_stmt s with
                 | Some (x, _) when VarSet.mem x rel -> Some s.Ast.sid
                 | _ -> None))
         | Cfg.Entry | Cfg.Exit -> None)
