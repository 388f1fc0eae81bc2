(** Live variables (backward may-analysis) and the dead-store detector built
    on it.

    A variable is live at a point if some path from there reads it before any
    strong redefinition.  Weak defs ([a[i] = e], [o.f = e]) read the
    aggregate they update, so they keep it live — exactly the conservative
    treatment the in-place interpreter semantics require. *)

open Liger_lang
module VarSet = Dataflow.VarSet

module Fact = struct
  type t = VarSet.t

  let bottom = VarSet.empty
  let equal = VarSet.equal
  let join = VarSet.union
end

module S = Dataflow.Solver (Fact)

let transfer node fact =
  match node with
  | Cfg.Stmt s ->
      let killed =
        match Cfg.def_of_stmt s with
        | Some (x, `Strong) -> VarSet.remove x fact
        | _ -> fact
      in
      List.fold_left (fun acc x -> VarSet.add x acc) killed (Cfg.uses_of_stmt s)
  | Cfg.Entry | Cfg.Exit -> fact

type result = {
  cfg : Cfg.t;
  live_in : VarSet.t array;
  live_out : VarSet.t array;
  iterations : int;
}

let analyze ?cfg (meth : Ast.meth) : result =
  let cfg = match cfg with Some c -> c | None -> Cfg.build meth in
  let r = S.solve ~direction:Dataflow.Backward cfg ~init:VarSet.empty ~transfer in
  { cfg; live_out = r.S.before; live_in = r.S.after; iterations = r.S.iterations }

(** Strong definitions whose value no path ever reads: the [sid]s of
    [Decl]/[Assign] statements assigning a variable dead immediately after.
    This is precisely what {!Liger_lang.Mutate.insert_dead_code} plants (and
    what its differential property test checks). *)
let dead_stores r =
  let out = ref [] in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Stmt ({ Ast.node = Ast.Decl (_, x, _) | Ast.Assign (x, _); _ } as s) ->
          if not (VarSet.mem x r.live_out.(i)) then out := s.Ast.sid :: !out
      | _ -> ())
    r.cfg.Cfg.nodes;
  List.sort compare !out
