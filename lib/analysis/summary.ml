(** Interprocedural summaries over the call graph.

    MiniJava deliberately has no user-defined method calls — [Ast.Call]
    reaches only the interpreter's builtins — so a corpus's call graph is
    bipartite: methods on one side, builtins on the other, with no
    method-to-method edges.  "Bottom-up" summarisation therefore has exactly
    two levels: the builtin leaves carry closed-form summaries
    (argument-range -> return-range + crash condition, hand-written in
    {!Absint.builtin_summary} against the interpreter's semantics), and each
    method's summary is computed by one abstract-interpretation run seeded
    with the caller's argument ranges.  The [args] parameter is how a future
    method-call layer would instantiate a callee summary at a call site. *)

open Liger_lang

type t = {
  s_name : string;
  s_params : (Ast.typ * string) list;
  s_ret : Absint.aval;            (* return-range under the given argument ranges *)
  s_crashes : Absint.crash list;  (* crash condition: where and why it can crash *)
  s_may_crash : bool;
  s_definitely_crashes : bool;    (* a definite crash site lies on every path *)
}

(** Summarise [meth] for the given argument abstraction (default: the
    type-directed top, i.e. the summary valid for {e any} well-typed call). *)
let summarize ?args (meth : Ast.meth) : t =
  let r = Absint.analyze ?params:args meth in
  let definite =
    (* a definite crash dominates exit => no execution completes normally *)
    let dom = Dominator.dominators r.Absint.cfg in
    List.exists
      (fun (c : Absint.crash) ->
        c.Absint.c_definite
        &&
        match Cfg.node_of_sid r.Absint.cfg c.Absint.c_sid with
        | Some u -> Dominator.dominates dom u Cfg.exit_
        | None -> false)
      r.Absint.crashes
  in
  {
    s_name = meth.Ast.mname;
    s_params = meth.Ast.params;
    s_ret = r.Absint.ret;
    s_crashes = r.Absint.crashes;
    s_may_crash = r.Absint.crashes <> [];
    s_definitely_crashes = definite;
  }

(* ---------------- rendering ---------------- *)

let crash_to_string (c : Absint.crash) =
  Printf.sprintf "%s at #%d%s" c.Absint.c_what c.Absint.c_sid
    (if c.Absint.c_definite then " (definite)" else "")

let pp ppf (s : t) =
  Fmt.pf ppf "@[<v>summary %s(%s):@," s.s_name
    (String.concat ", " (List.map (fun (_, x) -> x) s.s_params));
  Fmt.pf ppf "  returns %s@," (Absint.aval_to_string s.s_ret);
  if s.s_definitely_crashes then Fmt.pf ppf "  definitely crashes@,"
  else if s.s_may_crash then
    Fmt.pf ppf "  may crash: %s@,"
      (String.concat "; " (List.map crash_to_string s.s_crashes))
  else Fmt.pf ppf "  cannot crash@,";
  Fmt.pf ppf "@]"
