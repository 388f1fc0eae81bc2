(** Bounded symbolic execution of MiniJava methods.

    The engine runs the program over {!Symval.t} values, forking at every
    branch whose guard does not fold to a constant and recording the same
    (statement id, branch outcome) signature the concrete interpreter
    records — so a solved symbolic path yields inputs whose concrete trace
    lands exactly on that path.  Loops are bounded by a per-path step budget
    and the total number of explored paths is capped.

    Scalar inputs ([int]/[bool]) are fully symbolic; arrays get a concrete
    length with symbolic cells; strings are concretized (see {!shapes}).
    Unsupported operations on symbolic operands (symbolic array index,
    symbolic builtin argument) abort only the affected path.

    The abstract interpreter ({!Liger_analysis.Absint}) runs once per method
    before exploration and its facts prune the search: a divisor the
    intervals prove non-zero needs no [!= 0] side condition (counted in
    [symexec.side_conditions_discharged]), and a fork arm the intervals
    prove infeasible is never explored at all (counted in
    [symexec.paths_pruned_by_absint]) — the solver would only have
    discovered its unsatisfiability the hard way. *)

open Liger_lang
module Absint = Liger_analysis.Absint
module Interval = Liger_analysis.Interval

module StrMap = Map.Make (String)

type outcome =
  | Sym_returned of Symval.t
  | Sym_aborted of string  (* unsupported op / step budget on this path *)

type path_result = {
  pc : Path.t;
  signature : (int * bool option) list;  (* matches Exec_trace.path_signature *)
  outcome : outcome;
}

(* [max_unrolls] bounds how many times a single loop entry may fork on a
   symbolic guard along one path.  Without it, depth-first exploration of a
   loop whose bound is a symbolic input unrolls until the global path budget
   runs dry, starving every sibling subtree forked before the loop (their
   branches die at budget 0 without ever being explored).  At the bound the
   executor stops splitting and follows only the exit arm — a genuine path
   (the pc gains the negated guard), so replay stays exact; only deeper
   iteration counts go unenumerated.  Concrete guards never count against
   the bound: concretely-bounded loops already terminate by themselves. *)
let max_unrolls = 12

type config = { max_paths : int; max_steps : int }

let default_config = { max_paths = 64; max_steps = 600 }

exception Abort of string

type sstate = {
  env : Symval.t StrMap.t;
  pc : Path.t;
  signature : (int * bool option) list;  (* reversed *)
  steps : int;
}

type signal =
  | SNormal of sstate
  | SBreak of sstate
  | SContinue of sstate
  | SReturn of sstate * Symval.t
  | SAbort of sstate * string

let lookup env x =
  match StrMap.find_opt x env with
  | Some v -> v
  | None -> raise (Abort ("unbound variable " ^ x))

let as_int = function
  | Symval.Const (Value.VInt n) -> n
  | v -> raise (Abort ("symbolic value where concrete int required: " ^ Symval.to_string v))

(* [side] accumulates conditions the path must additionally satisfy for the
   evaluation to be crash-free: a symbolic divisor must be non-zero, or a
   solved model could make the concrete replay crash where the symbolic path
   returned.  [nz] asks the abstract interpreter whether a divisor is
   provably non-zero at the current statement — if so the side condition is
   discharged statically instead of being handed to the solver.  Constant
   subexpressions that crash abort the path outright (Symval.binop would
   silently keep them as residual nodes), and [&&]/[||] short-circuit on a
   constant left operand exactly like the interpreter. *)
let rec eval nz side env (e : Ast.expr) : Symval.t =
  let eval side env e = eval nz side env e in
  match e with
  | Ast.Int n -> Symval.Const (Value.VInt n)
  | Ast.Bool b -> Symval.Const (Value.VBool b)
  | Ast.Str s -> Symval.Const (Value.VStr s)
  | Ast.Var x -> lookup env x
  | Ast.Binop ((Ast.And | Ast.Or) as op, a, b) -> (
      match (op, eval side env a) with
      | Ast.And, Symval.Const (Value.VBool false) -> Symval.Const (Value.VBool false)
      | Ast.Or, Symval.Const (Value.VBool true) -> Symval.Const (Value.VBool true)
      | Ast.And, Symval.Const (Value.VBool true) | Ast.Or, Symval.Const (Value.VBool false) ->
          eval side env b
      | _, va ->
          (* symbolic left: [b] is evaluated eagerly, so a crash or side
             condition in [b] constrains the path even when the concrete run
             would short-circuit past it — accepted incompleteness *)
          Symval.binop op va (eval side env b))
  | Ast.Binop (op, a, b) -> (
      let va = eval side env a in
      let vb = eval side env b in
      match (va, vb) with
      | Symval.Const x, Symval.Const y -> (
          try Symval.Const (Interp.eval_binop op x y)
          with Interp.Runtime_error msg -> raise (Abort msg))
      | _ ->
          (match (op, vb) with
          | Ast.Div, Symval.Const (Value.VInt 0) -> raise (Abort "division by zero")
          | Ast.Mod, Symval.Const (Value.VInt 0) -> raise (Abort "modulo by zero")
          | (Ast.Div | Ast.Mod), Symval.Const _ -> ()
          | (Ast.Div | Ast.Mod), _ ->
              if nz b then Liger_obs.Metrics.incr "symexec.side_conditions_discharged"
              else side := Symval.binop Ast.Ne vb (Symval.Const (Value.VInt 0)) :: !side
          | _ -> ());
          Symval.binop op va vb)
  | Ast.Unop (op, a) -> Symval.unop op (eval side env a)
  | Ast.Index (a, i) -> (
      let arr = eval side env a in
      let idx = as_int (eval side env i) in
      match arr with
      | Symval.Arr cells ->
          if idx < 0 || idx >= Array.length cells then raise (Abort "index out of bounds");
          cells.(idx)
      | _ -> raise (Abort "indexing a non-array"))
  | Ast.Field (a, f) -> (
      match eval side env a with
      | Symval.Obj fields -> (
          match Array.find_opt (fun (n, _) -> n = f) fields with
          | Some (_, v) -> v
          | None -> raise (Abort ("no field " ^ f)))
      | _ -> raise (Abort "field access on non-object"))
  | Ast.Len a -> (
      match eval side env a with
      | Symval.Arr cells -> Symval.Const (Value.VInt (Array.length cells))
      | Symval.Const (Value.VStr s) -> Symval.Const (Value.VInt (String.length s))
      | _ -> raise (Abort "length of symbolic value"))
  | Ast.Call (f, args) ->
      let vals = List.map (eval side env) args in
      let concrete =
        List.map
          (fun v -> try Symval.to_value v with Symval.Not_concrete -> raise (Abort ("symbolic argument to builtin " ^ f)))
          vals
      in
      (try Symval.Const (Interp.builtin f concrete)
       with Interp.Runtime_error msg -> raise (Abort msg))
  | Ast.NewArray e ->
      let n = as_int (eval side env e) in
      if n < 0 || n > 1024 then raise (Abort "bad array size");
      Symval.Arr (Array.make n (Symval.Const (Value.VInt 0)))
  | Ast.ArrayLit es -> Symval.Arr (Array.of_list (List.map (eval side env) es))
  | Ast.RecordLit fs ->
      Symval.Obj (Array.of_list (List.map (fun (n, e) -> (n, eval side env e)) fs))

let record st sid branch =
  { st with signature = (sid, branch) :: st.signature; steps = st.steps + 1 }

(* Exploration context holding the global path budget and the method's
   abstract-interpretation facts. *)
type ctx = { cfg : config; mutable budget : int; absint : Absint.result }

(* Evaluate [e] at statement [sid] in [st], conjoining any collected side
   conditions into the path condition.  [Path.add] only returns [None] when
   a condition folds to constant false, i.e. the path is guaranteed to
   crash here. *)
let eval_pc ctx st sid (e : Ast.expr) =
  let nz d = Absint.proves_nonzero ctx.absint ~sid d in
  let side = ref [] in
  let v = eval nz side st.env e in
  let pc =
    List.fold_left
      (fun pc c -> match pc with None -> None | Some pc -> Path.add c pc)
      (Some st.pc) !side
  in
  match pc with
  | None -> raise (Abort "division by zero")
  | Some pc -> (v, { st with pc })

(* Fork on a symbolic guard: returns the live (state, taken) continuations.
   Arms the abstract interpreter proves infeasible are never explored;
   infeasible constraint additions are pruned immediately. *)
let fork ctx st sid guard =
  let pruned taken =
    let p = Absint.proves_infeasible ctx.absint ~sid ~taken in
    if p then Liger_obs.Metrics.incr "symexec.paths_pruned_by_absint";
    p
  in
  let follow taken =
    if pruned taken then None
    else
      let c = if taken then guard else Symval.not_ guard in
      match Path.add c st.pc with
      | None -> None
      | Some pc -> Some ({ (record { st with pc } sid (Some taken)) with pc }, taken)
  in
  match guard with
  | Symval.Const (Value.VBool b) -> [ (record st sid (Some b), b) ]
  | _ ->
      ctx.budget <- ctx.budget - 1;
      if ctx.budget < 0 then []
      else List.filter_map follow [ true; false ]

let rec exec_block ctx st (block : Ast.block) : signal list =
  match block with
  | [] -> [ SNormal st ]
  | s :: rest ->
      exec_stmt ctx st s
      |> List.concat_map (function
           | SNormal st' -> exec_block ctx st' rest
           | other -> [ other ])

and exec_stmt ctx st (s : Ast.stmt) : signal list =
  if st.steps >= ctx.cfg.max_steps then [ SAbort (st, "step budget exceeded") ]
  else
    try
      match s.Ast.node with
      | Ast.Decl (_, x, e) | Ast.Assign (x, e) ->
          let v, st = eval_pc ctx st s.Ast.sid e in
          [ SNormal (record { st with env = StrMap.add x v st.env } s.Ast.sid None) ]
      | Ast.StoreIndex (x, i, e) -> (
          let idx_v, st = eval_pc ctx st s.Ast.sid i in
          let idx = as_int idx_v in
          let v, st = eval_pc ctx st s.Ast.sid e in
          match lookup st.env x with
          | Symval.Arr cells ->
              if idx < 0 || idx >= Array.length cells then raise (Abort "index out of bounds");
              let cells' = Array.copy cells in
              cells'.(idx) <- v;
              [ SNormal
                  (record { st with env = StrMap.add x (Symval.Arr cells') st.env } s.Ast.sid None) ]
          | _ -> raise (Abort "store to non-array"))
      | Ast.StoreField (x, f, e) -> (
          let v, st = eval_pc ctx st s.Ast.sid e in
          match lookup st.env x with
          | Symval.Obj fields ->
              let fields' = Array.map (fun (n, old) -> if n = f then (n, v) else (n, old)) fields in
              if not (Array.exists (fun (n, _) -> n = f) fields) then
                raise (Abort ("no field " ^ f));
              [ SNormal
                  (record { st with env = StrMap.add x (Symval.Obj fields') st.env } s.Ast.sid None) ]
          | _ -> raise (Abort "store to non-object"))
      | Ast.If (c, then_b, else_b) ->
          let guard, st = eval_pc ctx st s.Ast.sid c in
          fork ctx st s.Ast.sid guard
          |> List.concat_map (fun (st', taken) ->
                 exec_block ctx st' (if taken then then_b else else_b))
      | Ast.While (c, body) -> exec_loop ctx st s c body None
      | Ast.For (init, c, update, body) ->
          exec_stmt ctx st init
          |> List.concat_map (function
               | SNormal st' -> exec_loop ctx st' s c body (Some update)
               | other -> [ other ])
      | Ast.Return e ->
          let v, st = eval_pc ctx st s.Ast.sid e in
          [ SReturn (record st s.Ast.sid None, v) ]
      | Ast.Break -> [ SBreak (record st s.Ast.sid None) ]
      | Ast.Continue -> [ SContinue (record st s.Ast.sid None) ]
    with Abort msg -> [ SAbort (st, msg) ]

and exec_loop ?(unrolls = 0) ctx st (s : Ast.stmt) cond body update : signal list =
  if st.steps >= ctx.cfg.max_steps then [ SAbort (st, "step budget exceeded") ]
  else
    try
      let guard, st = eval_pc ctx st s.Ast.sid cond in
      let symbolic = match guard with Symval.Const _ -> false | _ -> true in
      if symbolic && unrolls >= max_unrolls then
        (* unroll bound: follow only the exit arm (see [max_unrolls]) *)
        match Path.add (Symval.not_ guard) st.pc with
        | None -> [ SAbort (st, "loop unroll budget exceeded") ]
        | Some pc -> [ SNormal (record { st with pc } s.Ast.sid (Some false)) ]
      else
        let unrolls = if symbolic then unrolls + 1 else unrolls in
        fork ctx st s.Ast.sid guard
        |> List.concat_map (fun (st', taken) ->
               if not taken then [ SNormal st' ]
               else
                 exec_block ctx st' body
                 |> List.concat_map (function
                      | SNormal st'' | SContinue st'' -> (
                          match update with
                          | None -> exec_loop ~unrolls ctx st'' s cond body update
                          | Some u ->
                              exec_stmt ctx st'' u
                              |> List.concat_map (function
                                   | SNormal st3 -> exec_loop ~unrolls ctx st3 s cond body update
                                   | other -> [ other ]))
                      | SBreak st'' -> [ SNormal st'' ]
                      | other -> [ other ]))
    with Abort msg -> [ SAbort (st, msg) ]

(* ---------------- shapes and the public API ---------------- *)

(** Build the initial symbolic binding for each parameter: scalars become
    inputs; arrays become length-4 vectors of fresh symbolic cells;
    strings and objects are concretized with simple defaults (a string is
    ["abc"]). *)
let shape_of_params (params : (Ast.typ * string) list) =
  List.map
    (fun (t, x) ->
      let v =
        match t with
        | Ast.Tint | Ast.Tbool -> Symval.Input x
        | Ast.Tarray ->
            Symval.Arr (Array.init 4 (fun i -> Symval.Input (Printf.sprintf "%s_%d" x i)))
        | Ast.Tstring ->
            Symval.Const (Value.VStr "abc")
        | Ast.Tobj -> Symval.Obj [| ("x", Symval.Input (x ^ "_x")); ("y", Symval.Input (x ^ "_y")) |]
      in
      (x, v))
    params

(** Symbolic input variables of a shape, with their types (everything
    non-bool is an int for the solver). *)
let shape_inputs (meth : Ast.meth) shape =
  let bool_params =
    List.filter_map (fun (t, x) -> if t = Ast.Tbool then Some x else None) meth.Ast.params
  in
  List.concat_map (fun (_, v) -> Symval.inputs [] v) shape
  |> List.sort_uniq compare
  |> List.map (fun x -> (x, if List.mem x bool_params then Ast.Tbool else Ast.Tint))

(* Abstract argument values matching [shape]: the shape fixes every array
   and string length, so the analysis may assume them.  The result is only
   used to answer queries about executions that start from this shape —
   exactly symexec's input universe — which is what lets it prove guards
   like [a.length == 0] infeasible where the type-directed tops cannot. *)
let absint_params_of_shape (meth : Ast.meth) shape =
  List.map
    (fun (ty, x) ->
      match (ty, List.assoc_opt x shape) with
      | Ast.Tarray, Some (Symval.Arr cells) ->
          Absint.AArr
            (Interval.const (Array.length cells), (Interval.top, Absint.P.top))
      | Ast.Tstring, Some (Symval.Const (Value.VStr s)) ->
          Absint.AStr (Interval.const (String.length s))
      | _ -> Absint.of_type ty)
    meth.Ast.params

(** Explore all bounded paths of [meth] under [shape].  Branches are
    pruned with an abstract-interpretation run specialized to the shape's
    array and string lengths, which is sound for every execution symexec
    can start. *)
let explore ?(config = default_config) (meth : Ast.meth) ~shape : path_result list =
  let absint = Absint.analyze ~params:(absint_params_of_shape meth shape) meth in
  let env =
    List.fold_left (fun env (x, v) -> StrMap.add x v env) StrMap.empty shape
  in
  let ctx = { cfg = config; budget = config.max_paths; absint } in
  let st0 = { env; pc = Path.empty; signature = []; steps = 0 } in
  exec_block ctx st0 meth.Ast.body
  |> List.map (fun signal ->
         let finish st outcome =
           { pc = st.pc; signature = List.rev st.signature; outcome }
         in
         match signal with
         | SReturn (st, v) -> finish st (Sym_returned v)
         | SNormal st | SBreak st | SContinue st ->
             finish st (Sym_aborted "fell through without return")
         | SAbort (st, msg) -> finish st (Sym_aborted msg))

(* [concretize] over the input variables [vars] of [shape], computed once
   per method by [generate_inputs] *)
let solve_path rng ~vars ~shape (r : path_result) =
  match Solver.solve rng ~vars r.pc with
  | None -> None
  | Some model ->
      let args =
        List.map
          (fun (_, v) ->
            try Symval.eval model v with Interp.Runtime_error _ -> Value.VInt 0)
          shape
      in
      Some args

(** Solve a path's condition and materialize concrete argument values.
    Returns the arguments in parameter order, ready for [Interp.run]. *)
let concretize rng (meth : Ast.meth) ~shape (r : path_result) =
  solve_path rng ~vars:(shape_inputs meth shape) ~shape r

(** End-to-end directed generation: enumerate paths, solve each feasible
    one, return concrete inputs (deduplicated) that together exercise every
    solved path. *)
let generate_inputs ?config rng (meth : Ast.meth) =
  let shape = shape_of_params meth.Ast.params in
  let vars = shape_inputs meth shape in
  let results = explore ?config meth ~shape in
  results
  |> List.filter_map (fun r ->
         match r.outcome with
         | Sym_returned _ -> solve_path rng ~vars ~shape r
         | Sym_aborted _ -> None)
  |> List.sort_uniq compare
