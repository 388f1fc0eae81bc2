(** Greedy shrinking of failing fuzz programs.

    The contract: every candidate edit must (a) keep the method well-typed
    (re-validated through {!Liger_lang.Typecheck}) and (b) keep the
    failure predicate true.  Edits are tried in rounds — statement deletion,
    branch flattening, expression hole-filling, integer-constant narrowing —
    and any accepted edit restarts the rounds, so the result is a local
    minimum: no single remaining edit both validates and still fails. *)

open Liger_lang

type result = {
  shrunk : Ast.meth;
  steps : int;     (* accepted edits *)
  attempts : int;  (* candidate edits tried (accepted or not) *)
}

(* ------------------------------------------------------------------ *)
(* Statement positions                                                 *)
(* ------------------------------------------------------------------ *)

(* Statements are indexed in preorder over blocks; for-headers are part of
   their loop and are not separate positions. *)
let count_stmts (m : Ast.meth) =
  let n = ref 0 in
  let rec go_block b = List.iter go_stmt b
  and go_stmt s =
    incr n;
    match s.Ast.node with
    | Ast.If (_, b1, b2) ->
        go_block b1;
        go_block b2
    | Ast.While (_, b) | Ast.For (_, _, _, b) -> go_block b
    | _ -> ()
  in
  go_block m.Ast.body;
  !n

(* Rebuild [m] with [edit] applied at preorder statement position [k]:
   [edit s] returns the statements to splice in place of [s], or None to
   leave it (used to skip inapplicable edits). *)
let edit_nth (m : Ast.meth) k edit =
  let i = ref (-1) in
  let changed = ref false in
  let rec go_block b = List.concat_map go_stmt b
  and go_stmt s =
    incr i;
    if !i = k then
      match edit s with
      | Some stmts ->
          changed := true;
          stmts
      | None -> [ descend s ]
    else [ descend s ]
  and descend s =
    match s.Ast.node with
    | Ast.If (c, b1, b2) -> { s with Ast.node = Ast.If (c, go_block b1, go_block b2) }
    | Ast.While (c, b) -> { s with Ast.node = Ast.While (c, go_block b) }
    | Ast.For (init, c, u, b) -> { s with Ast.node = Ast.For (init, c, u, go_block b) }
    | _ -> s
  in
  let body = go_block m.Ast.body in
  if !changed then Some { m with Ast.body } else None

(* Note: deleting position [k] removes that statement's whole subtree. *)
let delete_nth m k = edit_nth m k (fun _ -> Some [])

(* Replace a compound statement by one of its sub-blocks. *)
let flatten_nth m k which =
  edit_nth m k (fun s ->
      match (s.Ast.node, which) with
      | Ast.If (_, b1, _), 0 -> Some b1
      | Ast.If (_, _, b2), 1 -> Some b2
      | Ast.While (_, b), 0 -> Some b
      | Ast.For (init, _, _, b), 0 -> Some (init :: b)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Expression positions                                                *)
(* ------------------------------------------------------------------ *)

(* Every expression node in the method, indexed in preorder (statement
   order, then outer-before-inner within one expression). *)
let fold_exprs f acc (m : Ast.meth) =
  let acc = ref acc in
  let rec go_expr e =
    acc := f !acc e;
    match e with
    | Ast.Int _ | Ast.Bool _ | Ast.Str _ | Ast.Var _ -> ()
    | Ast.Binop (_, a, b) ->
        go_expr a;
        go_expr b
    | Ast.Unop (_, a) | Ast.Len a | Ast.NewArray a -> go_expr a
    | Ast.Index (a, i) ->
        go_expr a;
        go_expr i
    | Ast.Field (a, _) -> go_expr a
    | Ast.Call (_, args) -> List.iter go_expr args
    | Ast.ArrayLit es -> List.iter go_expr es
    | Ast.RecordLit fs -> List.iter (fun (_, e) -> go_expr e) fs
  in
  (* visit order must match [replace_expr_nth] exactly: for a [For] that is
     init exprs, condition, update exprs, then the body *)
  let go_stmt_exprs s =
    match s.Ast.node with
    | Ast.Decl (_, _, e) | Ast.Assign (_, e) | Ast.Return e | Ast.StoreField (_, _, e) ->
        go_expr e
    | Ast.StoreIndex (_, i, e) ->
        go_expr i;
        go_expr e
    | Ast.If _ | Ast.While _ | Ast.For _ | Ast.Break | Ast.Continue -> ()
  in
  let rec go_block b = List.iter go_stmt b
  and go_stmt s =
    match s.Ast.node with
    | Ast.If (c, b1, b2) ->
        go_expr c;
        go_block b1;
        go_block b2
    | Ast.While (c, b) ->
        go_expr c;
        go_block b
    | Ast.For (init, c, u, b) ->
        go_stmt_exprs init;
        go_expr c;
        go_stmt_exprs u;
        go_block b
    | _ -> go_stmt_exprs s
  in
  go_block m.Ast.body;
  !acc

let count_exprs m = fold_exprs (fun n _ -> n + 1) 0 m

let nth_expr m k =
  let found = ref None in
  let _ =
    fold_exprs
      (fun i e ->
        if i = k then found := Some e;
        i + 1)
      0 m
  in
  !found

(* Rebuild with expression position [k] replaced by [e']. *)
let replace_expr_nth (m : Ast.meth) k e' =
  let i = ref (-1) in
  let rec go_expr e =
    incr i;
    if !i = k then e'
    else
      match e with
      | Ast.Int _ | Ast.Bool _ | Ast.Str _ | Ast.Var _ -> e
      | Ast.Binop (op, a, b) ->
          let a = go_expr a in
          let b = go_expr b in
          Ast.Binop (op, a, b)
      | Ast.Unop (op, a) -> Ast.Unop (op, go_expr a)
      | Ast.Len a -> Ast.Len (go_expr a)
      | Ast.NewArray a -> Ast.NewArray (go_expr a)
      | Ast.Index (a, ix) ->
          let a = go_expr a in
          let ix = go_expr ix in
          Ast.Index (a, ix)
      | Ast.Field (a, f) -> Ast.Field (go_expr a, f)
      | Ast.Call (f, args) -> Ast.Call (f, List.map go_expr args)
      | Ast.ArrayLit es -> Ast.ArrayLit (List.map go_expr es)
      | Ast.RecordLit fs -> Ast.RecordLit (List.map (fun (n, e) -> (n, go_expr e)) fs)
  in
  let go_header s =
    match s.Ast.node with
    | Ast.Decl (t, x, e) -> { s with Ast.node = Ast.Decl (t, x, go_expr e) }
    | Ast.Assign (x, e) -> { s with Ast.node = Ast.Assign (x, go_expr e) }
    | Ast.Return e -> { s with Ast.node = Ast.Return (go_expr e) }
    | Ast.StoreField (x, f, e) -> { s with Ast.node = Ast.StoreField (x, f, go_expr e) }
    | Ast.StoreIndex (x, ix, e) ->
        let ix = go_expr ix in
        let e = go_expr e in
        { s with Ast.node = Ast.StoreIndex (x, ix, e) }
    | _ -> s
  in
  let rec go_block b = List.map go_stmt b
  and go_stmt s =
    match s.Ast.node with
    | Ast.If (c, b1, b2) ->
        let c = go_expr c in
        { s with Ast.node = Ast.If (c, go_block b1, go_block b2) }
    | Ast.While (c, b) ->
        let c = go_expr c in
        { s with Ast.node = Ast.While (c, go_block b) }
    | Ast.For (init, c, u, b) ->
        let init = go_header init in
        let c = go_expr c in
        let u = go_header u in
        { s with Ast.node = Ast.For (init, c, u, go_block b) }
    | _ -> go_header s
  in
  { m with Ast.body = go_block m.Ast.body }

(* Hole-filling candidates for one expression: its direct subexpressions
   (same position often keeps the type) and the simplest literals of each
   type; the typecheck gate discards the ill-typed ones. *)
let candidates_for e =
  let children =
    match e with
    | Ast.Binop (_, a, b) | Ast.Index (a, b) -> [ a; b ]
    | Ast.Unop (_, a) | Ast.Len a | Ast.NewArray a | Ast.Field (a, _) -> [ a ]
    | Ast.Call (_, args) -> args
    | Ast.ArrayLit es -> es
    | Ast.RecordLit fs -> List.map snd fs
    | _ -> []
  in
  let narrowed =
    match e with
    | Ast.Int n when n <> 0 -> [ Ast.Int 0; Ast.Int (n / 2) ]
    | _ -> []
  in
  let leaves =
    [ Ast.Int 0; Ast.Bool false; Ast.Str ""; Ast.ArrayLit [];
      Ast.RecordLit [ ("x", Ast.Int 0); ("y", Ast.Int 0) ] ]
  in
  List.filter (fun e' -> e' <> e) (children @ narrowed @ leaves)

(* ------------------------------------------------------------------ *)
(* The greedy loop                                                     *)
(* ------------------------------------------------------------------ *)

(** Shrink [m0] while it stays well-typed and [still_fails] holds.
    [max_attempts] bounds the total number of candidate evaluations (each
    one runs [still_fails], i.e. the failing oracle). *)
let run ?(max_attempts = 2000) ~still_fails m0 =
  let attempts = ref 0 in
  let steps = ref 0 in
  let accept m =
    incr attempts;
    !attempts <= max_attempts && Typecheck.is_well_typed m && still_fails m
  in
  let try_first candidates =
    List.find_map
      (fun lazy_m ->
        if !attempts > max_attempts then None
        else match lazy_m () with Some m when accept m -> Some m | _ -> None)
      candidates
  in
  let one_round m =
    let n_stmts = count_stmts m in
    let stmt_edits =
      List.concat
        (List.init n_stmts (fun k ->
             [ (fun () -> delete_nth m k);
               (fun () -> flatten_nth m k 0);
               (fun () -> flatten_nth m k 1) ]))
    in
    match try_first stmt_edits with
    | Some m' -> Some m'
    | None ->
        let n_exprs = count_exprs m in
        let expr_edits =
          List.concat
            (List.init n_exprs (fun k ->
                 match nth_expr m k with
                 | None -> []
                 | Some e ->
                     List.map
                       (fun e' () -> Some (replace_expr_nth m k e'))
                       (candidates_for e)))
        in
        try_first expr_edits
  in
  let rec go m =
    if !attempts > max_attempts then m
    else match one_round m with Some m' -> incr steps; go m' | None -> m
  in
  let shrunk = go m0 in
  { shrunk; steps = !steps; attempts = !attempts }
