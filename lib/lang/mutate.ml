(** Semantics-preserving syntactic variation.

    The datasets in the paper are crowd-sourced and mined, so the same
    behaviour appears under many surface forms.  This module manufactures
    that diversity: identifier renaming, equivalent expression rewrites (the
    paper's running example is [i += i] vs [i *= 2]), loop-style conversion
    and dead-code insertion.  All rewrites preserve the method's semantics;
    property tests in [test_lang.ml] verify this by differential execution. *)

open Liger_tensor

(* ---------------- identifier renaming ---------------- *)

let generic_names =
  [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "p"; "q"; "r"; "s"; "t"; "u";
     "v"; "w"; "x"; "y"; "z"; "k"; "m"; "n" |]

let synonym_pools =
  [ [ "i"; "j"; "k"; "idx"; "pos"; "cursor" ];
    [ "result"; "res"; "out"; "answer"; "ret" ];
    [ "tmp"; "temp"; "aux"; "swap" ];
    [ "count"; "cnt"; "total"; "acc"; "sum" ];
    [ "left"; "lo"; "low"; "start"; "begin0" ];
    [ "right"; "hi"; "high"; "stop"; "end0" ] ]

let rename_with mapping (m : Ast.meth) =
  let ren x = match List.assoc_opt x mapping with Some y -> y | None -> x in
  let fexpr = function Ast.Var x -> Ast.Var (ren x) | e -> e in
  let fstmt (s : Ast.stmt) =
    let node =
      match s.Ast.node with
      | Ast.Decl (t, x, e) -> Ast.Decl (t, ren x, e)
      | Ast.Assign (x, e) -> Ast.Assign (ren x, e)
      | Ast.StoreIndex (x, i, e) -> Ast.StoreIndex (ren x, i, e)
      | Ast.StoreField (x, f, e) -> Ast.StoreField (ren x, f, e)
      | n -> n
    in
    { s with node }
  in
  let m = Ast.map_meth ~fexpr ~fstmt m in
  { m with params = List.map (fun (t, x) -> (t, ren x)) m.Ast.params }

(** Rename every variable to a fresh uninformative name ([v0], [v1], ...);
    the transformation used in §6.1.1's "Remarks" to sway code2seq. *)
let rename_uninformative (m : Ast.meth) =
  let vars = Ast.declared_vars m in
  let mapping = List.mapi (fun i x -> (x, Printf.sprintf "v%d" i)) vars in
  rename_with mapping m

(** Randomly rename variables, drawing from role-based synonym pools when the
    original name belongs to one, otherwise from single-letter names. *)
let rename_random rng (m : Ast.meth) =
  let vars = Ast.declared_vars m in
  let used = Hashtbl.create 16 in
  (* new names must avoid every original name: renaming is simultaneous, but
     a fresh name colliding with a kept original would capture it *)
  List.iter (fun x -> Hashtbl.replace used x ()) vars;
  let fresh_from pool =
    let candidates = List.filter (fun c -> not (Hashtbl.mem used c)) pool in
    match candidates with
    | [] -> None
    | l -> Some (Rng.choose_list rng l)
  in
  let mapping =
    List.filter_map
      (fun x ->
        if Rng.bernoulli rng 0.5 then None  (* keep some names *)
        else
          let pool =
            match List.find_opt (List.mem x) synonym_pools with
            | Some pool -> pool
            | None -> Array.to_list generic_names
          in
          match fresh_from (List.filter (fun c -> c <> x) pool) with
          | Some y ->
              Hashtbl.replace used y ();
              Some (x, y)
          | None -> None)
      vars
  in
  rename_with mapping m

(* ---------------- equivalent expression rewrites ---------------- *)

(* Only expressions that are certainly int-typed may be commuted/rewritten
   (strings also support [+]). *)
let rec surely_int = function
  | Ast.Int _ -> true
  | Ast.Unop (Ast.Neg, _) -> true
  | Ast.Len _ -> true
  | Ast.Index (_, _) -> true
  | Ast.Binop ((Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _) -> true
  | Ast.Binop (Ast.Add, a, b) -> surely_int a || surely_int b
  | Ast.Call (("abs" | "min" | "max" | "pow" | "indexOf" | "ord"), _) -> true
  | _ -> false

let flip_cmp = function
  | Ast.Lt -> Some Ast.Gt
  | Ast.Le -> Some Ast.Ge
  | Ast.Gt -> Some Ast.Lt
  | Ast.Ge -> Some Ast.Le
  | _ -> None

(** One pass of random equivalence rewrites over every expression:
    - [x + x] <-> [x * 2] (on simple operands)
    - commute [*] and provably-int [+]
    - [a < b] <-> [b > a]
    - [!(a < b)] -> [a >= b] and duals. *)
let rewrite_exprs rng (m : Ast.meth) =
  let maybe p f e = if Rng.bernoulli rng p then f e else e in
  let fexpr e =
    match e with
    | Ast.Binop (Ast.Add, a, b) when Ast.equal_expr a b && surely_int a ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Mul, a, Ast.Int 2)) e
    | Ast.Binop (Ast.Mul, a, Ast.Int 2) ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Add, a, a)) e
    | Ast.Binop (Ast.Mul, a, b) ->
        maybe 0.3 (fun _ -> Ast.Binop (Ast.Mul, b, a)) e
    | Ast.Binop (Ast.Add, a, b) when surely_int a && surely_int b ->
        maybe 0.3 (fun _ -> Ast.Binop (Ast.Add, b, a)) e
    | Ast.Binop (op, a, b) -> (
        match flip_cmp op with
        | Some op' -> maybe 0.3 (fun _ -> Ast.Binop (op', b, a)) e
        | None -> e)
    | Ast.Unop (Ast.Not, Ast.Binop (Ast.Lt, a, b)) ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Ge, a, b)) e
    | Ast.Unop (Ast.Not, Ast.Binop (Ast.Le, a, b)) ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Gt, a, b)) e
    | Ast.Unop (Ast.Not, Ast.Binop (Ast.Ge, a, b)) ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Lt, a, b)) e
    | Ast.Unop (Ast.Not, Ast.Binop (Ast.Gt, a, b)) ->
        maybe 0.5 (fun _ -> Ast.Binop (Ast.Le, a, b)) e
    | e -> e
  in
  Ast.map_meth ~fexpr ~fstmt:Fun.id m

(* ---------------- loop-style conversion ---------------- *)

let rec block_has_continue block =
  List.exists
    (fun (s : Ast.stmt) ->
      match s.Ast.node with
      | Ast.Continue -> true
      | Ast.If (_, b1, b2) -> block_has_continue b1 || block_has_continue b2
      | _ -> false  (* nested loops own their continues *))
    block

(** Rename {e every} variable to a fresh single-letter name — the terse
    style some projects use throughout. *)
let rename_letters rng (m : Ast.meth) =
  let vars = Ast.declared_vars m in
  let used = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace used x ()) vars;
  let fresh () =
    let candidates =
      Array.to_list generic_names |> List.filter (fun c -> not (Hashtbl.mem used c))
    in
    match candidates with
    | [] -> None
    | l ->
        let pick = Rng.choose_list rng l in
        Hashtbl.replace used pick ();
        Some pick
  in
  let mapping = List.filter_map (fun x -> Option.map (fun y -> (x, y)) (fresh ())) vars in
  rename_with mapping m

(** Convert [for] loops to equivalent [while] loops (skipping loops whose
    body uses [continue], whose semantics would change). *)
let for_to_while ?(p = 0.6) rng (m : Ast.meth) =
  let rec conv_block block = List.concat_map conv_stmt block
  and conv_stmt (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.For (init, c, update, body) when (not (block_has_continue body)) && Rng.bernoulli rng p ->
        let body' = conv_block body @ [ { update with sid = Ast.fresh_sid () } ] in
        [ { init with sid = Ast.fresh_sid () };
          Ast.mk ~line:s.Ast.line (Ast.While (c, body')) ]
    | Ast.For (init, c, update, body) ->
        [ { s with node = Ast.For (init, c, update, conv_block body) } ]
    | Ast.If (c, b1, b2) -> [ { s with node = Ast.If (c, conv_block b1, conv_block b2) } ]
    | Ast.While (c, b) -> [ { s with node = Ast.While (c, conv_block b) } ]
    | _ -> [ s ]
  in
  { m with body = conv_block m.Ast.body }

(* ---------------- dead code ---------------- *)

let dead_names = [| "unused"; "scratch"; "pad"; "extra"; "spare" |]

(** Insert 1-2 unused integer declarations at random top-level positions.
    Purely syntactic noise: it perturbs the static dimension (and adds a ⊥
    column to states) without changing behaviour.  Insertion never goes past
    a top-level [return]/[break]/[continue]: a statement there would be
    unreachable — different noise than intended, and statically rejectable. *)
let insert_dead_code rng (m : Ast.meth) =
  let existing = Ast.declared_vars m in
  let n_insert = 1 + Rng.int rng 2 in
  let body = ref m.Ast.body in
  for k = 0 to n_insert - 1 do
    let base = Rng.choose rng dead_names in
    let name = Printf.sprintf "%s%d" base k in
    if not (List.mem name existing) then begin
      let decl = Ast.mk (Ast.Decl (Ast.Tint, name, Ast.Int (Rng.int rng 10))) in
      let is_jump (s : Ast.stmt) =
        match s.Ast.node with
        | Ast.Return _ | Ast.Break | Ast.Continue -> true
        | _ -> false
      in
      let rec live_prefix acc = function
        | s :: _ when is_jump s -> acc
        | _ :: rest -> live_prefix (acc + 1) rest
        | [] -> acc
      in
      let pos = Rng.int rng (1 + live_prefix 0 !body) in
      let rec insert i = function
        | rest when i = pos -> decl :: rest
        | [] -> [ decl ]
        | s :: rest -> s :: insert (i + 1) rest
      in
      body := insert 0 !body
    end
  done;
  { m with body = !body }

(* ---------------- defensive guards ---------------- *)

let guard_names = [| "bound"; "floor"; "check" |]

(** Plant a belt-and-braces guard: copy an int parameter into a fresh local,
    clamp it non-negative, then wrap one existing assignment in a re-check
    of the clamped invariant.  Concretely the re-check is always true — the
    method's behaviour is unchanged — but its condition stays symbolic, so
    static models see a spurious branch, while an interval analysis proves
    the (empty) else-arm dead and a symbolic executor armed with one never
    explores it.  Mined code is full of exactly this redundancy. *)
let insert_defensive_guard rng (m : Ast.meth) =
  let int_params =
    List.filter_map (fun (ty, x) -> if ty = Ast.Tint then Some x else None) m.Ast.params
  in
  (* Candidate wrap targets: assignments reachable by the block traversal
     (a [for] loop's update slot is deliberately not one — wrapping it would
     leave the guard variable's clamp a dead store). *)
  let rec collect_block acc block = List.fold_left collect_stmt acc block
  and collect_stmt acc (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Assign _ | Ast.StoreIndex _ -> s.Ast.sid :: acc
    | Ast.If (_, b1, b2) -> collect_block (collect_block acc b1) b2
    | Ast.While (_, b) -> collect_block acc b
    | Ast.For (_, _, _, b) -> collect_block acc b
    | _ -> acc
  in
  match (int_params, collect_block [] m.Ast.body) with
  | [], _ | _, [] -> m
  | _, targets ->
      let p = Rng.choose_list rng int_params in
      let existing = Ast.declared_vars m in
      let base = Rng.choose rng guard_names in
      let rec fresh k =
        let c = Printf.sprintf "%s%d" base k in
        if List.mem c existing then fresh (k + 1) else c
      in
      let g = fresh 0 in
      let target = Rng.choose_list rng targets in
      let recheck = Ast.Binop (Ast.Ge, Ast.Var g, Ast.Int 0) in
      let rec wrap_block block = List.map wrap_stmt block
      and wrap_stmt (s : Ast.stmt) =
        if s.Ast.sid = target then Ast.mk ~line:s.Ast.line (Ast.If (recheck, [ s ], []))
        else
          match s.Ast.node with
          | Ast.If (c, b1, b2) -> { s with node = Ast.If (c, wrap_block b1, wrap_block b2) }
          | Ast.While (c, b) -> { s with node = Ast.While (c, wrap_block b) }
          | Ast.For (i, c, u, b) -> { s with node = Ast.For (i, c, u, wrap_block b) }
          | _ -> s
      in
      let prelude =
        [ Ast.mk (Ast.Decl (Ast.Tint, g, Ast.Var p));
          Ast.mk
            (Ast.If
               ( Ast.Binop (Ast.Lt, Ast.Var g, Ast.Int 0),
                 [ Ast.mk (Ast.Assign (g, Ast.Int 0)) ],
                 [] )) ]
      in
      { m with body = prelude @ wrap_block m.Ast.body }

(** Apply the full variation pipeline with independent random choices; used
    by the corpus generators to expand each template into many surface
    forms. *)
let variant ?(rename = true) rng m =
  let m = rewrite_exprs rng m in
  let m = for_to_while rng m in
  let m = if Rng.bernoulli rng 0.4 then insert_dead_code rng m else m in
  let m = if Rng.bernoulli rng 0.3 then insert_defensive_guard rng m else m in
  let m = if rename then rename_random rng m else m in
  m
