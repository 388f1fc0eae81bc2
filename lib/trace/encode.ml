(** Encoding programs, statements and states into vocabulary tokens.

    The static dimension encodes each statement as a labeled tree (AST node
    types at interior nodes, source tokens at leaves) consumed by the
    TreeLSTM.  The dynamic dimension flattens each program state into
    per-variable token sequences: objects and arrays become arrays of
    primitives (§5.1.1 "Object Types") and every primitive value becomes one
    token of D_d, with magnitude bucketing so that the value vocabulary stays
    bounded.

    A value's tokens depend on the value alone, and one method's traces
    repeat the same values and statements at every step, so vocabulary
    registration ({!register_blended}) tokenizes each distinct statement
    head, variable name and value of a method once.  Interning a token
    the vocabulary already holds is a lookup, so skipping a repeat leaves
    the first-occurrence order, and with it every id, unchanged. *)

open Liger_lang

type tree = Leaf of string | Node of string * tree list

let rec tree_size = function
  | Leaf _ -> 1
  | Node (_, children) -> 1 + List.fold_left (fun a c -> a + tree_size c) 0 children

let rec tree_tokens = function
  | Leaf tok -> [ tok ]
  | Node (label, children) -> label :: List.concat_map tree_tokens children

(** The flattened length of one value is capped at [max_flat] tokens,
    keeping model inputs bounded. *)
let max_flat = 12

(* ---------------- value tokens (D_d) ---------------- *)

let small_int_tokens = Array.init 41 (fun k -> Printf.sprintf "i%d" (k - 20))

let int_token n =
  if n >= -20 && n <= 20 then small_int_tokens.(n + 20)
  else if n > 1000 then "i_pos_big"
  else if n > 100 then "i_pos_large"
  else if n > 0 then "i_pos_med"
  else if n < -1000 then "i_neg_big"
  else if n < -100 then "i_neg_large"
  else "i_neg_med"

let len_bucket n =
  if n <= 8 then string_of_int n
  else if n <= 16 then "9_16"
  else if n <= 64 then "17_64"
  else "big"

let char_token c =
  if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then
    Printf.sprintf "c_%c" c
  else Printf.sprintf "c_%d" (Char.code c)

(** Tokens of one primitive value. *)
let prim_tokens = function
  | Value.VInt n -> [ int_token n ]
  | Value.VBool true -> [ "v_true" ]
  | Value.VBool false -> [ "v_false" ]
  | Value.VStr s ->
      let chars =
        List.init (min 6 (String.length s)) (fun i -> char_token s.[i])
      in
      Printf.sprintf "slen_%s" (len_bucket (String.length s)) :: chars
  | v -> [ "v_" ^ Pretty.typ_to_string (Value.type_of v) ]

(** Flatten a value to a bounded token sequence: arrays/objects become their
    primitive constituents prefixed by a length marker. *)
let value_tokens v =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  match v with
  | None -> [ "bot" ]
  | Some (Value.VArr a) ->
      let elems = Array.to_list (Array.map (fun n -> int_token n) a) in
      Printf.sprintf "alen_%s" (len_bucket (Array.length a)) :: take (max_flat - 1) elems
  | Some (Value.VObj fields) ->
      let elems =
        List.concat_map (fun v -> prim_tokens v)
          (List.concat_map (fun (_, v) -> Value.flatten v) (Array.to_list fields))
      in
      Printf.sprintf "olen_%s" (len_bucket (Array.length fields)) :: take (max_flat - 1) elems
  | Some prim -> take max_flat (prim_tokens prim)

(* ---------------- statement trees (D_s) ---------------- *)

let rec expr_tree (e : Ast.expr) =
  match e with
  | Ast.Int n -> Node ("IntLit", [ Leaf (int_token n) ])
  | Ast.Bool b -> Node ("BoolLit", [ Leaf (string_of_bool b) ])
  | Ast.Str s ->
      Node ("StrLit", [ Leaf (Printf.sprintf "slen_%s" (len_bucket (String.length s))) ])
  | Ast.Var x -> Node ("Var", [ Leaf x ])
  | Ast.Binop (op, a, b) ->
      Node ("Binop", [ Leaf (Pretty.binop_to_string op); expr_tree a; expr_tree b ])
  | Ast.Unop (Ast.Neg, a) -> Node ("Neg", [ expr_tree a ])
  | Ast.Unop (Ast.Not, a) -> Node ("Not", [ expr_tree a ])
  | Ast.Index (a, i) -> Node ("Index", [ expr_tree a; expr_tree i ])
  | Ast.Field (a, f) -> Node ("Field", [ expr_tree a; Leaf f ])
  | Ast.Len a -> Node ("Len", [ expr_tree a ])
  | Ast.Call (f, args) -> Node ("Call", Leaf f :: List.map expr_tree args)
  | Ast.NewArray e -> Node ("NewArray", [ expr_tree e ])
  | Ast.ArrayLit es -> Node ("ArrayLit", List.map expr_tree es)
  | Ast.RecordLit fs ->
      Node ("RecordLit", List.map (fun (n, e) -> Node ("FieldInit", [ Leaf n; expr_tree e ])) fs)

(** The {e head} tree of a statement: compound statements contribute only
    their condition (their bodies appear as later trace steps), and executed
    conditions carry their branch outcome as an extra leaf. *)
let stmt_tree ?branch (s : Ast.stmt) =
  let branch_leaf =
    match branch with
    | Some true -> [ Leaf "taken" ]
    | Some false -> [ Leaf "not_taken" ]
    | None -> []
  in
  match s.Ast.node with
  | Ast.Decl (t, x, e) ->
      Node ("Decl", [ Leaf (Pretty.typ_to_string t); Leaf x; expr_tree e ])
  | Ast.Assign (x, e) -> Node ("Assign", [ Leaf x; expr_tree e ])
  | Ast.StoreIndex (x, i, e) ->
      Node ("StoreIndex", [ Leaf x; expr_tree i; expr_tree e ])
  | Ast.StoreField (x, f, e) -> Node ("StoreField", [ Leaf x; Leaf f; expr_tree e ])
  | Ast.If (c, _, _) -> Node ("If", (expr_tree c :: branch_leaf))
  | Ast.While (c, _) -> Node ("While", (expr_tree c :: branch_leaf))
  | Ast.For (_, c, _, _) -> Node ("For", (expr_tree c :: branch_leaf))
  | Ast.Return e -> Node ("Return", [ expr_tree e ])
  | Ast.Break -> Node ("Break", [])
  | Ast.Continue -> Node ("Continue", [])

(** Full method tree, bodies included — the input to the static baselines
    (code2vec / code2seq AST paths). *)
let rec block_tree block = List.map full_stmt_tree block

and full_stmt_tree (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.If (c, b1, b2) ->
      Node ("If", [ expr_tree c; Node ("Then", block_tree b1); Node ("Else", block_tree b2) ])
  | Ast.While (c, b) -> Node ("While", [ expr_tree c; Node ("Body", block_tree b) ])
  | Ast.For (init, c, update, b) ->
      Node
        ( "For",
          [ full_stmt_tree init; expr_tree c; full_stmt_tree update;
            Node ("Body", block_tree b) ] )
  | _ -> stmt_tree s

let meth_tree (m : Ast.meth) =
  let params =
    List.map
      (fun (t, x) -> Node ("Param", [ Leaf (Pretty.typ_to_string t); Leaf x ]))
      m.Ast.params
  in
  Node ("Method", params @ [ Node ("Body", block_tree m.Ast.body) ])

(* ---------------- vocabulary registration ---------------- *)

let register_tree vocab tree = List.iter (fun tok -> ignore (Vocab.id vocab tok)) (tree_tokens tree)

(** What a registration has interned so far: statement heads by
    [(sid, branch)], variable names and values.  One [seen] spans one
    method's traces: sids are only unique within a method. *)
type seen = {
  heads : (int * bool option, unit) Hashtbl.t;
  names : (string, unit) Hashtbl.t;
  values : (Value.t option, unit) Hashtbl.t;
}

let new_seen () =
  { heads = Hashtbl.create 64; names = Hashtbl.create 16; values = Hashtbl.create 64 }

(* [true] the first time [k] is asked about *)
let first tbl k = (not (Hashtbl.mem tbl k)) && (Hashtbl.add tbl k (); true)

(** Register every token a blended trace can produce, so a training pass
    builds the complete vocabulary before freezing.  Each statement head,
    variable name and value is tokenized only if [seen] does not hold it. *)
let register_blended seen vocab (b : Blended.t) =
  let states = ref 0 in
  List.iter
    (fun (step : Blended.step) ->
      if first seen.heads (step.Blended.stmt.Ast.sid, step.Blended.branch) then
        register_tree vocab (stmt_tree ?branch:step.Blended.branch step.Blended.stmt);
      Array.iter
        (fun env ->
          incr states;
          List.iter
            (fun (x, v) ->
              if first seen.names x then ignore (Vocab.id vocab ("var_" ^ x));
              if first seen.values v then
                List.iter (fun t -> ignore (Vocab.id vocab t)) (value_tokens v))
            env)
        step.Blended.states)
    b.Blended.steps;
  Liger_obs.Metrics.incr "encode.blended_registered";
  Liger_obs.Metrics.add "encode.states" !states
