(** Seeded, size-bounded generation of {e well-typed} MiniJava methods.

    The generator is type-directed: every expression is built for a
    requested type against an environment of in-scope variables, so the
    output satisfies {!Liger_lang.Typecheck.check} by construction.  Three
    soundness holes of the static semantics are deliberately avoided, since
    the differential oracles would otherwise report false positives:

    - the typechecker's context is unscoped, so a declaration inside a
      branch stays visible after it even though the binding may not exist
      at runtime — branch-local variables are dropped from the environment
      when the branch closes and names are never reused;
    - object fields statically type as [int], so records are built with
      int-valued fields only (the fixed [x]/[y] layout the rest of the
      pipeline assumes) and field stores write ints;
    - the symbolic executor copies arrays/objects on store while the
      interpreter mutates shared structures, so a bare variable of array
      or object type is never the right-hand side of a declaration or
      assignment (no aliases are ever created; see DESIGN.md).

    Loops are almost always of the bounded-counter form (the counter is
    protected from reassignment inside the body) so that generated programs
    usually terminate well inside the interpreter fuel budget; [Timeout] is
    still a legal outcome everywhere. *)

open Liger_lang
open Liger_tensor

let max_stmts = 12      (* statement budget for the whole body *)
let max_depth = 2       (* nesting depth of if/while/for *)
let max_expr_depth = 3  (* operator nesting inside one expression *)

type st = {
  rng : Rng.t;
  mutable n_names : int;  (* fresh-name counter: names are never reused *)
  mutable budget : int;   (* remaining statement budget *)
}

let fresh_name st =
  let n = st.n_names in
  st.n_names <- n + 1;
  Printf.sprintf "v%d" n

(* weighted choice over constructors *)
let pick st weighted =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let k = Rng.int st.rng total in
  let rec go k = function
    | [] -> assert false
    | (w, f) :: rest -> if k < w then f () else go (k - w) rest
  in
  go k weighted

let gen_typ st =
  pick st
    [
      (8, fun () -> Ast.Tint);
      (3, fun () -> Ast.Tbool);
      (4, fun () -> Ast.Tarray);
      (3, fun () -> Ast.Tstring);
      (2, fun () -> Ast.Tobj);
    ]

let vars_of env t = List.filter_map (fun (x, ty) -> if ty = t then Some x else None) env

let small_int st =
  match Rng.int st.rng 8 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> -1
  | 3 -> Rng.int_range st.rng (-100) 100
  | _ -> Rng.int_range st.rng (-9) 9

(* Strings draw from a small alphabet plus the characters that exercise the
   pretty-printer/lexer escape path. *)
let small_str st =
  let alphabet = [| "a"; "b"; "x"; "y"; "z"; " "; "\""; "\\"; "\n"; "\t" |] in
  let n = Rng.int st.rng 4 in
  String.concat "" (List.init n (fun _ -> alphabet.(Rng.int st.rng (Array.length alphabet))))

(* Leaf of the requested type: a literal, or an in-scope variable. *)
let rec leaf st env t =
  let var_or make =
    match vars_of env t with
    | [] -> make ()
    | xs when Rng.bernoulli st.rng 0.6 -> Ast.Var (Rng.choose_list st.rng xs)
    | _ -> make ()
  in
  match t with
  | Ast.Tint -> var_or (fun () -> Ast.Int (small_int st))
  | Ast.Tbool -> var_or (fun () -> Ast.Bool (Rng.bool st.rng))
  | Ast.Tstring -> var_or (fun () -> Ast.Str (small_str st))
  | Ast.Tarray ->
      var_or (fun () ->
          Ast.ArrayLit (List.init (Rng.int st.rng 4) (fun _ -> Ast.Int (small_int st))))
  | Ast.Tobj ->
      var_or (fun () ->
          Ast.RecordLit [ ("x", Ast.Int (small_int st)); ("y", Ast.Int (small_int st)) ])

(* Negation folds literal operands so the AST matches what reparsing the
   pretty-printed source produces ([-5] lexes as one negative literal). *)
and neg e = match e with Ast.Int n -> Ast.Int (-n) | e -> Ast.Unop (Ast.Neg, e)

and gen_expr st env t depth =
  if depth <= 0 then leaf st env t
  else
    let sub t' = gen_expr st env t' (depth - 1) in
    match t with
    | Ast.Tint ->
        pick st
          [
            (4, fun () -> leaf st env t);
            ( 5,
              fun () ->
                let op =
                  Rng.choose st.rng [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod |]
                in
                Ast.Binop (op, sub Ast.Tint, sub Ast.Tint) );
            (1, fun () -> neg (sub Ast.Tint));
            (2, fun () -> Ast.Index (leaf st env Ast.Tarray, sub Ast.Tint));
            ( 2,
              fun () ->
                Ast.Len (leaf st env (if Rng.bool st.rng then Ast.Tarray else Ast.Tstring)) );
            ( 1,
              fun () ->
                match vars_of env Ast.Tobj with
                | [] -> leaf st env Ast.Tint
                | xs ->
                    Ast.Field
                      (Ast.Var (Rng.choose_list st.rng xs), if Rng.bool st.rng then "x" else "y") );
            ( 2,
              fun () ->
                pick st
                  [
                    (2, fun () -> Ast.Call ("abs", [ sub Ast.Tint ]));
                    ( 2,
                      fun () ->
                        Ast.Call
                          ((if Rng.bool st.rng then "min" else "max"),
                           [ sub Ast.Tint; sub Ast.Tint ]) );
                    (* bounded literal exponent: the builtin loops [e] times *)
                    ( 1,
                      fun () ->
                        Ast.Call ("pow", [ sub Ast.Tint; Ast.Int (Rng.int st.rng 5) ]) );
                    ( 1,
                      fun () -> Ast.Call ("indexOf", [ sub Ast.Tstring; sub Ast.Tstring ]) );
                    (1, fun () -> Ast.Call ("ord", [ sub Ast.Tstring ]));
                  ] );
          ]
    | Ast.Tbool ->
        pick st
          [
            (3, fun () -> leaf st env t);
            ( 5,
              fun () ->
                let op = Rng.choose st.rng [| Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |] in
                Ast.Binop (op, sub Ast.Tint, sub Ast.Tint) );
            ( 2,
              fun () ->
                (* Eq/Ne on scalar types only: equality over symbolic
                   arrays/objects is outside the solver's theory *)
                let t' = Rng.choose st.rng [| Ast.Tint; Ast.Tbool; Ast.Tstring |] in
                Ast.Binop ((if Rng.bool st.rng then Ast.Eq else Ast.Ne), sub t', sub t') );
            ( 3,
              fun () ->
                Ast.Binop
                  ((if Rng.bool st.rng then Ast.And else Ast.Or), sub Ast.Tbool, sub Ast.Tbool) );
            (1, fun () -> Ast.Unop (Ast.Not, sub Ast.Tbool));
          ]
    | Ast.Tstring ->
        pick st
          [
            (4, fun () -> leaf st env t);
            (3, fun () -> Ast.Binop (Ast.Add, sub Ast.Tstring, sub Ast.Tstring));
            ( 2,
              fun () ->
                pick st
                  [
                    ( 1,
                      fun () ->
                        Ast.Call ("substring", [ sub Ast.Tstring; sub Ast.Tint; sub Ast.Tint ]) );
                    (1, fun () -> Ast.Call ("charAt", [ sub Ast.Tstring; sub Ast.Tint ]));
                    (1, fun () -> Ast.Call ("chr", [ sub Ast.Tint ]));
                    (1, fun () -> Ast.Call ("toString", [ sub Ast.Tint ]));
                  ] );
          ]
    | Ast.Tarray | Ast.Tobj -> container st env t depth

(* Array/object expressions that are safe as declaration/assignment
   right-hand sides: never a bare variable, so no heap aliasing arises. *)
and container st env t depth =
  let sub t' = gen_expr st env t' (max 0 (depth - 1)) in
  match t with
  | Ast.Tarray ->
      pick st
        [
          ( 2,
            fun () ->
              Ast.ArrayLit (List.init (Rng.int st.rng 4) (fun _ -> sub Ast.Tint)) );
          (1, fun () -> Ast.NewArray (sub Ast.Tint));
        ]
  | _ -> Ast.RecordLit [ ("x", sub Ast.Tint); ("y", sub Ast.Tint) ]

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* [gen_block] returns the generated block only; environment extensions made
   by inner declarations are local to the block (see the module comment). *)
let rec gen_block st env ~depth ~in_loop ~protected ~ret n =
  if n <= 0 || st.budget <= 0 then []
  else
    let stmts, env' = gen_stmt st env ~depth ~in_loop ~protected ~ret in
    (* a Return makes everything after it unreachable; stop the block *)
    let stop =
      match List.rev stmts with
      | { Ast.node = Ast.Return _; _ } :: _ -> true
      | _ -> false
    in
    stmts @ (if stop then [] else gen_block st env' ~depth ~in_loop ~protected ~ret (n - 1))

(* One generation step: a small list of statements (usually one; the
   bounded-while form emits its counter declaration too) plus the extended
   environment for the rest of the block. *)
and gen_stmt st env ~depth ~in_loop ~protected ~ret =
  st.budget <- st.budget - 1;
  let expr t = gen_expr st env t (Rng.int_range st.rng 1 max_expr_depth) in
  let rhs t =
    match t with
    | Ast.Tarray | Ast.Tobj -> container st env t max_expr_depth
    | t -> expr t
  in
  let decl () =
    let t = gen_typ st in
    let x = fresh_name st in
    ([ Ast.mk (Ast.Decl (t, x, rhs t)) ], (x, t) :: env)
  in
  let assign () =
    let assignable = List.filter (fun (x, _) -> not (List.mem x protected)) env in
    match assignable with
    | [] -> decl ()
    | _ ->
        let x, t = List.nth assignable (Rng.int st.rng (List.length assignable)) in
        ([ Ast.mk (Ast.Assign (x, rhs t)) ], env)
  in
  let store_index () =
    match vars_of env Ast.Tarray with
    | [] -> decl ()
    | xs ->
        let x = Rng.choose_list st.rng xs in
        let idx =
          if Rng.bool st.rng then Ast.Int (Rng.int st.rng 4)
          else Ast.Binop (Ast.Mod, expr Ast.Tint, Ast.Len (Ast.Var x))
        in
        ([ Ast.mk (Ast.StoreIndex (x, idx, expr Ast.Tint)) ], env)
  in
  let store_field () =
    match vars_of env Ast.Tobj with
    | [] -> decl ()
    | xs ->
        let x = Rng.choose_list st.rng xs in
        let f = if Rng.bool st.rng then "x" else "y" in
        ([ Ast.mk (Ast.StoreField (x, f, expr Ast.Tint)) ], env)
  in
  let if_ () =
    let c = expr Ast.Tbool in
    let sub = Rng.int_range st.rng 1 3 in
    let b1 = gen_block st env ~depth:(depth - 1) ~in_loop ~protected ~ret sub in
    let b2 =
      if Rng.bool st.rng then []
      else gen_block st env ~depth:(depth - 1) ~in_loop ~protected ~ret sub
    in
    ([ Ast.mk (Ast.If (c, b1, b2)) ], env)
  in
  let for_ () =
    let i = fresh_name st in
    let k = Rng.int_range st.rng 1 5 in
    let init = Ast.mk (Ast.Decl (Ast.Tint, i, Ast.Int 0)) in
    let cond = Ast.Binop (Ast.Lt, Ast.Var i, Ast.Int k) in
    let update = Ast.mk (Ast.Assign (i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1))) in
    let body =
      gen_block st ((i, Ast.Tint) :: env) ~depth:(depth - 1) ~in_loop:true
        ~protected:(i :: protected) ~ret
        (Rng.int_range st.rng 1 3)
    in
    ([ Ast.mk (Ast.For (init, cond, update, body)) ], env)
  in
  let while_ () =
    (* counter declared before the loop; incremented first in the body so a
       generated [continue] cannot skip the increment *)
    let i = fresh_name st in
    let k = Rng.int_range st.rng 1 5 in
    let decl = Ast.mk (Ast.Decl (Ast.Tint, i, Ast.Int 0)) in
    let inc = Ast.mk (Ast.Assign (i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1))) in
    let body =
      inc
      :: gen_block st ((i, Ast.Tint) :: env) ~depth:(depth - 1) ~in_loop:true
           ~protected:(i :: protected) ~ret
           (Rng.int_range st.rng 1 2)
    in
    let w = Ast.mk (Ast.While (Ast.Binop (Ast.Lt, Ast.Var i, Ast.Int k), body)) in
    ([ decl; w ], (i, Ast.Tint) :: env)
  in
  let return_ () = ([ Ast.mk (Ast.Return (expr ret)) ], env) in
  let jump () =
    ([ Ast.mk (if Rng.bool st.rng then Ast.Break else Ast.Continue) ], env)
  in
  let base =
    [ (4, decl); (3, assign); (2, store_index); (1, store_field); (1, return_) ]
  in
  let nested =
    if depth > 0 then [ (3, if_); (2, for_); (1, while_) ] else []
  in
  let jumps = if in_loop then [ (1, jump) ] else [] in
  pick st (base @ nested @ jumps)

(* ------------------------------------------------------------------ *)
(* Whole methods                                                       *)
(* ------------------------------------------------------------------ *)

(** Generate one well-typed method.  Deterministic given [rng] (up to the
    global statement-id counter, which oracles never depend on). *)
let gen rng : Ast.meth =
  let st = { rng; n_names = 0; budget = max_stmts } in
  let n_params = Rng.int_range rng 1 3 in
  let params = List.init n_params (fun i -> (gen_typ st, Printf.sprintf "p%d" i)) in
  let ret = gen_typ st in
  let env = List.map (fun (t, x) -> (x, t)) params in
  let body =
    gen_block st env ~depth:max_depth ~in_loop:false ~protected:[] ~ret max_stmts
  in
  (* guaranteed final return so "fell through without a value" only appears
     if the shrinker deliberately removes it *)
  let body =
    match List.rev body with
    | { Ast.node = Ast.Return _; _ } :: _ -> body
    | _ -> body @ [ Ast.mk (Ast.Return (leaf st env ret)) ]
  in
  let m = { Ast.mname = "fuzzed"; params; ret; body } in
  (match Typecheck.check m with
  | Ok () -> ()
  | Error e ->
      (* a generator soundness bug: surface it loudly with the program *)
      invalid_arg
        (Printf.sprintf "Fuzz.Gen produced an ill-typed method (line %d: %s):\n%s" e.line
           e.msg (Pretty.meth_to_string m)));
  m
