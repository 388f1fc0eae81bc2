(* Tests for the MiniJava substrate: lexer, parser, pretty-printer
   round-trips, interpreter semantics on the paper's own example programs
   (Figures 1 and 4), the typechecker, sub-token utilities and differential
   testing of the mutation engine. *)

open Liger_lang
open Liger_tensor

let parse src = Parser.method_of_string src

(* The three sorting programs of Figure 1, transcribed to MiniJava. *)
let sort1_src =
  {|
method sortI(int[] A) : int[] {
  int left = 0;
  int right = A.length - 1;
  for (int i = right; i > left; i--) {
    for (int j = left; j < i; j++) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
|}

let sort2_src =
  {|
method sortII(int[] A) : int[] {
  int left = 0;
  int right = A.length;
  for (int i = left; i < right; i++) {
    for (int j = i - 1; j >= left; j--) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
|}

let sort3_src =
  {|
method sortIII(int[] A) : int[] {
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < A.length - 1; i++) {
      if (A[i + 1] < A[i]) {
        int tmp = A[i];
        A[i] = A[i + 1];
        A[i + 1] = tmp;
        swapbit = 1;
      }
    }
  }
  return A;
}
|}

(* Figure 4's string-rotation program. *)
let rotation_src =
  {|
method isStringRotation(string A, string B) : bool {
  if (A.length != B.length) {
    return false;
  }
  for (int i = 1; i < A.length; i++) {
    string tail = substring(A, i, A.length - i);
    string wrap = substring(A, 0, i);
    if (tail + wrap == B) {
      return true;
    }
  }
  return false;
}
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "int x = 42; // comment\nx += 1;" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  Alcotest.(check bool) "tokens" true
    (kinds
    = [ Token.KW "int"; Token.IDENT "x"; Token.ASSIGN; Token.INT 42; Token.SEMI;
        Token.IDENT "x"; Token.PLUSEQ; Token.INT 1; Token.SEMI; Token.EOF ])

let test_lexer_lines () =
  let toks = Lexer.tokenize "a\nb\nc" in
  let lines = List.map (fun t -> t.Token.line) toks in
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 3; 3 ] lines

let test_lexer_string_escapes () =
  let toks = Lexer.tokenize {|"a\nb\"c"|} in
  match toks with
  | [ { Token.tok = Token.STRING s; _ }; _ ] ->
      Alcotest.(check string) "escapes" "a\nb\"c" s
  | _ -> Alcotest.fail "expected one string token"

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "a /* multi\nline */ b" in
  Alcotest.(check int) "tokens" 3 (List.length toks);
  Alcotest.(check int) "line of b" 2 (List.nth toks 1).Token.line

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "a # b"); false with Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (try ignore (Lexer.tokenize "\"abc"); false with Lexer.Lex_error _ -> true);
  (* the parser's entry points report every lexical error as a parse
     error at its line; a block comment's is the line it opened on *)
  List.iter
    (fun (what, src, line) ->
      match Parser.methods_of_string src with
      | _ -> Alcotest.failf "%s: parsed" what
      | exception Parser.Parse_error (_, l) -> Alcotest.(check int) what line l)
    [
      ("bad char", "method f() : int {\n  return 1 # 2;\n}", 2);
      ("unterminated block comment", "method f() : int {\n/* open\n\n}", 2);
      ("int literal out of range", "method f() : int {\n\n  return 99999999999999999999;\n}", 3);
      ("min_int's magnitude unnegated", "method f() : int {\n\n  return 4611686018427387904;\n}", 3);
    ];
  match Lexer.tokenize "4611686018427387903" with
  | [ { Token.tok = Token.INT n; _ }; _ ] -> Alcotest.(check int) "max_int lexes" max_int n
  | _ -> Alcotest.fail "max_int did not lex as one literal"

(* ------------------------------------------------------------------ *)
(* Parser + pretty round-trip                                          *)
(* ------------------------------------------------------------------ *)

let strip_ids (m : Ast.meth) =
  Ast.map_meth ~fexpr:Fun.id ~fstmt:(fun s -> { s with sid = 0; line = 0 }) m

let test_parse_roundtrip src () =
  let m = parse src in
  let printed = Pretty.meth_to_string m in
  let m2 = parse printed in
  Alcotest.(check bool) "roundtrip equal" true
    (Ast.equal_meth (strip_ids m) (strip_ids m2))

let test_parse_precedence () =
  let m = parse "method f(int a, int b) : int { return a + b * 2 - -a; }" in
  match (List.hd m.Ast.body).Ast.node with
  | Ast.Return
      (Ast.Binop
         (Ast.Sub, Ast.Binop (Ast.Add, Ast.Var "a", Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Int 2)),
          Ast.Unop (Ast.Neg, Ast.Var "a"))) ->
      ()
  | n -> Alcotest.failf "unexpected parse: %s" (Ast.show_stmt_node n)

(* Regression (found by `liger fuzz` roundtrip oracle): the pretty-printer
   emits [Int (-5)] as "(-5)", which used to reparse as [Unop (Neg, Int 5)]
   and break AST roundtrip equality.  The parser now folds negated integer
   literals. *)
let test_parse_negative_literal () =
  let m = parse "method f() : int { return (-5); }" in
  (match (List.hd m.Ast.body).Ast.node with
  | Ast.Return (Ast.Int -5) -> ()
  | n -> Alcotest.failf "negative literal mis-parsed: %s" (Ast.show_stmt_node n));
  (* subtraction of a negative literal still parses as subtraction *)
  let m = parse "method f() : int { return 2 - -3; }" in
  match (List.hd m.Ast.body).Ast.node with
  | Ast.Return (Ast.Binop (Ast.Sub, Ast.Int 2, Ast.Int -3)) -> ()
  | n -> Alcotest.failf "2 - -3 mis-parsed: %s" (Ast.show_stmt_node n)

(* min_int included: the printer emits "(-4611686018427387904)", whose
   magnitude is no int, and the parser's negated-literal fold reads it
   back as min_int *)
let test_negative_literal_roundtrip () =
  let m =
    parse
      "method f(int x) : int { int y = (-3); int z = -4611686018427387904; return y * (-1); }"
  in
  (match (List.nth m.Ast.body 1).Ast.node with
  | Ast.Decl (_, "z", Ast.Int n) -> Alcotest.(check int) "min_int literal" min_int n
  | n -> Alcotest.failf "min_int literal mis-parsed: %s" (Ast.show_stmt_node n));
  let m2 = parse (Pretty.meth_to_string m) in
  Alcotest.(check bool) "roundtrip equal" true
    (Ast.equal_meth (strip_ids m) (strip_ids m2))

let test_parse_compound_sugar () =
  let m = parse "method f(int x) : int { x += 3; x++; x *= 2; return x; }" in
  let nodes = List.map (fun s -> s.Ast.node) m.Ast.body in
  match nodes with
  | [ Ast.Assign ("x", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 3));
      Ast.Assign ("x", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 1));
      Ast.Assign ("x", Ast.Binop (Ast.Mul, Ast.Var "x", Ast.Int 2));
      Ast.Return (Ast.Var "x") ] ->
      ()
  | _ -> Alcotest.fail "compound assignment sugar mis-parsed"

let test_parse_else_if () =
  let m =
    parse
      "method f(int x) : int { if (x > 0) { return 1; } else if (x < 0) { return 2; } \
       else { return 0; } }"
  in
  match (List.hd m.Ast.body).Ast.node with
  | Ast.If (_, _, [ { Ast.node = Ast.If (_, _, [ _ ]); _ } ]) -> ()
  | _ -> Alcotest.fail "else-if chain mis-parsed"

let test_parse_record_and_array_lit () =
  let m = parse "method f() : int { obj p = {x: 1, y: 2}; int[] a = [1, 2, 3]; return p.x + a[0]; }" in
  Alcotest.(check int) "three stmts" 3 (List.length m.Ast.body)

let test_parse_error_reports_line () =
  try
    ignore (parse "method f() : int {\n  int x = ;\n}");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error (_, line) -> Alcotest.(check int) "line" 2 line

let test_unique_sids () =
  let m = parse sort1_src in
  let sids = List.map (fun s -> s.Ast.sid) (Ast.all_stmts m) in
  Alcotest.(check int) "all sids distinct" (List.length sids)
    (List.length (List.sort_uniq compare sids))

let test_methods_of_string () =
  let ms = Parser.methods_of_string (sort1_src ^ sort2_src) in
  Alcotest.(check (list string)) "names" [ "sortI"; "sortII" ]
    (List.map (fun m -> m.Ast.mname) ms)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run_ints m args = Interp.run m args

let check_returns msg expected outcome =
  match outcome with
  | Interp.Returned v ->
      Alcotest.(check bool) msg true (Value.equal expected v)
  | Interp.Timeout -> Alcotest.failf "%s: timeout" msg
  | Interp.Crashed e -> Alcotest.failf "%s: crashed: %s" msg e

let test_sorts_agree () =
  (* The paper's three programs are equivalent: all sort ascending. *)
  let input = [ 8; 5; 1; 4; 3 ] in
  let expect = Value.VArr [| 1; 3; 4; 5; 8 |] in
  List.iter
    (fun src ->
      let m = parse src in
      check_returns m.Ast.mname expect
        (run_ints m [ Value.VArr (Array.of_list input) ]))
    [ sort1_src; sort2_src; sort3_src ]

let test_sort_on_random_inputs () =
  let rng = Rng.create 99 in
  let m1 = parse sort1_src and m3 = parse sort3_src in
  for _ = 1 to 25 do
    let n = 1 + Rng.int rng 8 in
    let a = Array.init n (fun _ -> Rng.int_range rng (-20) 20) in
    let expected = Array.copy a in
    Array.sort compare expected;
    check_returns "sortI" (Value.VArr expected) (run_ints m1 [ Value.VArr (Array.copy a) ]);
    check_returns "sortIII" (Value.VArr expected) (run_ints m3 [ Value.VArr (Array.copy a) ])
  done

let test_string_rotation () =
  let m = parse rotation_src in
  let run a b = run_ints m [ Value.VStr a; Value.VStr b ] in
  check_returns "abc/bca" (Value.VBool true) (run "abc" "bca");
  check_returns "abc/cab" (Value.VBool true) (run "abc" "cab");
  check_returns "abc/abc different rotation path" (Value.VBool false) (run "abc" "acb");
  check_returns "length mismatch" (Value.VBool false) (run "abc" "abcd")

let test_division_by_zero_crashes () =
  let m = parse "method f(int x) : int { return 10 / x; }" in
  match run_ints m [ Value.VInt 0 ] with
  | Interp.Crashed msg -> Alcotest.(check string) "msg" "division by zero" msg
  | _ -> Alcotest.fail "expected crash"

let test_index_out_of_bounds_crashes () =
  let m = parse "method f(int[] a) : int { return a[5]; }" in
  match run_ints m [ Value.VArr [| 1; 2 |] ] with
  | Interp.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash"

let test_infinite_loop_times_out () =
  let m = parse "method f() : int { while (true) { int x = 1; } return 0; }" in
  match Interp.run ~fuel:500 m [] with
  | Interp.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_missing_return_crashes () =
  let m = parse "method f(int x) : int { if (x > 0) { return 1; } }" in
  match run_ints m [ Value.VInt (-1) ] with
  | Interp.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash on fall-through"

let test_break_continue () =
  let m =
    parse
      "method f(int n) : int { int s = 0; for (int i = 0; i < n; i++) { if (i == 2) { \
       continue; } if (i == 5) { break; } s += i; } return s; }"
  in
  (* 0+1+3+4 = 8 *)
  check_returns "break/continue" (Value.VInt 8) (run_ints m [ Value.VInt 100 ])

let test_builtins () =
  let m =
    parse
      "method f(string s) : int { return indexOf(s, \"lo\") + ord(charAt(s, 0)) + \
       min(3, 4) + max(3, 4) + pow(2, 5) + abs(-2); }"
  in
  (* indexOf("hello","lo")=3, ord('h')=104, 3, 4, 32, 2 -> 148 *)
  check_returns "builtins" (Value.VInt 148) (run_ints m [ Value.VStr "hello" ])

let test_objects_and_fields () =
  let m =
    parse
      "method f(int a, int b) : int { obj p = {x: a, y: b}; p.x = p.x + 1; return p.x * \
       p.y; }"
  in
  check_returns "objects" (Value.VInt 12) (run_ints m [ Value.VInt 3; Value.VInt 3 ])

let test_argument_isolation () =
  (* Caller's array must not be mutated: run snapshots arguments. *)
  let m = parse "method f(int[] a) : int { a[0] = 99; return a[0]; }" in
  let arr = [| 1; 2 |] in
  check_returns "returns 99" (Value.VInt 99) (run_ints m [ Value.VArr arr ]);
  Alcotest.(check int) "caller array untouched" 1 arr.(0)

let test_trace_steps_and_states () =
  let m = parse "method f(int x) : int { int y = x + 1; y = y * 2; return y; }" in
  let outcome, steps = Interp.run_traced m [ Value.VInt 5 ] in
  (match outcome with Interp.Returned (Value.VInt 12) -> () | _ -> Alcotest.fail "result");
  Alcotest.(check int) "three steps" 3 (List.length steps);
  let second = List.nth steps 1 in
  (match List.assoc "y" second.Interp.step_env with
  | Some (Value.VInt 12) -> ()
  | _ -> Alcotest.fail "state after second step");
  (* the state layout is fixed: x then y in every step *)
  List.iter
    (fun st ->
      Alcotest.(check (list string)) "layout" [ "x"; "y" ]
        (List.map fst st.Interp.step_env))
    steps

let test_trace_branch_outcomes () =
  let m = parse "method f(int x) : bool { if (x > 0) { return true; } return false; }" in
  let _, steps = Interp.run_traced m [ Value.VInt 7 ] in
  match steps with
  | [ s1; _ ] -> Alcotest.(check (option bool)) "branch" (Some true) s1.Interp.step_branch
  | _ -> Alcotest.fail "expected 2 steps"

let test_state_snapshot_immune_to_mutation () =
  (* Figure 2 shows per-step array contents; later mutation must not change
     recorded snapshots. *)
  let m = parse sort1_src in
  let _, steps = Interp.run_traced m [ Value.VArr [| 2; 1 |] ] in
  let first = List.hd steps in
  (match List.assoc "A" first.Interp.step_env with
  | Some (Value.VArr a) -> Alcotest.(check (array int)) "initial snapshot" [| 2; 1 |] a
  | _ -> Alcotest.fail "A missing")

let test_unobserved_run_copies_nothing () =
  (* a 20,003-step loop beside a 10,000-cell array: copying the state at
     every step would allocate 20,003 copies of the array *)
  let m =
    parse "method spin(int[] a) : int { int i = 0; while (i < 10000) { i = i + 1; } return i; }"
  in
  let cells = 10_000 in
  let arg = Value.VArr (Array.make cells 7) in
  let steps = ref 0 in
  let counted = Interp.run ~fuel:30_000 ~on_step:(fun _ _ _ -> incr steps) m [ arg ] in
  check_returns "counted run" (Value.VInt 10_000) counted;
  Alcotest.(check int) "steps" 20_003 !steps;
  let outcome, words = Testutil.words_allocated (fun () -> Interp.run ~fuel:30_000 m [ arg ]) in
  check_returns "unobserved run" (Value.VInt 10_000) outcome;
  if words > !steps * cells / 100 then
    Alcotest.failf "unobserved run allocated %d words over %d steps (one copy: %d words)" words
      !steps cells

let test_arity_mismatch () =
  let m = parse "method f(int x) : int { return x; }" in
  match run_ints m [] with
  | Interp.Crashed _ -> ()
  | _ -> Alcotest.fail "expected arity crash"

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let test_typecheck_accepts_paper_programs () =
  List.iter
    (fun src ->
      match Typecheck.check (parse src) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected (line %d): %s" e.Typecheck.line e.Typecheck.msg)
    [ sort1_src; sort2_src; sort3_src; rotation_src ]

let expect_reject src =
  match Typecheck.check (parse src) with
  | Ok () -> Alcotest.failf "expected type error in: %s" src
  | Error _ -> ()

let test_typecheck_rejections () =
  expect_reject "method f() : int { return true; }";
  expect_reject "method f(int x) : int { return x + \"a\"; }";
  expect_reject "method f() : int { y = 3; return 0; }";
  expect_reject "method f(bool b) : int { return b[0]; }";
  expect_reject "method f(int x) : int { if (x) { return 1; } return 0; }";
  expect_reject "method f() : int { return unknownFn(1); }";
  expect_reject "method f(int x) : int { bool b = x; return x; }";
  expect_reject "method f(int[] a) : int { a[true] = 1; return 0; }"

let test_typecheck_string_concat_ok () =
  match Typecheck.check (parse "method f(string a) : string { return a + \"!\"; }") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "string concat should typecheck"

(* Every error branch of the typechecker, pinned by message so each test
   exercises the branch it claims to (a generic rejection would hide a
   misfire in an earlier check). *)
let expect_reject_msg src fragment =
  match Typecheck.check (parse src) with
  | Ok () -> Alcotest.failf "expected type error (%s) in: %s" fragment src
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      if not (contains e.Typecheck.msg fragment) then
        Alcotest.failf "expected error mentioning %S, got %S" fragment e.Typecheck.msg

let test_typecheck_expr_error_branches () =
  expect_reject_msg "method f() : int { return y; }" "unbound variable";
  expect_reject_msg "method f(bool b) : int { return -b; }" "negation of non-int";
  expect_reject_msg "method f(int x) : bool { return !x; }" "negation of non-bool";
  expect_reject_msg "method f(string s) : int { return s - s; }" "arithmetic on non-ints";
  expect_reject_msg "method f(int x) : string { return x + \"a\"; }" "arithmetic on non-ints";
  expect_reject_msg "method f(bool b) : bool { return b < b; }" "comparison of non-ints";
  expect_reject_msg "method f(int x, bool b) : bool { return x == b; }"
    "equality on mismatched types";
  expect_reject_msg "method f(int x) : bool { return x && true; }" "logical op on non-bools";
  expect_reject_msg "method f(int x) : int { return x[0]; }" "indexing a non-array";
  expect_reject_msg "method f(int[] a, bool b) : int { return a[b]; }" "non-int index";
  expect_reject_msg "method f(int x) : int { return x.f; }" "non-object";
  expect_reject_msg "method f(int x) : int { return x.length; }" "no length";
  expect_reject_msg "method f() : int { return mystery(1); }" "unknown function";
  expect_reject_msg "method f() : int { return min(1); }" "expects 2 arguments";
  expect_reject_msg "method f(bool b) : int { return abs(b); }"
    "argument type mismatch";
  expect_reject_msg "method f(bool b) : int[] { return new int[b]; }" "non-int array size";
  expect_reject_msg "method f(bool b) : int[] { return [1, b]; }" "non-int array element";
  (* record literals typecheck their field expressions *)
  expect_reject_msg "method f() : obj { return { a: z }; }" "unbound variable"

let test_typecheck_stmt_error_branches () =
  expect_reject_msg "method f(bool b) : int { int x = b; return x; }"
    "initializer type mismatch";
  expect_reject_msg "method f() : int { y = 3; return 0; }" "assignment to undeclared";
  expect_reject_msg "method f(int x, bool b) : int { x = b; return x; }"
    "assignment type mismatch";
  expect_reject_msg "method f(int[] a, bool b) : int { a[b] = 1; return 0; }"
    "non-int index";
  expect_reject_msg "method f(int[] a, bool b) : int { a[0] = b; return 0; }"
    "non-int array element";
  expect_reject_msg "method f(int x) : int { x[0] = 1; return 0; }" "not an array";
  expect_reject_msg "method f() : int { a[0] = 1; return 0; }" "unbound variable";
  expect_reject_msg "method f(int x) : int { x.f = 1; return 0; }" "not an object";
  expect_reject_msg "method f() : int { o.f = 1; return 0; }" "unbound variable";
  expect_reject_msg "method f(obj o) : int { o.f = z; return 0; }" "unbound variable";
  expect_reject_msg "method f(int x) : int { if (x) { return 1; } return 0; }"
    "non-bool condition";
  expect_reject_msg "method f(int x) : int { while (x) { x = x - 1; } return x; }"
    "non-bool condition";
  expect_reject_msg
    "method f(int n) : int { for (int i = 0; i + n; i++) { n = n - 1; } return n; }"
    "non-bool condition";
  (* errors inside a For's init and update statements propagate *)
  expect_reject_msg
    "method f(int n) : int { for (int i = true; n > 0; i++) { n = n - 1; } return n; }"
    "initializer type mismatch";
  expect_reject_msg
    "method f(int n, bool b) : int { for (int i = 0; i < n; i = b) { n = n - 1; } \
     return n; }"
    "assignment type mismatch";
  expect_reject_msg "method f() : int { return true; }" "return type mismatch";
  (* errors in nested blocks propagate out of If branches *)
  expect_reject_msg
    "method f(int n) : int { if (n > 0) { return n; } else { return true; } }"
    "return type mismatch"

(* ------------------------------------------------------------------ *)
(* Subtokens                                                           *)
(* ------------------------------------------------------------------ *)

let test_subtoken_split () =
  Alcotest.(check (list string)) "camel" [ "compute"; "file"; "diff" ]
    (Subtoken.split "computeFileDiff");
  Alcotest.(check (list string)) "snake" [ "is"; "string"; "rotation" ]
    (Subtoken.split "is_string_rotation");
  Alcotest.(check (list string)) "single" [ "sort" ] (Subtoken.split "sort");
  Alcotest.(check (list string)) "leading upper" [ "sort"; "i" ] (Subtoken.split "SortI")

let test_subtoken_join () =
  Alcotest.(check string) "join" "computeFileDiff"
    (Subtoken.join [ "compute"; "file"; "diff" ])

let test_subtoken_overlap () =
  (* the paper's metric examples: computeDiff vs diffCompute is perfect *)
  let target = Subtoken.split "computeDiff" in
  Alcotest.(check int) "order independent" 2
    (Subtoken.overlap (Subtoken.split "diffCompute") target);
  Alcotest.(check int) "partial" 1 (Subtoken.overlap (Subtoken.split "compute") target);
  Alcotest.(check int) "extra words" 2
    (Subtoken.overlap (Subtoken.split "computeFileDiff") target);
  Alcotest.(check int) "multiset not set" 1
    (Subtoken.overlap [ "a"; "a" ] [ "a"; "b" ])

(* ------------------------------------------------------------------ *)
(* Mutation engine: differential semantics preservation                *)
(* ------------------------------------------------------------------ *)

let outcomes_equal a b =
  match (a, b) with
  | Interp.Returned x, Interp.Returned y -> Value.equal x y
  | Interp.Timeout, Interp.Timeout -> true
  | Interp.Crashed _, Interp.Crashed _ -> true
  | _ -> false

let random_args rng (m : Ast.meth) =
  List.map
    (fun (t, _) ->
      match t with
      | Ast.Tint -> Value.VInt (Rng.int_range rng (-10) 10)
      | Ast.Tbool -> Value.VBool (Rng.bool rng)
      | Ast.Tstring ->
          let n = Rng.int rng 6 in
          Value.VStr (String.init n (fun _ -> Char.chr (97 + Rng.int rng 4)))
      | Ast.Tarray ->
          let n = Rng.int rng 6 in
          Value.VArr (Array.init n (fun _ -> Rng.int_range rng (-10) 10))
      | Ast.Tobj -> Value.VObj [| ("x", Value.VInt (Rng.int_range rng (-5) 5)) |])
    m.Ast.params

let differential_check name variant_of src =
  let rng = Rng.create 2024 in
  let m = parse src in
  for trial = 1 to 10 do
    let v = variant_of (Rng.split rng) m in
    Alcotest.(check bool)
      (Printf.sprintf "%s variant still typechecks (trial %d)" name trial)
      true (Typecheck.is_well_typed v);
    for _ = 1 to 5 do
      let args = random_args rng m in
      let o1 = Interp.run m args and o2 = Interp.run v args in
      if not (outcomes_equal o1 o2) then
        Alcotest.failf "%s: semantics changed on %s\noriginal: %s\nvariant: %s" name
          (String.concat ", " (List.map Value.to_display args))
          (Pretty.meth_to_string m) (Pretty.meth_to_string v)
    done
  done

let test_mutation_preserves_sorts () =
  List.iter
    (fun src ->
      differential_check "full-variant" (fun rng m -> Mutate.variant rng m) src)
    [ sort1_src; sort3_src; rotation_src ]

let test_rename_uninformative () =
  let m = parse sort1_src in
  let v = Mutate.rename_uninformative m in
  Alcotest.(check bool) "typechecks" true (Typecheck.is_well_typed v);
  let vars = Ast.declared_vars v in
  Alcotest.(check bool) "all renamed" true
    (List.for_all (fun x -> String.length x >= 2 && x.[0] = 'v') vars);
  let o1 = Interp.run m [ Value.VArr [| 3; 1; 2 |] ] in
  let o2 = Interp.run v [ Value.VArr [| 3; 1; 2 |] ] in
  Alcotest.(check bool) "same result" true (outcomes_equal o1 o2)

let test_rename_letters () =
  let m = parse sort1_src in
  let rng = Rng.create 77 in
  let v = Mutate.rename_letters rng m in
  Alcotest.(check bool) "typechecks" true (Typecheck.is_well_typed v);
  Alcotest.(check bool) "short names" true
    (List.for_all (fun x -> String.length x = 1) (Ast.declared_vars v));
  Alcotest.(check bool) "same behaviour" true
    (outcomes_equal
       (Interp.run m [ Value.VArr [| 4; 2; 9; 1 |] ])
       (Interp.run v [ Value.VArr [| 4; 2; 9; 1 |] ]))

let test_for_to_while_structure () =
  let rng = Rng.create 5 in
  let m = parse "method f(int n) : int { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }" in
  (* try until the 0.6-probability rewrite fires *)
  let rec attempt k =
    if k = 0 then Alcotest.fail "for->while never fired"
    else
      let v = Mutate.for_to_while (Rng.split rng) m in
      let has_while =
        List.exists
          (fun (s : Ast.stmt) -> match s.Ast.node with Ast.While _ -> true | _ -> false)
          v.Ast.body
      in
      if has_while then
        Alcotest.(check bool) "same behaviour" true
          (outcomes_equal (Interp.run m [ Value.VInt 5 ]) (Interp.run v [ Value.VInt 5 ]))
      else attempt (k - 1)
  in
  attempt 20

let prop_variants_preserve_semantics =
  QCheck.Test.make ~name:"mutation variants preserve semantics" ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, arg_seed) ->
      let rng = Rng.create (seed + 1) in
      let m = parse sort3_src in
      let v = Mutate.variant rng m in
      let arng = Rng.create (arg_seed + 1) in
      let n = Rng.int arng 6 in
      let a = Array.init n (fun _ -> Rng.int_range arng (-9) 9) in
      outcomes_equal
        (Interp.run m [ Value.VArr (Array.copy a) ])
        (Interp.run v [ Value.VArr (Array.copy a) ]))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_variants_preserve_semantics ]

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "line numbers" `Quick test_lexer_lines;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "block comments" `Quick test_lexer_block_comment;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip sortI" `Quick (test_parse_roundtrip sort1_src);
          Alcotest.test_case "roundtrip sortIII" `Quick (test_parse_roundtrip sort3_src);
          Alcotest.test_case "roundtrip rotation" `Quick (test_parse_roundtrip rotation_src);
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "compound sugar" `Quick test_parse_compound_sugar;
          Alcotest.test_case "else-if" `Quick test_parse_else_if;
          Alcotest.test_case "record/array literals" `Quick test_parse_record_and_array_lit;
          Alcotest.test_case "negative literal folds" `Quick test_parse_negative_literal;
          Alcotest.test_case "negative literal roundtrip" `Quick
            test_negative_literal_roundtrip;
          Alcotest.test_case "error line" `Quick test_parse_error_reports_line;
          Alcotest.test_case "unique sids" `Quick test_unique_sids;
          Alcotest.test_case "multiple methods" `Quick test_methods_of_string;
        ] );
      ( "interp",
        [
          Alcotest.test_case "paper sorts agree" `Quick test_sorts_agree;
          Alcotest.test_case "sorts on random inputs" `Quick test_sort_on_random_inputs;
          Alcotest.test_case "string rotation (fig 4)" `Quick test_string_rotation;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_crashes;
          Alcotest.test_case "index out of bounds" `Quick test_index_out_of_bounds_crashes;
          Alcotest.test_case "infinite loop timeout" `Quick test_infinite_loop_times_out;
          Alcotest.test_case "missing return" `Quick test_missing_return_crashes;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "builtins" `Quick test_builtins;
          Alcotest.test_case "objects" `Quick test_objects_and_fields;
          Alcotest.test_case "argument isolation" `Quick test_argument_isolation;
          Alcotest.test_case "trace steps/states" `Quick test_trace_steps_and_states;
          Alcotest.test_case "branch outcomes" `Quick test_trace_branch_outcomes;
          Alcotest.test_case "snapshot immunity" `Quick test_state_snapshot_immune_to_mutation;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "unobserved run copies nothing" `Quick
            test_unobserved_run_copies_nothing;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts paper programs" `Quick test_typecheck_accepts_paper_programs;
          Alcotest.test_case "rejections" `Quick test_typecheck_rejections;
          Alcotest.test_case "string concat" `Quick test_typecheck_string_concat_ok;
          Alcotest.test_case "expr error branches" `Quick
            test_typecheck_expr_error_branches;
          Alcotest.test_case "stmt error branches" `Quick
            test_typecheck_stmt_error_branches;
        ] );
      ( "subtoken",
        [
          Alcotest.test_case "split" `Quick test_subtoken_split;
          Alcotest.test_case "join" `Quick test_subtoken_join;
          Alcotest.test_case "overlap" `Quick test_subtoken_overlap;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "variants preserve sorts" `Quick test_mutation_preserves_sorts;
          Alcotest.test_case "uninformative rename" `Quick test_rename_uninformative;
          Alcotest.test_case "for->while" `Quick test_for_to_while_structure;
          Alcotest.test_case "rename letters" `Quick test_rename_letters;
        ] );
      ("qcheck", qcheck_cases);
    ]
