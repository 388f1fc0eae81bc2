(* Tests for bounded symbolic execution, the branch-distance solver and the
   feedback-directed test generator.  The key end-to-end invariant: inputs
   solved from a symbolic path, when run concretely, follow exactly that
   path's signature. *)

open Liger_lang
open Liger_trace
open Liger_symexec
open Liger_testgen
open Liger_tensor

let parse = Parser.method_of_string

let classify_src =
  {|
method classifySign(int x) : int {
  if (x < 0) {
    return 0 - 1;
  }
  if (x == 0) {
    return 0;
  }
  return 1;
}
|}

let sum_src =
  {|
method sumTo(int n) : int {
  int s = 0;
  for (int i = 1; i <= n; i++) {
    s += i;
  }
  return s;
}
|}

let max_src =
  {|
method findMax(int[] a) : int {
  int best = a[0];
  for (int i = 1; i < a.length; i++) {
    if (a[i] > best) {
      best = a[i];
    }
  }
  return best;
}
|}

(* ------------------------------------------------------------------ *)
(* Symval                                                              *)
(* ------------------------------------------------------------------ *)

let vint n = Symval.Const (Value.VInt n)

let test_constant_folding () =
  let e = Symval.binop Ast.Add (vint 2) (vint 3) in
  Alcotest.(check bool) "folds" true (e = vint 5);
  let e = Symval.binop Ast.Add (Symval.Input "x") (vint 0) in
  Alcotest.(check bool) "x+0 = x" true (e = Symval.Input "x");
  let e = Symval.unop Ast.Not (Symval.unop Ast.Not (Symval.Input "b")) in
  Alcotest.(check bool) "double negation" true (e = Symval.Input "b")

let test_fold_preserves_division_crash () =
  (* division by zero must not be folded away into a bogus constant *)
  let e = Symval.binop Ast.Div (vint 1) (vint 0) in
  Alcotest.(check bool) "not folded" true (not (Symval.is_const e))

let test_eval_model () =
  let e = Symval.binop Ast.Mul (Symval.Input "x") (vint 3) in
  Alcotest.(check bool) "eval" true
    (Value.equal (Value.VInt 21) (Symval.eval [ ("x", Value.VInt 7) ] e))

let test_inputs_collection () =
  let e =
    Symval.binop Ast.Add (Symval.Input "a")
      (Symval.binop Ast.Mul (Symval.Input "b") (Symval.Input "a"))
  in
  Alcotest.(check (list string)) "inputs" [ "a"; "b" ]
    (List.sort compare (Symval.inputs [] e))

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let solve_simple pc vars =
  let rng = Rng.create 77 in
  Solver.solve rng ~vars pc

let test_solver_simple_ineq () =
  (* x > 10 && x < 13 *)
  let pc =
    [ Symval.Binop (Ast.Gt, Symval.Input "x", vint 10);
      Symval.Binop (Ast.Lt, Symval.Input "x", vint 13) ]
  in
  match solve_simple pc [ ("x", Ast.Tint) ] with
  | Some [ ("x", Value.VInt v) ] -> Alcotest.(check bool) "in range" true (v > 10 && v < 13)
  | _ -> Alcotest.fail "no solution found"

let test_solver_equality () =
  let pc = [ Symval.Binop (Ast.Eq, Symval.Input "x", vint 23) ] in
  match solve_simple pc [ ("x", Ast.Tint) ] with
  | Some [ ("x", Value.VInt 23) ] -> ()
  | _ -> Alcotest.fail "x = 23 not found"

let test_solver_two_vars () =
  (* x + y == 10 && x - y == 4  =>  x=7, y=3 *)
  let sum = Symval.Binop (Ast.Add, Symval.Input "x", Symval.Input "y") in
  let diff = Symval.Binop (Ast.Sub, Symval.Input "x", Symval.Input "y") in
  let pc = [ Symval.Binop (Ast.Eq, sum, vint 10); Symval.Binop (Ast.Eq, diff, vint 4) ] in
  match solve_simple pc [ ("x", Ast.Tint); ("y", Ast.Tint) ] with
  | Some model ->
      Alcotest.(check bool) "solves system" true (Path.holds model pc)
  | None -> Alcotest.fail "no solution found"

let test_solver_bool_var () =
  let pc = [ Symval.Unop (Ast.Not, Symval.Input "b") ] in
  match solve_simple pc [ ("b", Ast.Tbool) ] with
  | Some [ ("b", Value.VBool false) ] -> ()
  | _ -> Alcotest.fail "b = false not found"

let test_solver_unsat_returns_none () =
  let pc =
    [ Symval.Binop (Ast.Gt, Symval.Input "x", vint 5);
      Symval.Binop (Ast.Lt, Symval.Input "x", vint 5) ]
  in
  Alcotest.(check bool) "unsat" true (solve_simple pc [ ("x", Ast.Tint) ] = None)

let test_solver_disjunction () =
  let pc =
    [ Symval.Binop
        (Ast.Or,
         Symval.Binop (Ast.Eq, Symval.Input "x", vint (-7)),
         Symval.Binop (Ast.Eq, Symval.Input "x", vint 9)) ]
  in
  match solve_simple pc [ ("x", Ast.Tint) ] with
  | Some model -> Alcotest.(check bool) "holds" true (Path.holds model pc)
  | None -> Alcotest.fail "no solution for disjunction"

(* The compiled scorer against branch distances worked out by hand.  Each
   list of models is scored in turn, a one-variable change incrementally. *)

let check_scores name ~vars pc models expected =
  Alcotest.(check (list (float 0.0))) name expected (Solver.scores ~vars pc models);
  (* scored from scratch, each model alone must agree *)
  Alcotest.(check (list (float 0.0)))
    (name ^ " (from scratch)") expected
    (List.concat_map (fun m -> Solver.scores ~vars pc [ m ]) models)

let x_ = Symval.Input "x"
let y_ = Symval.Input "y"
let xi n = [ ("x", Value.VInt n) ]

let test_score_division_by_zero () =
  let ten_over_x = Symval.Binop (Ast.Div, vint 10, x_) in
  check_scores "10 / x > 0" ~vars:[ ("x", Ast.Tint) ]
    [ Symval.Binop (Ast.Gt, ten_over_x, vint 0) ]
    [ xi 0; xi 5; xi (-5) ]
    [ Solver.big_penalty; 0.0; 3.0 ];
  (* the penalty stays inside its leaf: the other conjunct still counts *)
  check_scores "x > 0 && 10 % x == 2" ~vars:[ ("x", Ast.Tint) ]
    [ Symval.Binop
        (Ast.And,
         Symval.Binop (Ast.Gt, x_, vint 0),
         Symval.Binop (Ast.Eq, Symval.Binop (Ast.Mod, vint 10, x_), vint 2)) ]
    [ xi 0; xi 4; xi 3 ]
    [ Solver.big_penalty +. 1.0; 0.0; 1.0 ]

let test_score_bool_equality () =
  let b = Symval.Input "b" and c = Symval.Input "c" in
  let vars = [ ("b", Ast.Tbool); ("c", Ast.Tbool) ] in
  let bc vb vc = [ ("b", Value.VBool vb); ("c", Value.VBool vc) ] in
  let models = [ bc true false; bc true true; bc false true; bc false false ] in
  check_scores "b == c" ~vars [ Symval.Binop (Ast.Eq, b, c) ] models [ 1.0; 0.0; 1.0; 0.0 ];
  check_scores "b != c" ~vars [ Symval.Binop (Ast.Ne, b, c) ] models [ 0.0; 1.0; 0.0; 1.0 ];
  check_scores "!(b == c)" ~vars
    [ Symval.Unop (Ast.Not, Symval.Binop (Ast.Eq, b, c)) ]
    models [ 0.0; 1.0; 0.0; 1.0 ];
  check_scores "b == true" ~vars
    [ Symval.Binop (Ast.Eq, b, Symval.Const (Value.VBool true)) ]
    models [ 0.0; 0.0; 1.0; 1.0 ]

let test_score_nested_want () =
  (* !(x < 3 && (!(y == 5) || x > 10)): want flips to false under the outer
     Not, so the And scores min and the Or scores a sum, and the inner Not
     flips want back to true for y == 5 *)
  let pc =
    [ Symval.Unop
        (Ast.Not,
         Symval.Binop
           (Ast.And,
            Symval.Binop (Ast.Lt, x_, vint 3),
            Symval.Binop
              (Ast.Or,
               Symval.Unop (Ast.Not, Symval.Binop (Ast.Eq, y_, vint 5)),
               Symval.Binop (Ast.Gt, x_, vint 10)))) ]
  in
  let xy x y = [ ("x", Value.VInt x); ("y", Value.VInt y) ] in
  (* x=1,y=2: min(3-1, |2-5| + 0) = 2;  x=2,y=2: min(1, 3) = 1;
     x=2,y=9: min(1, 4) = 1;  x=2,y=5: min(1, 0) = 0;  x=12,y=5: min(0, 2) = 0 *)
  check_scores "nested" ~vars:[ ("x", Ast.Tint); ("y", Ast.Tint) ] pc
    [ xy 1 2; xy 2 2; xy 2 9; xy 2 5; xy 12 5 ]
    [ 2.0; 1.0; 1.0; 0.0; 0.0 ]

let test_score_bool_flip () =
  (* (b || x > 5) && x < 3, flipping b with x fixed at 0 *)
  let pc =
    [ Symval.Binop (Ast.Or, Symval.Input "b", Symval.Binop (Ast.Gt, x_, vint 5));
      Symval.Binop (Ast.Lt, x_, vint 3) ]
  in
  let bx b x = [ ("b", Value.VBool b); ("x", Value.VInt x) ] in
  check_scores "flip b" ~vars:[ ("b", Ast.Tbool); ("x", Ast.Tint) ] pc
    [ bx false 0; bx true 0; bx false 0; bx false 4 ]
    [ 1.0; 0.0; 1.0; 3.0 ]

(* The OCaml search scores in floats only: an [Ints] or a [Table] problem
   is the C loop's, and [Solver.search] refuses it before drawing. *)
let test_search_floats_only () =
  let vars = [ ("x", Ast.Tint); ("y", Ast.Tint) ] in
  List.iter
    (fun pc ->
      let rng = Rng.create 1 and fresh = Rng.create 1 in
      Alcotest.check_raises "not floats" (Invalid_argument "Solver.search: not a Floats problem")
        (fun () -> ignore (Solver.search rng (Solver.compile_problem vars pc) (Array.make 3 0)));
      Alcotest.(check int64) "no draw" (Rng.next fresh) (Rng.next rng))
    [ [ Symval.Binop (Ast.Lt, x_, y_) ]; [ Symval.Binop (Ast.Gt, x_, vint 3) ] ]

(* An exception from a table fill leaves the C search: the generator has
   made the start model's three draws and no more, and the one lookup is
   counted, as in a float search whose first scoring raised. *)
let test_table_fill_raises () =
  let vars = [ ("u", Ast.Tint); ("x", Ast.Tint); ("f", Ast.Tbool) ] in
  let p =
    Solver.compile_problem vars [ Symval.Binop (Ast.Gt, x_, vint 3) ]
  in
  let rng = Rng.create 5 and expected = Rng.create 5 in
  for _ = 1 to 3 do ignore (Rng.next expected) done;
  Alcotest.check_raises "the fill's exception" Exit (fun () ->
      ignore (Solver.search_table rng Ast.Tbool p (Array.make 4 0) (fun _ _ -> raise Exit)));
  Alcotest.(check int64) "next draw" (Rng.next expected) (Rng.next rng);
  Alcotest.(check (pair int int)) "evals, computed" (1, 1) (p.Solver.evals, p.Solver.computed)

(* ------------------------------------------------------------------ *)
(* Path                                                                *)
(* ------------------------------------------------------------------ *)

let test_path_add_prunes () =
  let t = Symval.Const (Value.VBool true) and f = Symval.Const (Value.VBool false) in
  Alcotest.(check bool) "true dropped" true (Path.add t Path.empty = Some []);
  Alcotest.(check bool) "false infeasible" true (Path.add f Path.empty = None);
  match Path.add (Symval.Input "b") Path.empty with
  | Some pc -> Alcotest.(check int) "kept" 1 (Path.length pc)
  | None -> Alcotest.fail "symbolic constraint dropped"

(* ------------------------------------------------------------------ *)
(* Symexec                                                             *)
(* ------------------------------------------------------------------ *)

let test_explores_all_scalar_paths () =
  let m = parse classify_src in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results = Symexec.explore m ~shape in
  let returned =
    List.filter (fun r -> match r.Symexec.outcome with Symexec.Sym_returned _ -> true | _ -> false)
      results
  in
  Alcotest.(check int) "three paths" 3 (List.length returned)

let test_loop_paths_bounded () =
  let m = parse sum_src in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results = Symexec.explore ~config:{ Symexec.max_paths = 16; max_steps = 200 } m ~shape in
  Alcotest.(check bool) "several unrollings" true (List.length results > 3);
  Alcotest.(check bool) "bounded" true (List.length results <= 40)

let test_symbolic_array_cells_fork () =
  let m = parse max_src in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results = Symexec.explore m ~shape in
  let returned =
    List.filter (fun r -> match r.Symexec.outcome with Symexec.Sym_returned _ -> true | _ -> false)
      results
  in
  (* arrays are 4 cells, so the loop runs i = 1, 2, 3 with a concrete
     bound, and each pass forks on a[i] > best: 2^3 = 8 paths *)
  Alcotest.(check int) "eight data paths" 8 (List.length returned)

let test_concretized_inputs_replay_signature () =
  (* THE invariant: solving a symbolic path and running the concrete
     interpreter on the solution reproduces that path's signature. *)
  let rng = Rng.create 31 in
  List.iter
    (fun src ->
      let m = parse src in
      let shape = Symexec.shape_of_params m.Ast.params in
      let results = Symexec.explore m ~shape in
      let checked = ref 0 in
      List.iter
        (fun r ->
          match r.Symexec.outcome with
          | Symexec.Sym_returned _ -> (
              match Symexec.concretize rng m ~shape r with
              | Some args ->
                  let tr = Exec_trace.collect m args in
                  Alcotest.(check bool)
                    (Printf.sprintf "signature replayed (%s)" m.Ast.mname)
                    true
                    (Exec_trace.path_signature tr = r.Symexec.signature);
                  incr checked
              | None -> ())
          | _ -> ())
        results;
      Alcotest.(check bool) "at least one path solved" true (!checked > 0))
    [ classify_src; max_src; sum_src ]

let test_generate_inputs_cover_paths () =
  let rng = Rng.create 41 in
  let m = parse classify_src in
  let inputs = Symexec.generate_inputs rng m in
  let paths =
    inputs
    |> List.map (fun args -> Exec_trace.path_signature (Exec_trace.collect m args))
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all three paths covered" 3 (List.length paths)

let test_abort_on_symbolic_index () =
  let m = parse "method f(int[] a, int i) : int { return a[i]; }" in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results = Symexec.explore m ~shape in
  Alcotest.(check bool) "aborted" true
    (List.for_all
       (fun r -> match r.Symexec.outcome with Symexec.Sym_aborted _ -> true | _ -> false)
       results)

(* Regressions found by the `liger fuzz` symexec oracle: the engine used to
   keep crashing constant subexpressions as residual symbolic nodes (so a
   path could "return" through 5/0), and it put no constraint on symbolic
   divisors, so a solved model could pick a divisor of zero and the concrete
   replay crashed where the symbolic path returned. *)

let test_constant_division_by_zero_aborts () =
  let m = parse "method f(int x) : int { int z = 5 / 0; return z; }" in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results = Symexec.explore m ~shape in
  Alcotest.(check bool) "aborted with division by zero" true
    (List.for_all
       (fun r ->
         match r.Symexec.outcome with
         | Symexec.Sym_aborted "division by zero" -> true
         | _ -> false)
       results);
  let rng = Rng.create 11 in
  Alcotest.(check bool) "no directed inputs" true (Symexec.generate_inputs rng m = [])

let test_symbolic_divisor_constrained () =
  (* x - x is not folded symbolically, so the divisor stays symbolic; the
     path condition must rule the zero divisor out, leaving nothing to solve *)
  let m = parse "method f(int x) : int { int y = 10 / (x - x); return y; }" in
  let rng = Rng.create 11 in
  Alcotest.(check bool) "no directed inputs" true (Symexec.generate_inputs rng m = []);
  (* a satisfiable divisor: every solved input must replay without crashing *)
  let m = parse "method g(int x) : int { return 10 / x; }" in
  let inputs = Symexec.generate_inputs (Rng.create 3) m in
  Alcotest.(check bool) "some inputs" true (inputs <> []);
  List.iter
    (fun args ->
      match Interp.run m args with
      | Interp.Returned _ -> ()
      | Interp.Crashed msg -> Alcotest.failf "directed input crashed: %s" msg
      | Interp.Timeout -> Alcotest.fail "directed input timed out")
    inputs

let test_short_circuit_matches_interp () =
  (* && / || short-circuit on a constant left operand exactly like the
     interpreter: the false-left conjunction never evaluates the crashing
     right operand, while the true-left disjunction's right crash aborts *)
  let m = parse "method f(int x) : bool { return false && (1 / 0 > 0); }" in
  let shape = Symexec.shape_of_params m.Ast.params in
  (match Symexec.explore m ~shape with
  | [ { Symexec.outcome = Symexec.Sym_returned (Symval.Const (Value.VBool false)); _ } ] -> ()
  | rs -> Alcotest.failf "expected one false path, got %d" (List.length rs));
  let m = parse "method g(int x) : bool { return (1 / 0 > 0) || true; }" in
  let shape = Symexec.shape_of_params m.Ast.params in
  match Symexec.explore m ~shape with
  | [ { Symexec.outcome = Symexec.Sym_aborted "division by zero"; _ } ] -> ()
  | rs -> Alcotest.failf "expected one aborted path, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation assisted exploration                        *)
(* ------------------------------------------------------------------ *)

(* Run [f] with metrics on and a clean symexec namespace; returns (result,
   snapshot). *)
let with_symexec_metrics f =
  Liger_obs.Metrics.enable ();
  Liger_obs.Metrics.reset_prefix "symexec.";
  let r = f () in
  let snap = Liger_obs.Metrics.snapshot () in
  Liger_obs.Metrics.disable ();
  (r, snap)

let test_absint_prunes_infeasible_paths () =
  (* the early return refines x >= 0 on the fall-through, so the second
     guard is provably false: symexec never forks its then-arm *)
  let m =
    parse
      "method f(int x) : int { int y = 0; if (x < 0) { return 0; } if (x < -5) { y = 1; } \
       return y; }"
  in
  let shape = Symexec.shape_of_params m.Ast.params in
  let results, snap = with_symexec_metrics (fun () -> Symexec.explore m ~shape) in
  let returned =
    List.filter
      (fun r -> match r.Symexec.outcome with Symexec.Sym_returned _ -> true | _ -> false)
      results
  in
  Alcotest.(check int) "two live paths" 2 (List.length returned);
  Alcotest.(check bool) "pruned counter bumped" true
    (Liger_obs.Metrics.counter_value snap "symexec.paths_pruned_by_absint" > 0)

let test_absint_discharges_divisor_side_conditions () =
  (* the guard proves x >= 1 inside the then-arm, so the divisor's != 0
     side condition is discharged statically instead of burdening the
     path condition *)
  let m = parse "method f(int x) : int { if (x > 0) { return 10 / x; } return 0; }" in
  let shape = Symexec.shape_of_params m.Ast.params in
  let _, snap = with_symexec_metrics (fun () -> Symexec.explore m ~shape) in
  Alcotest.(check bool) "discharge counter bumped" true
    (Liger_obs.Metrics.counter_value snap "symexec.side_conditions_discharged" > 0);
  (* both arms still explored and solvable *)
  let inputs = Symexec.generate_inputs (Rng.create 7) m in
  Alcotest.(check bool) "inputs for both paths" true (List.length inputs >= 2);
  List.iter
    (fun args ->
      match Interp.run m args with
      | Interp.Returned _ -> ()
      | Interp.Crashed msg -> Alcotest.failf "directed input crashed: %s" msg
      | Interp.Timeout -> Alcotest.fail "directed input timed out")
    inputs

(* ------------------------------------------------------------------ *)
(* Feedback generation                                                 *)
(* ------------------------------------------------------------------ *)

let test_feedback_covers_and_fills () =
  let rng = Rng.create 51 in
  let m = parse classify_src in
  let r = Feedback.generate ~budget:{ Feedback.default_budget with target_paths = 3 } rng m in
  Alcotest.(check bool) "not gave up" false r.Feedback.gave_up;
  let bs = Feedback.blended m r in
  Alcotest.(check int) "three paths" 3 (List.length bs);
  List.iter
    (fun b ->
      Alcotest.(check bool) "several concrete per path" true (b.Blended.n_concrete >= 2))
    bs

let test_feedback_sorting_method () =
  let rng = Rng.create 52 in
  let m =
    parse
      {|
method sortIt(int[] A) : int[] {
  for (int i = 0; i < A.length; i++) {
    for (int j = 0; j < A.length - 1; j++) {
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
  in
  let r = Feedback.generate rng m in
  let bs = Feedback.blended m r in
  Alcotest.(check bool) "many distinct paths" true (List.length bs >= 5)

let test_feedback_gives_up_on_hopeless () =
  let rng = Rng.create 53 in
  (* crashes on every input *)
  let m = parse "method f(int x) : int { int z = 0; return x / z; }" in
  let r =
    Feedback.generate ~budget:{ Feedback.default_budget with max_attempts = 50 } rng m
  in
  Alcotest.(check bool) "gave up" true r.Feedback.gave_up;
  Alcotest.(check bool) "recorded crashes" true (r.Feedback.n_crashes > 0)

let test_feedback_deterministic () =
  let m = parse classify_src in
  let run seed =
    let r = Feedback.generate (Rng.create seed) m in
    List.map (fun t -> t.Exec_trace.input) r.Feedback.traces
  in
  Alcotest.(check bool) "same seed same traces" true (run 7 = run 7);
  Alcotest.(check int) "attempts equal" (Feedback.generate (Rng.create 7) m).Feedback.n_attempts
    (Feedback.generate (Rng.create 7) m).Feedback.n_attempts

(* A method of one bool has two distinct inputs: however many attempts
   the budget allows, the interpreter runs at most twice.  400 attempts
   and 10 kept traces are what running every input gave. *)
let test_feedback_runs_each_input_once () =
  let m = parse "method pick(bool b) : int { if (b) { return 1; } return 0; }" in
  let r = Feedback.generate (Rng.create 11) m in
  Alcotest.(check bool) "at most 2 executions" true (r.Feedback.n_executions <= 2);
  Alcotest.(check int) "attempts" 400 r.Feedback.n_attempts;
  Alcotest.(check int) "kept traces" 10 (List.length r.Feedback.traces)

(* ------------------------------------------------------------------ *)
(* Pinned output                                                       *)
(* ------------------------------------------------------------------ *)

(* The solver's results feed the whole corpus, so any change to its RNG
   draws or to the bits of its scores shows up here.  The digest covers the
   directed inputs of [Symexec.generate_inputs] and the traces of
   [Feedback.generate] over a fixed Javagen set with fixed seeds; a solver
   rewrite must leave it unchanged.  The set (39 well-typed methods, about
   600 solves of which a few fail and so run the whole restart budget) is
   sized to run in well under 2 s. *)
let pinned_methods () =
  Liger_dataset.Javagen.generate (Rng.create 6) ~n:40
  |> List.map (fun (it : Liger_dataset.Javagen.item) ->
         it.Liger_dataset.Javagen.candidate.Filter.meth)
  |> List.filter Typecheck.is_well_typed

let pinned_transcript () =
  let buf = Buffer.create 65536 in
  let values vs = String.concat "," (List.map Value.to_display vs) in
  List.iteri
    (fun i m ->
      Printf.bprintf buf "%s\n" m.Ast.mname;
      let base = ref max_int in
      Ast.iter_stmts (fun st -> base := min !base st.Ast.sid) m.Ast.body;
      let base = !base in
      Symexec.generate_inputs (Rng.create (1000 + i)) m
      |> List.iter (fun args -> Printf.bprintf buf " in %s\n" (values args));
      let r = Feedback.generate (Rng.create (2000 + i)) m in
      Printf.bprintf buf " attempts=%d crashes=%d timeouts=%d gave_up=%b\n"
        r.Feedback.n_attempts r.Feedback.n_crashes r.Feedback.n_timeouts r.Feedback.gave_up;
      List.iter
        (fun (t : Exec_trace.t) ->
          let outcome =
            match t.Exec_trace.outcome with
            | Interp.Returned v -> Value.to_display v
            | Interp.Timeout -> "timeout"
            | Interp.Crashed msg -> "crash " ^ msg
          in
          (* statement ids come from a process-wide counter: print them
             relative to the method's first id so the digest does not
             depend on what was parsed before *)
          let path =
            List.map
              (fun (sid, branch) ->
                Printf.sprintf "%d%s" (sid - base)
                  (match branch with None -> "" | Some b -> if b then "t" else "f"))
              (Exec_trace.path_signature t)
          in
          Printf.bprintf buf " tr %s -> %s steps=%d path=%s lines=%s\n"
            (values t.Exec_trace.input) outcome t.Exec_trace.n_steps (String.concat "," path)
            (String.concat "," (List.map string_of_int t.Exec_trace.lines)))
        r.Feedback.traces)
    (pinned_methods ());
  Buffer.contents buf

let test_pinned_digest () =
  Alcotest.(check string) "generate_inputs + Feedback traces digest"
    "85b42480ba87e641debf77e85992f3fc"
    (Digest.to_hex (Digest.string (pinned_transcript ())))

(* Javagen methods rarely take booleans, so the digest above barely sees
   boolean moves.  These conditions mix boolean and integer inputs, with
   ties on boolean flips (a disjunct already true), a division that can
   fail and one unsatisfiable condition that runs the whole budget. *)
let pinned_conditions =
  let b = Symval.Input "b" and c = Symval.Input "c" and d = Symval.Input "d" in
  let bin op l r = Symval.Binop (op, l, r) and not_ e = Symval.Unop (Ast.Not, e) in
  let bools = List.map (fun v -> (v, Ast.Tbool)) in
  [ ([ ("b", Ast.Tbool); ("x", Ast.Tint); ("y", Ast.Tint) ],
     [ bin Ast.Or b (bin Ast.Gt x_ (vint 30)); bin Ast.Eq (bin Ast.Add x_ y_) (vint 40) ]);
    (bools [ "b"; "c" ] @ [ ("x", Ast.Tint) ], [ bin Ast.Or b c; bin Ast.Eq x_ (vint 17) ]);
    (bools [ "b"; "c"; "d" ] @ [ ("x", Ast.Tint) ],
     [ bin Ast.Eq b c; bin Ast.Ne b d; bin Ast.Lt x_ (vint (-20)) ]);
    ([ ("b", Ast.Tbool); ("x", Ast.Tint) ],
     [ not_ (bin Ast.And b (bin Ast.Gt x_ (vint 0))); bin Ast.Eq (bin Ast.Mod x_ (vint 7)) (vint 3) ]);
    ([ ("b", Ast.Tbool); ("x", Ast.Tint); ("y", Ast.Tint) ],
     [ bin Ast.Or
         (bin Ast.And b (bin Ast.Eq x_ y_))
         (bin Ast.And (not_ b) (bin Ast.Eq x_ (Symval.Unop (Ast.Neg, y_))));
       bin Ast.Gt y_ (vint 10) ]);
    ([ ("x", Ast.Tint) ], [ bin Ast.Eq (bin Ast.Div (vint 100) x_) (vint 9) ]);
    ([ ("b", Ast.Tbool); ("x", Ast.Tint) ], [ b; not_ b; bin Ast.Gt x_ (vint 0) ]) ]

let test_pinned_solver_models () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (vars, pc) ->
      for seed = 0 to 19 do
        match Solver.solve (Rng.create seed) ~vars pc with
        | None -> Buffer.add_string buf "none\n"
        | Some model ->
            List.iter
              (fun (x, v) -> Printf.bprintf buf "%s=%s " x (Value.to_display v))
              model;
            Buffer.add_char buf '\n'
      done)
    pinned_conditions;
  Alcotest.(check string) "solver models digest" "a09ed9ae3bdf529a9c26be5256d9af61"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Conditions that read exactly one bound input: an int or a bool, alone or
   beside inputs the condition never reads (an array's other cells, a
   bool).  Satisfiable and unsatisfiable ones (the latter run the whole
   budget), a divisor that can be zero, bounds at the domain's edges, an
   unbound input and a long chain of constraints on one value. *)
let single_input_conditions =
  let b = Symval.Input "b" and a2 = Symval.Input "a_2" in
  let bin op l r = Symval.Binop (op, l, r) and not_ e = Symval.Unop (Ast.Not, e) in
  let x_int = [ ("x", Ast.Tint) ] in
  let cells = List.init 4 (fun i -> (Printf.sprintf "a_%d" i, Ast.Tint)) in
  (* a Collatz-style chain: each constraint steps the value it reads *)
  let chain =
    List.init 12 (fun k ->
        let step = bin Ast.Add (bin Ast.Mul x_ (vint (k + 3))) (vint 1) in
        bin Ast.Ne (bin Ast.Mod step (vint (k + 5))) (vint 0))
  in
  [ (x_int, [ bin Ast.Gt x_ (vint 10); bin Ast.Eq (bin Ast.Mod x_ (vint 3)) (vint 2) ]);
    (x_int, [ bin Ast.Eq (bin Ast.Mul x_ x_) (vint 50) ]);
    (x_int, [ bin Ast.Eq (bin Ast.Div (vint 100) (bin Ast.Sub x_ (vint 4))) (vint 9) ]);
    (x_int, [ bin Ast.Eq (bin Ast.Div (vint 7) x_) (vint 100) ]);
    (x_int, [ bin Ast.Ge x_ (vint 32) ]);
    (x_int, [ bin Ast.Le x_ (vint (-32)) ]);
    (x_int, [ bin Ast.Gt x_ (vint 32) ]);
    (x_int, [ bin Ast.Gt x_ (vint 3); bin Ast.Eq (Symval.Input "z") (vint 1) ]);
    (x_int, chain);
    (x_int, chain @ [ bin Ast.Lt x_ (vint (-40)) ]);
    ([ ("b", Ast.Tbool) ], [ not_ b ]);
    ([ ("b", Ast.Tbool) ], [ b; not_ b ]);
    ([ ("b", Ast.Tbool); ("x", Ast.Tint) ], [ bin Ast.Or b (bin Ast.Gt (vint 1) (vint 2)) ]);
    ([ ("b", Ast.Tbool); ("x", Ast.Tint) ], [ bin Ast.Eq (bin Ast.Mod x_ (vint 9)) (vint 4) ]);
    (cells, [ bin Ast.Gt a2 (vint 20); bin Ast.Eq (bin Ast.Mod a2 (vint 5)) (vint 1) ]);
    (cells, [ bin Ast.Gt a2 (vint 40) ]) ]

(* Each solve's model and the next RNG draw after it, so a change in how
   many values a failed search draws shows up even though its result is
   [None] either way. *)
let test_pinned_single_input () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (vars, pc) ->
      for seed = 0 to 19 do
        let rng = Rng.create seed in
        (match Solver.solve rng ~vars pc with
        | None -> Buffer.add_string buf "none"
        | Some model ->
            List.iter
              (fun (x, v) -> Printf.bprintf buf "%s=%s " x (Value.to_display v))
              model);
        Printf.bprintf buf " next=%Ld\n" (Rng.next rng)
      done)
    single_input_conditions;
  Alcotest.(check string) "single-input solver digest" "e513f488f5b29ff7eaef6a67d4f44f16"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Conditions over two or more int inputs whose every constraint compares
   two inputs, or an input and a constant, under any number of [Not]s:
   unsatisfiable equality and ordering cycles (the latter run the whole
   budget), satisfiable chains, unread bool and int inputs, constants at
   the domain's edges, a constant at 2^30 and constants beyond 2^30 in
   magnitude. *)
let multi_input_conditions =
  let a = Symval.Input "a" and b = Symval.Input "b" and c = Symval.Input "c"
  and d = Symval.Input "d" in
  let bin op l r = Symval.Binop (op, l, r) and not_ e = Symval.Unop (Ast.Not, e) in
  let ints = List.map (fun v -> (v, Ast.Tint)) in
  let big = (1 lsl 30) + 1 in
  [ (ints [ "a"; "b"; "c"; "d" ],
     [ bin Ast.Eq a b; bin Ast.Eq a c; bin Ast.Eq b c; bin Ast.Eq a d; not_ (bin Ast.Eq b d) ]);
    (ints [ "a"; "b" ], [ bin Ast.Lt a b; bin Ast.Lt b a ]);
    (ints [ "a"; "b"; "c" ], [ bin Ast.Le a b; bin Ast.Le b c; bin Ast.Lt c a ]);
    (ints [ "a"; "b"; "c" ],
     [ bin Ast.Lt a b; bin Ast.Le b c; bin Ast.Ne a c; bin Ast.Gt c (vint 5) ]);
    (ints [ "a"; "b" ],
     [ bin Ast.Eq a b; bin Ast.Ge a (vint 20); not_ (bin Ast.Lt b (vint 25)) ]);
    (ints [ "a"; "b"; "c" ],
     [ bin Ast.Ne a b; not_ (not_ (bin Ast.Ge (vint 3) c)); bin Ast.Gt b c; bin Ast.Eq c (vint (-7)) ]);
    (ints [ "a"; "b" ] @ [ ("f", Ast.Tbool) ], [ bin Ast.Gt a b; bin Ast.Ne b (vint 0) ]);
    ([ ("f", Ast.Tbool) ] @ ints [ "a"; "b" ], [ bin Ast.Eq a b; bin Ast.Lt (vint 30) b ]);
    (ints [ "a"; "b" ], [ bin Ast.Ge a (vint 32); bin Ast.Le b (vint (-32)); bin Ast.Eq a (vint 32) ]);
    (ints [ "a"; "b" ], [ bin Ast.Gt a (vint 32); bin Ast.Lt b (vint (-32)) ]);
    (ints [ "a"; "b" ], [ bin Ast.Lt a b; bin Ast.Gt a (vint big) ]);
    (ints [ "a"; "b" ], [ bin Ast.Lt a b; bin Ast.Gt a (vint (- big)) ]);
    (ints [ "a"; "b"; "c" ], [ bin Ast.Le a b; bin Ast.Le b c; bin Ast.Le c a; bin Ast.Ne a (vint 0) ]);
    (* scored in ints, but every start scores at least 2^30 - 31 >= 1e9,
       so each restart ends without a step *)
    (ints [ "a"; "b" ], [ bin Ast.Lt a b; bin Ast.Gt a (vint (1 lsl 30)) ]);
    (* [u] is read by no constraint: each of its moves ties and draws a coin *)
    (ints [ "a"; "u"; "b" ], [ bin Ast.Lt a b; bin Ast.Lt b a ]);
    (ints [ "u"; "a"; "b" ] @ [ ("f", Ast.Tbool) ], [ bin Ast.Eq a (vint 9); bin Ast.Gt b a ]) ]

(* Each solve's model and the next RNG draw after it, as for the
   single-input conditions above. *)
let test_pinned_multi_input () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (vars, pc) ->
      for seed = 0 to 19 do
        let rng = Rng.create seed in
        (match Solver.solve rng ~vars pc with
        | None -> Buffer.add_string buf "none"
        | Some model ->
            List.iter
              (fun (x, v) -> Printf.bprintf buf "%s=%s " x (Value.to_display v))
              model);
        Printf.bprintf buf " next=%Ld\n" (Rng.next rng)
      done)
    multi_input_conditions;
  Alcotest.(check string) "multi-input solver digest" "65ba30c8da49acc8ca806a1042fd1a33"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The table serves every evaluation after the first at each value: an
   unsatisfiable single-input search computes at most one objective per
   domain value, while a two-input one computes every evaluation. *)
let test_tabulated_evaluation_counts () =
  let counts vars pc =
    let _, snap = with_symexec_metrics (fun () -> Solver.solve (Rng.create 3) ~vars pc) in
    ( Liger_obs.Metrics.counter_value snap "symexec.objective_evals",
      Liger_obs.Metrics.counter_value snap "symexec.objective_computed" )
  in
  let evals, computed =
    counts [ ("x", Ast.Tint) ] [ Symval.Binop (Ast.Eq, Symval.Binop (Ast.Mul, x_, x_), vint 50) ]
  in
  (* 12 restarts, each scoring its start and then 200 steps of 10 moves *)
  Alcotest.(check int) "evaluations requested" (12 * (1 + (200 * 10))) evals;
  Alcotest.(check bool) "at most one computation per value" true (computed <= 65);
  let evals, computed =
    counts [ ("x", Ast.Tint); ("y", Ast.Tint) ]
      [ Symval.Binop (Ast.Eq, Symval.Binop (Ast.Mul, x_, y_), vint 53) ]
  in
  Alcotest.(check int) "two inputs: every evaluation computed" evals computed

(* ------------------------------------------------------------------ *)
(* Filter                                                              *)
(* ------------------------------------------------------------------ *)

let candidate ?(uses_external = false) src =
  { Filter.meth = parse src; uses_external }

let test_filter_reasons () =
  let rng = Rng.create 61 in
  let check_dropped reason c =
    match Filter.classify rng c with
    | Filter.Dropped r -> Alcotest.(check string) "reason" (Filter.reason_to_string reason)
        (Filter.reason_to_string r)
    | Filter.Kept _ -> Alcotest.fail "expected drop"
  in
  check_dropped Filter.No_compile (candidate "method f() : int { return true; }");
  check_dropped Filter.External_deps
    (candidate ~uses_external:true classify_src);
  check_dropped Filter.Too_small (candidate "method f(int x) : int { return x; }");
  (* the abstract interpreter proves z = 0, so the static gate fires before
     test generation ever runs *)
  check_dropped Filter.Div_by_zero
    (candidate "method f(int x) : int { int z = 0; int y = x / z; return y; }");
  (* after the early return, x >= 0 on the fall-through, so the second
     guard is interval-infeasible — beyond constant propagation *)
  check_dropped Filter.Dead_branch
    (candidate
       "method f(int x) : int { int y = 0; if (x < 0) { return 0; } \
        if (x < -5) { y = 1; } return y; }");
  (* z is concretely always zero but x - x is top for intervals: not a
     definite crash statically, so only test generation can give up *)
  check_dropped Filter.Testgen_timeout
    (candidate "method f(int x) : int { int z = x - x; int y = 100 / z; return y; }")

let test_filter_keeps_good () =
  let rng = Rng.create 62 in
  match Filter.classify rng (candidate classify_src) with
  | Filter.Kept r -> Alcotest.(check bool) "has traces" true (r.Feedback.traces <> [])
  | Filter.Dropped r -> Alcotest.failf "dropped: %s" (Filter.reason_to_string r)

let test_filter_stats () =
  let rng = Rng.create 63 in
  let corpus =
    [ candidate classify_src;
      candidate sum_src;
      candidate ~uses_external:true classify_src;
      candidate "method f() : int { return true; }";
      candidate "method f(int x) : int { return x; }" ]
  in
  let kept, stats = Filter.run rng corpus in
  Alcotest.(check int) "original" 5 stats.Filter.original;
  Alcotest.(check int) "filtered" 2 stats.Filter.filtered;
  Alcotest.(check int) "kept list" 2 (List.length kept);
  Alcotest.(check int) "three reasons" 3 (List.length stats.Filter.by_reason)

(* property: generated inputs always typecheck against the signature *)
let prop_randgen_well_typed =
  QCheck.Test.make ~name:"random args match parameter types" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let m = parse max_src in
      let args = Randgen.args rng m in
      List.for_all2
        (fun (t, _) v -> Value.type_of v = t)
        m.Ast.params args)

(* property: whenever the solver claims a model, the model satisfies the
   whole path condition *)
let prop_solver_sound =
  QCheck.Test.make ~name:"solver models satisfy their path conditions" ~count:60
    QCheck.(triple small_int (int_range (-20) 20) (int_range (-20) 20))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let pc =
        [ Symval.Binop (Ast.Ge, Symval.Input "x", vint lo);
          Symval.Binop (Ast.Le, Symval.Input "x", vint hi);
          Symval.Binop
            (Ast.Eq,
             Symval.Binop (Ast.Mod, Symval.Binop (Ast.Add, Symval.Input "x", vint 40), vint 2),
             vint ((lo + 40) mod 2)) ]
      in
      let rng = Rng.create (seed + 1) in
      match Solver.solve rng ~vars:[ ("x", Ast.Tint) ] pc with
      | Some model -> Path.holds model pc
      | None -> true (* incompleteness is allowed; unsoundness is not *))

(* property: explored symbolic paths of the sign classifier all have
   distinct signatures *)
let prop_symexec_distinct_paths =
  QCheck.Test.make ~name:"symbolic paths have distinct signatures" ~count:20
    QCheck.small_int
    (fun _ ->
      let m = parse classify_src in
      let shape = Symexec.shape_of_params m.Ast.params in
      let results = Symexec.explore m ~shape in
      let sigs =
        List.map (fun (r : Symexec.path_result) -> r.Symexec.signature) results
      in
      List.length sigs = List.length (List.sort_uniq compare sigs))

(* One to six comparisons (each under zero to two [Not]s) between int
   inputs a0..a(n-1) and the constants [const] draws *)
let gen_comparisons n const =
  let open QCheck.Gen in
  let input = map (fun i -> Symval.Input (Printf.sprintf "a%d" i)) (int_range 0 (n - 1)) in
  let operand = frequency [ (3, input); (1, map vint const) ] in
  let cmp =
    let* op = oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
    let* a = operand in
    let* b = operand in
    let+ nots = int_range 0 2 in
    let rec wrap k c = if k = 0 then c else wrap (k - 1) (Symval.Unop (Ast.Not, c)) in
    wrap nots (Symval.Binop (op, a, b))
  in
  list_size (int_range 1 6) cmp

let print_search_condition (vars, pc, seed) =
  Printf.sprintf "vars %s; pc %s; seed %d"
    (String.concat "," (List.map fst vars)) (Path.to_string pc) seed

(* A random condition of comparisons (under zero to two [Not]s) between
   int inputs a0..a(n-1), 2 <= n <= 5, some of them never read, and int
   constants, some at the domain's edges or at 2^30 and just past it;
   beside them a bool input [f] no constraint reads.  With a seed. *)
let gen_cmp_condition =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let* pc =
    gen_comparisons n
      (frequency
         [ (4, int_range (-40) 40);
           (1, oneofl [ -32; 32; 1 lsl 30; -(1 lsl 30); (1 lsl 30) + 1; -(1 lsl 30) - 1 ]) ])
  in
  let+ seed = int_range 0 10_000 in
  let vars = List.init n (fun i -> (Printf.sprintf "a%d" i, Ast.Tint)) @ [ ("f", Ast.Tbool) ] in
  (vars, pc, seed)

(* property: a condition of comparisons solves bit for bit as the same
   condition with a trailing [true], which is no comparison and so is
   scored in floats, adding 0.0 last: the same model and the same next
   draw, whether the integer kernel takes the condition or its constants
   lie outside the bound. *)
let prop_int_scoring_bitwise =
  QCheck.Test.make ~name:"comparison-only conditions score as in floats" ~count:300
    (QCheck.make ~print:print_search_condition gen_cmp_condition)
    (fun (vars, pc, seed) ->
      let padded = pc @ [ Symval.Const (Value.VBool true) ] in
      let solve pc =
        let rng = Rng.create seed in
        let model = Solver.solve rng ~vars pc in
        (model, Rng.next rng)
      in
      solve pc = solve padded)

(* A random condition of comparisons (under zero to two [Not]s) between
   int inputs a0..a(n-1), 2 <= n <= 6, and int constants, either within 40
   of 0 or within 40 of +-2^30 on the inside (the integer kernel's bound);
   beside them an int [u] and a bool [f] no constraint reads, placed among
   the inputs.  With a seed. *)
let gen_search_cmp =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* pc =
    gen_comparisons n
      (frequency
         [ (4, int_range (-40) 40);
           (1, map (fun d -> (1 lsl 30) - d) (int_range 0 40));
           (1, map (fun d -> d - (1 lsl 30)) (int_range 0 40)) ])
  in
  let* at = int_range 0 n in
  let+ seed = int_range 0 10_000 in
  let inputs = List.init n (fun i -> (Printf.sprintf "a%d" i, Ast.Tint)) in
  let vars =
    List.filteri (fun i _ -> i < at) inputs
    @ [ ("u", Ast.Tint) ]
    @ List.filteri (fun i _ -> i >= at) inputs
    @ [ ("f", Ast.Tbool) ]
  in
  (vars, pc, seed)

(* A random condition that reads one input: an int [x], through sums,
   products, quotients and remainders whose divisor can be zero, or a
   bool [b]; sometimes beside an int and a bool no constraint reads.
   With a seed. *)
let gen_search_single =
  let open QCheck.Gen in
  let x = Symval.Input "x" and b = Symval.Input "b" in
  let bin op l r = Symval.Binop (op, l, r) in
  let const = map vint (int_range (-12) 12) in
  let term =
    oneof
      [ return x;
        map (fun c -> bin Ast.Add x c) const;
        map (fun c -> bin Ast.Mul x c) const;
        return (bin Ast.Mul x x);
        map (fun c -> bin Ast.Div c x) const;
        map (fun c -> bin Ast.Mod x c) const;
        map (fun c -> bin Ast.Div (bin Ast.Sub x c) (bin Ast.Add x c)) const ]
  in
  let int_cmp =
    let* op = oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
    let* t = term in
    let+ c = const in
    Symval.Binop (op, t, c)
  in
  let int_cond =
    let* c = int_cmp in
    let* d = int_cmp in
    oneofl [ c; Symval.Unop (Ast.Not, c); bin Ast.And c d; bin Ast.Or c d ]
  in
  let bool_cond =
    oneofl
      [ b; Symval.Unop (Ast.Not, b); bin Ast.Eq b (Symval.Const (Value.VBool true));
        bin Ast.Ne b (Symval.Const (Value.VBool true)); bin Ast.Or b (bin Ast.Gt (vint 1) (vint 2));
        bin Ast.And b (Symval.Unop (Ast.Not, b)) ]
  in
  let* on_bool = bool in
  let* pc = list_size (int_range 1 4) (if on_bool then bool_cond else int_cond) in
  let* unread = bool in
  let+ seed = int_range 0 10_000 in
  let read = if on_bool then ("b", Ast.Tbool) else ("x", Ast.Tint) in
  let vars = if unread then [ ("u", Ast.Tint); read; ("f", Ast.Tbool) ] else [ read ] in
  (vars, pc, seed)

(* The search [Solver.solve] runs, in C for the [Ints] and [Table]
   kernels, against the OCaml reference: [Solver.search] over the same
   condition compiled by [Solver.float_problem].  The same outcome and
   final model (solved or not), the same next draw and the same
   evaluation count; [Ints] computes every evaluation, as the reference
   does, and [Table] computes at most one per entry.  [tiny_heap] runs
   both with a minor heap of 256 words, so a table fill's allocation
   collects the young problem, model and table the C search is holding. *)
let search_matches_reference ?(tiny_heap = false) (vars, pc, seed) =
  let run search p =
    let rng = Rng.create seed in
    let model = Array.make (List.length vars + 1) 0 in
    let solved = search rng p model in
    (solved, model, Rng.next rng, p.Solver.evals)
  in
  (* Both problems are compiled inside [both], after any [Gc.set]: resizing
     the minor heap empties it, and a problem compiled before would be
     promoted and never move under the C search. *)
  let both () =
    let p = Solver.compile_problem vars pc in
    (run Solver.search (Solver.float_problem vars pc), run Solver.run_search p, p)
  in
  let reference, got, p =
    if tiny_heap then begin
      let saved = Gc.get () in
      Gc.set { saved with Gc.minor_heap_size = 256 };
      Fun.protect ~finally:(fun () -> Gc.set saved) both
    end
    else both ()
  in
  reference = got
  &&
  match p.Solver.kernel with
  | Solver.Ints _ -> p.Solver.computed = p.Solver.evals
  | Solver.Table { table; _ } -> p.Solver.computed <= Array.length table
  | Solver.Floats _ -> false

let prop_search_cmp =
  QCheck.Test.make ~name:"C search matches the OCaml search: comparisons" ~count:300
    (QCheck.make ~print:print_search_condition gen_search_cmp)
    search_matches_reference

let prop_search_single =
  QCheck.Test.make ~name:"C search matches the OCaml search: one input read" ~count:300
    (QCheck.make ~print:print_search_condition gen_search_single)
    search_matches_reference

let prop_search_tiny_heap =
  QCheck.Test.make ~name:"C search matches the OCaml search: tiny minor heap" ~count:100
    (QCheck.make ~print:print_search_condition
       (QCheck.Gen.oneof [ gen_search_cmp; gen_search_single ]))
    (search_matches_reference ~tiny_heap:true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_randgen_well_typed; prop_solver_sound; prop_symexec_distinct_paths;
      prop_int_scoring_bitwise; prop_search_cmp; prop_search_single; prop_search_tiny_heap ]

let () =
  Alcotest.run "symexec"
    [
      ( "symval",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "division not folded" `Quick test_fold_preserves_division_crash;
          Alcotest.test_case "eval model" `Quick test_eval_model;
          Alcotest.test_case "inputs" `Quick test_inputs_collection;
        ] );
      ( "solver",
        [
          Alcotest.test_case "inequalities" `Quick test_solver_simple_ineq;
          Alcotest.test_case "equality" `Quick test_solver_equality;
          Alcotest.test_case "two variables" `Quick test_solver_two_vars;
          Alcotest.test_case "bool" `Quick test_solver_bool_var;
          Alcotest.test_case "unsat" `Quick test_solver_unsat_returns_none;
          Alcotest.test_case "disjunction" `Quick test_solver_disjunction;
          Alcotest.test_case "score: division by zero" `Quick test_score_division_by_zero;
          Alcotest.test_case "score: bool equality" `Quick test_score_bool_equality;
          Alcotest.test_case "score: nested want" `Quick test_score_nested_want;
          Alcotest.test_case "score: bool flip" `Quick test_score_bool_flip;
          Alcotest.test_case "search takes floats only" `Quick test_search_floats_only;
          Alcotest.test_case "table fill raises" `Quick test_table_fill_raises;
        ] );
      ("path", [ Alcotest.test_case "add prunes" `Quick test_path_add_prunes ]);
      ( "symexec",
        [
          Alcotest.test_case "scalar paths" `Quick test_explores_all_scalar_paths;
          Alcotest.test_case "loop bounded" `Quick test_loop_paths_bounded;
          Alcotest.test_case "array cell forks" `Quick test_symbolic_array_cells_fork;
          Alcotest.test_case "replay signature" `Quick test_concretized_inputs_replay_signature;
          Alcotest.test_case "generate covers" `Quick test_generate_inputs_cover_paths;
          Alcotest.test_case "abort symbolic index" `Quick test_abort_on_symbolic_index;
          Alcotest.test_case "constant div-by-zero aborts" `Quick
            test_constant_division_by_zero_aborts;
          Alcotest.test_case "symbolic divisor constrained" `Quick
            test_symbolic_divisor_constrained;
          Alcotest.test_case "short-circuit matches interp" `Quick
            test_short_circuit_matches_interp;
          Alcotest.test_case "absint prunes infeasible" `Quick
            test_absint_prunes_infeasible_paths;
          Alcotest.test_case "absint discharges divisors" `Quick
            test_absint_discharges_divisor_side_conditions;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "covers and fills" `Quick test_feedback_covers_and_fills;
          Alcotest.test_case "sorting paths" `Quick test_feedback_sorting_method;
          Alcotest.test_case "gives up" `Quick test_feedback_gives_up_on_hopeless;
          Alcotest.test_case "deterministic" `Quick test_feedback_deterministic;
          Alcotest.test_case "runs each input once" `Quick test_feedback_runs_each_input_once;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "output digest" `Quick test_pinned_digest;
          Alcotest.test_case "solver models" `Quick test_pinned_solver_models;
          Alcotest.test_case "single-input solves" `Quick test_pinned_single_input;
          Alcotest.test_case "multi-input solves" `Quick test_pinned_multi_input;
          Alcotest.test_case "tabulated evaluation counts" `Quick
            test_tabulated_evaluation_counts;
        ] );
      ( "filter",
        [
          Alcotest.test_case "reasons" `Quick test_filter_reasons;
          Alcotest.test_case "keeps good" `Quick test_filter_keeps_good;
          Alcotest.test_case "stats" `Quick test_filter_stats;
        ] );
      ("qcheck", qcheck_cases);
    ]
