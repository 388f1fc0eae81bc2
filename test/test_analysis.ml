(* Tests for the dataflow analysis layer: CFG construction, the generic
   fixpoint solver exercised through its concrete passes (reaching
   definitions, liveness, constant propagation/folding, unreachable code),
   the lint gate and its Filter integration, and the return-value slicer
   with its differential guarantee over the encoding pipeline. *)

open Liger_lang
open Liger_tensor
open Liger_analysis
open Liger_testgen
open Liger_dataset

let parse = Parser.method_of_string

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The paper's own programs (same transcription as test_lang.ml). *)
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

(* An array scan with a bookkeeping variable (`calls`) that feeds neither the
   return value nor any branch: exactly what the slicer should prune. *)
let find_max_noise_src =
  {|
method findMaxNoise(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = a[0];
  int calls = 0;
  for (int i = 1; i < a.length; i++) {
    calls = calls + 1;
    if (a[i] > best) {
      best = a[i];
    }
  }
  return best;
}
|}

let find_stmt_node cfg p =
  let found = ref None in
  Array.iteri
    (fun i n ->
      match n with
      | Cfg.Stmt s when !found = None && p s -> found := Some i
      | _ -> ())
    cfg.Cfg.nodes;
  match !found with Some i -> i | None -> Alcotest.fail "expected node not found"

let last_stmt m =
  match List.rev (Ast.all_stmts m) with
  | s :: _ -> s
  | [] -> Alcotest.fail "empty method"

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cfg_straight_line () =
  let m = parse "method f(int x) : int { int y = x + 1; y = y * 2; return y; }" in
  let cfg = Cfg.build m in
  Alcotest.(check int) "entry + exit + 3 stmts" 5 (Cfg.n_nodes cfg);
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Stmt _ ->
          Alcotest.(check int) "single successor" 1 (List.length cfg.Cfg.succs.(i))
      | _ -> ())
    cfg.Cfg.nodes;
  (* entry chains through all three statements in one block *)
  let b0 = cfg.Cfg.blocks.(cfg.Cfg.block_of.(Cfg.entry)) in
  Alcotest.(check int) "straight-line block" 4 (List.length b0.Cfg.nodes)

let test_cfg_if_branches () =
  let m =
    parse "method f(int x) : int { if (x > 0) { return 1; } else { return 2; } }"
  in
  let cfg = Cfg.build m in
  let i =
    find_stmt_node cfg (fun s ->
        match s.Ast.node with Ast.If _ -> true | _ -> false)
  in
  Alcotest.(check int) "two successors" 2 (List.length cfg.Cfg.succs.(i));
  match cfg.Cfg.cond_succs.(i) with
  | Some (t, f) ->
      Alcotest.(check bool) "distinct targets" true (t <> f);
      List.iter
        (fun b ->
          Alcotest.(check (list int)) "branch returns to exit" [ Cfg.exit_ ]
            cfg.Cfg.succs.(b))
        [ t; f ]
  | None -> Alcotest.fail "If should have cond_succs"

let test_cfg_while_loop_edges () =
  let m =
    parse "method f(int n) : int { int i = 0; while (i < n) { i = i + 1; } return i; }"
  in
  let cfg = Cfg.build m in
  let w =
    find_stmt_node cfg (fun s ->
        match s.Ast.node with Ast.While _ -> true | _ -> false)
  in
  (match cfg.Cfg.cond_succs.(w) with
  | Some (t, f) ->
      Alcotest.(check (list int)) "body loops back to head" [ w ] cfg.Cfg.succs.(t);
      (match cfg.Cfg.nodes.(f) with
      | Cfg.Stmt { Ast.node = Ast.Return _; _ } -> ()
      | _ -> Alcotest.fail "false edge should reach the return")
  | None -> Alcotest.fail "while has branch successors");
  Alcotest.(check bool) "loop head is a join" true (List.length cfg.Cfg.preds.(w) >= 2)

let test_cfg_for_desugar_edges () =
  let m =
    parse
      "method f(int n) : int { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } \
       return s; }"
  in
  let cfg = Cfg.build m in
  let fo =
    find_stmt_node cfg (fun s ->
        match s.Ast.node with Ast.For _ -> true | _ -> false)
  in
  (* init -> cond and update -> cond: the condition is a two-way join *)
  Alcotest.(check int) "cond joins init and update" 2 (List.length cfg.Cfg.preds.(fo));
  match cfg.Cfg.cond_succs.(fo) with
  | Some (body, after) ->
      (match cfg.Cfg.nodes.(body) with
      | Cfg.Stmt { Ast.node = Ast.Assign ("s", _); _ } -> ()
      | _ -> Alcotest.fail "true edge should enter the body");
      (match cfg.Cfg.nodes.(after) with
      | Cfg.Stmt { Ast.node = Ast.Return _; _ } -> ()
      | _ -> Alcotest.fail "false edge should reach the return")
  | None -> Alcotest.fail "for has branch successors"

let test_cfg_break_continue_edges () =
  let m =
    parse
      "method f(int n) : int { int s = 0; while (s < n) { if (s == 3) { break; } if (s == \
       1) { s = s + 2; continue; } s = s + 1; } return s; }"
  in
  let cfg = Cfg.build m in
  let brk = find_stmt_node cfg (fun s -> s.Ast.node = Ast.Break) in
  let cont = find_stmt_node cfg (fun s -> s.Ast.node = Ast.Continue) in
  let head =
    find_stmt_node cfg (fun s ->
        match s.Ast.node with Ast.While _ -> true | _ -> false)
  in
  let ret =
    find_stmt_node cfg (fun s ->
        match s.Ast.node with Ast.Return _ -> true | _ -> false)
  in
  Alcotest.(check (list int)) "break -> after loop" [ ret ] cfg.Cfg.succs.(brk);
  Alcotest.(check (list int)) "continue -> loop head" [ head ] cfg.Cfg.succs.(cont)

let test_cfg_blocks_partition_nodes () =
  let m = parse sort3_src in
  let cfg = Cfg.build m in
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun i ->
          Alcotest.(check bool) "node in exactly one block" false (Hashtbl.mem seen i);
          Hashtbl.replace seen i ();
          Alcotest.(check int) "block_of agrees" b.Cfg.bid cfg.Cfg.block_of.(i))
        b.Cfg.nodes)
    cfg.Cfg.blocks;
  Alcotest.(check int) "all nodes covered" (Cfg.n_nodes cfg) (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)
(* ------------------------------------------------------------------ *)

let test_reaching_kill_and_merge () =
  let m = parse "method f(int n) : int { int x = 1; if (n > 0) { x = 2; } return x; }" in
  let r = Reaching.analyze m in
  let defs = Reaching.defs_reaching r ~sid:(last_stmt m).Ast.sid "x" in
  (* the initial decl and the branch assignment both reach the return; the
     uninit marker does not *)
  Alcotest.(check int) "two defs merge" 2 (List.length defs);
  Alcotest.(check bool) "no uninit marker" false (List.mem Reaching.uninit_def defs)

let test_reaching_loop_carried () =
  let m =
    parse "method f(int n) : int { int i = 0; while (i < n) { i = i + 1; } return i; }"
  in
  let r = Reaching.analyze m in
  let w =
    find_stmt_node r.Reaching.cfg (fun s ->
        match s.Ast.node with Ast.While _ -> true | _ -> false)
  in
  let sid =
    match Cfg.stmt_of r.Reaching.cfg w with
    | Some s -> s.Ast.sid
    | None -> assert false
  in
  Alcotest.(check int) "decl and back-edge def reach the head" 2
    (List.length (Reaching.defs_reaching r ~sid "i"))

let test_reaching_uninit_detected () =
  let m = parse "method f(int n) : int { if (n > 0) { int x = 1; } return x; }" in
  match Reaching.possibly_uninit (Reaching.analyze m) with
  | [ ("x", _) ] -> ()
  | other -> Alcotest.failf "expected one uninit use of x, got %d" (List.length other)

let test_reaching_paper_programs_clean () =
  List.iter
    (fun src ->
      Alcotest.(check int) "no uninit uses" 0
        (List.length (Reaching.possibly_uninit (Reaching.analyze (parse src)))))
    [ sort1_src; sort3_src; rotation_src ]

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_params_live_at_entry () =
  let m = parse "method f(int a, int b) : int { return a + b; }" in
  let live = Liveness.analyze m in
  Alcotest.(check (list string)) "both params live" [ "a"; "b" ]
    (Dataflow.VarSet.elements live.Liveness.live_out.(Cfg.entry))

let test_liveness_strong_kill () =
  let m = parse "method f(int a) : int { int x = a; x = 3; return x; }" in
  let live = Liveness.analyze m in
  let first = List.hd m.Ast.body in
  (match Cfg.node_of_sid live.Liveness.cfg first.Ast.sid with
  | Some i ->
      Alcotest.(check bool) "x dead after shadowed def" false
        (Dataflow.VarSet.mem "x" live.Liveness.live_out.(i))
  | None -> Alcotest.fail "node missing");
  Alcotest.(check (list int)) "shadowed store flagged dead" [ first.Ast.sid ]
    (Liveness.dead_stores live)

let test_liveness_weak_defs_dont_kill () =
  let m = parse "method f(int[] a) : int[] { a[0] = 1; a[1] = 2; return a; }" in
  let live = Liveness.analyze m in
  Alcotest.(check bool) "aggregate live at entry" true
    (Dataflow.VarSet.mem "a" live.Liveness.live_out.(Cfg.entry));
  Alcotest.(check (list int)) "stores are not dead" [] (Liveness.dead_stores live)

(* ISSUE property (a): every statement Mutate.insert_dead_code plants is
   flagged by the dead-store pass. *)
let prop_planted_dead_code_flagged =
  QCheck.Test.make ~name:"planted dead code is flagged" ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let src = Rng.choose rng [| sort1_src; sort3_src; find_max_noise_src |] in
      let m = parse src in
      let m' = Mutate.insert_dead_code rng m in
      let old_sids = List.map (fun (s : Ast.stmt) -> s.Ast.sid) (Ast.all_stmts m) in
      let planted =
        Ast.all_stmts m'
        |> List.filter_map (fun (s : Ast.stmt) ->
               if List.mem s.Ast.sid old_sids then None else Some s.Ast.sid)
      in
      let dead = Liveness.dead_stores (Liveness.analyze m') in
      List.for_all (fun sid -> List.mem sid dead) planted)

(* ------------------------------------------------------------------ *)
(* Constant propagation / folding                                      *)
(* ------------------------------------------------------------------ *)

let test_constprop_folds_chain () =
  let m = parse "method f(int n) : int { int x = 2; int y = x * 3; return y + n; }" in
  let folded = Constprop.fold_meth m in
  match List.map (fun (s : Ast.stmt) -> s.Ast.node) folded.Ast.body with
  | [ Ast.Decl (_, "x", Ast.Int 2);
      Ast.Decl (_, "y", Ast.Int 6);
      Ast.Return (Ast.Binop (Ast.Add, Ast.Int 6, Ast.Var "n")) ] ->
      ()
  | _ -> Alcotest.failf "unexpected fold:\n%s" (Pretty.meth_to_string folded)

let test_constprop_join_loses_constancy () =
  let m =
    parse
      "method f(bool b) : int { int x = 1; if (b) { x = 2; } int y = x + 1; return y; }"
  in
  let folded = Constprop.fold_meth m in
  let y_decl =
    List.find_map
      (fun (s : Ast.stmt) ->
        match s.Ast.node with Ast.Decl (_, "y", e) -> Some e | _ -> None)
      folded.Ast.body
  in
  match y_decl with
  | Some (Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 1)) -> ()
  | Some e -> Alcotest.failf "y folded unsoundly to %s" (Pretty.expr_to_string e)
  | None -> Alcotest.fail "y decl missing"

let test_constprop_partial_init_not_folded () =
  (* x is assigned only under the branch; reading it on the other path
     crashes at runtime, so `return x` must not become `return 5` *)
  let m = parse "method f(bool b) : int { if (b) { int x = 5; } return x; }" in
  let folded = Constprop.fold_meth m in
  match (last_stmt folded).Ast.node with
  | Ast.Return (Ast.Var "x") -> ()
  | _ -> Alcotest.failf "return folded unsoundly:\n%s" (Pretty.meth_to_string folded)

let test_constprop_preserves_crashes () =
  let m = parse "method f() : int { int x = 0; return 10 / x; }" in
  let folded = Constprop.fold_meth m in
  (match Interp.run folded [] with
  | Interp.Crashed _ -> ()
  | _ -> Alcotest.fail "folded method must still crash");
  (* && with a non-constant left operand must not fold its right operand away *)
  let m2 = parse "method g(bool b) : bool { return b && (1 < 2); }" in
  let f2 = Constprop.fold_meth m2 in
  match (List.hd f2.Ast.body).Ast.node with
  | Ast.Return (Ast.Binop (Ast.And, Ast.Var "b", Ast.Bool true)) -> ()
  | n -> Alcotest.failf "unexpected fold of short-circuit: %s" (Ast.show_stmt_node n)

let test_constprop_constant_guards () =
  let m =
    parse
      "method f(int n) : int { int k = 3; if (k > 2) { return n; } while (true) { n = n + \
       1; } return n; }"
  in
  let guards = Constprop.constant_guards (Constprop.analyze m) in
  Alcotest.(check int) "both guards constant" 2 (List.length guards);
  Alcotest.(check bool) "both true" true (List.for_all snd guards)

(* Regression (found by `liger fuzz`): the dataflow worklist used to be
   seeded with every CFG node, so constant propagation's transfer ran on
   partial environments (absent variables read as NonConst) before the entry
   fact reached them; the resulting non-monotone transient facts oscillated
   around this loop forever.  The solver now seeds from the start node only. *)
let test_constprop_terminates_on_loop_carried_copy () =
  let m =
    parse
      "method f(int p) : int { string v0 = \"x\"; for (int i = 0; i < 3; i = i + 1) { v0 \
       = v0; string v2 = v0 + v0; } return p; }"
  in
  let folded = Constprop.fold_meth m in
  match (Interp.run m [ Value.VInt 5 ], Interp.run folded [ Value.VInt 5 ]) with
  | Interp.Returned a, Interp.Returned b ->
      Alcotest.(check bool) "same return" true (Value.equal a b)
  | _ -> Alcotest.fail "both runs should return"

let prop_folding_preserves_semantics =
  QCheck.Test.make ~name:"constant folding preserves behaviour" ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, len) ->
      let rng = Rng.create (seed + 1) in
      (* push through the mutator first so folding sees varied shapes *)
      let v = Mutate.variant rng (parse sort3_src) in
      let folded = Constprop.fold_meth v in
      let a = Array.init (abs len mod 7) (fun i -> ((i * 31) + seed) mod 19) in
      let o1 = Interp.run v [ Value.VArr (Array.copy a) ] in
      let o2 = Interp.run folded [ Value.VArr (Array.copy a) ] in
      match (o1, o2) with
      | Interp.Returned x, Interp.Returned y -> Value.equal x y
      | Interp.Timeout, Interp.Timeout -> true
      | Interp.Crashed _, Interp.Crashed _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Unreachable code                                                    *)
(* ------------------------------------------------------------------ *)

let test_unreachable_after_return () =
  let m = parse "method f(int n) : int { return n; int x = 1; return x; }" in
  let r = Unreachable.analyze m in
  Alcotest.(check int) "two dead statements" 2 (List.length r.Unreachable.unreachable_sids)

let test_unreachable_constant_false_branch () =
  let m =
    parse
      "method f(int n) : int { int debug = 0; if (debug == 1) { n = n + 100; } return n; }"
  in
  let r = Unreachable.analyze m in
  Alcotest.(check int) "guarded body pruned" 1
    (List.length r.Unreachable.unreachable_sids)

let test_unreachable_clean_method () =
  let r = Unreachable.analyze (parse sort1_src) in
  Alcotest.(check (list int)) "everything reachable" [] r.Unreachable.unreachable_sids

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let test_lint_clean_on_paper_programs () =
  List.iter
    (fun src ->
      Alcotest.(check bool) "clean" true (Lint.ok (Lint.check (parse src))))
    [ sort1_src; sort3_src; rotation_src; find_max_noise_src ]

let test_lint_clean_on_all_templates () =
  (* the whole template library must pass the gate, or corpus generation
     would silently change shape *)
  List.iter
    (fun (t : Templates.t) ->
      List.iter
        (fun (v : Templates.variant) ->
          let m = parse v.Templates.source in
          let verdict = Lint.check m in
          if not (Lint.ok verdict) then
            Alcotest.failf "template %s/%s flagged: %a" t.Templates.base_name
              v.Templates.algo Lint.pp verdict)
        t.Templates.variants)
    Templates.all

let test_lint_uninit () =
  let m = parse "method f(int n) : int { if (n > 0) { int x = 1; } return x; }" in
  let v = Lint.check m in
  Alcotest.(check bool) "gate fails" false (Lint.ok v);
  Alcotest.(check int) "one uninit use" 1 (List.length v.Lint.uninit_uses)

let test_lint_nonterm () =
  let m = parse "method f(int n) : int { while (true) { n = n + 1; } return n; }" in
  let v = Lint.check m in
  Alcotest.(check int) "loop flagged" 1 (List.length v.Lint.nonterm_sids);
  Alcotest.(check int) "trailing return unreachable" 1
    (List.length v.Lint.unreachable_sids)

let test_lint_loop_with_break_ok () =
  let m =
    parse
      "method f(int n) : int { while (true) { n = n + 1; if (n > 10) { break; } } return \
       n; }"
  in
  let v = Lint.check m in
  Alcotest.(check (list int)) "no nonterm" [] v.Lint.nonterm_sids;
  Alcotest.(check bool) "gate passes" true (Lint.ok v)

let test_lint_nested_break_insufficient () =
  let m =
    parse
      "method f(int n) : int { while (true) { while (n < 5) { break; } n = n + 1; } \
       return n; }"
  in
  let v = Lint.check m in
  Alcotest.(check int) "outer loop still flagged" 1 (List.length v.Lint.nonterm_sids)

let test_lint_loop_counter_dead_branch () =
  (* needs the exact-corner interval upgrade: at the widened loop head the
     counter is [0, +inf); the guard refinement caps it below intmax so the
     increment stays finite, and i < 0 is then provably dead *)
  let m =
    parse
      {|
method f(int n) : int {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    if (i < 0) { acc = acc - 1; }
    acc = acc + 2;
  }
  return acc;
}
|}
  in
  let v = Lint.check m in
  Alcotest.(check bool) "dead true-arm flagged" true
    (List.exists (fun (_, taken) -> taken) v.Lint.dead_branch_sids);
  Alcotest.(check bool) "gate fails" false (Lint.ok v)

let test_lint_dead_store_not_a_gate () =
  let m = parse "method f(int n) : int { int unused0 = 3; return n; }" in
  let v = Lint.check m in
  Alcotest.(check bool) "ok despite dead store" true (Lint.ok v);
  Alcotest.(check int) "dead store still reported" 1 (List.length v.Lint.dead_store_sids)

(* ------------------------------------------------------------------ *)
(* Filter integration                                                  *)
(* ------------------------------------------------------------------ *)

let candidate m = { Filter.meth = m; uses_external = false }

let test_filter_new_drop_reasons () =
  let rng = Rng.create 42 in
  let uninit = parse "method f(int n) : int { if (n > 0) { int x = 1; } return x; }" in
  let unreach = parse "method g(int n) : int { return n; int x = 1; return x; }" in
  let nonterm = parse "method h(int n) : int { while (true) { n = n + 1; } return n; }" in
  let clean = parse sort1_src in
  let kept, stats =
    Filter.run rng (List.map candidate [ uninit; unreach; nonterm; clean ])
  in
  Alcotest.(check int) "only the clean method survives" 1 (List.length kept);
  let count r = Option.value ~default:0 (List.assoc_opt r stats.Filter.by_reason) in
  Alcotest.(check int) "uninit counted" 1 (count Filter.Uninit_use);
  Alcotest.(check int) "unreachable counted" 1 (count Filter.Unreachable_code);
  Alcotest.(check int) "nonterm counted" 1 (count Filter.Nonterm_loop);
  (* and the Table 1 printer renders the new reasons *)
  let table =
    {
      Stats.dataset = "lint-gate";
      rows =
        [ { Stats.split_name = "Training"; original = stats.Filter.original;
            filtered = stats.Filter.filtered } ];
      reasons = stats.Filter.by_reason;
    }
  in
  let rendered = Fmt.str "%a" Stats.pp table in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in table") true (contains_sub rendered needle))
    [ "use before init"; "unreachable code"; "non-terminating loop" ]

(* ------------------------------------------------------------------ *)
(* Slicing                                                             *)
(* ------------------------------------------------------------------ *)

let test_slice_drops_irrelevant () =
  let rel = Slice.relevant_vars (parse find_max_noise_src) in
  List.iter
    (fun x -> Alcotest.(check bool) (x ^ " relevant") true (Dataflow.VarSet.mem x rel))
    [ "a"; "best"; "i" ];
  Alcotest.(check bool) "calls pruned" false (Dataflow.VarSet.mem "calls" rel)

let test_slice_keeps_transitive_deps () =
  let m =
    parse "method f(int n) : int { int a = n * 2; int b = a + 1; int c = 7; return b; }"
  in
  let rel = Slice.relevant_vars m in
  List.iter
    (fun x -> Alcotest.(check bool) (x ^ " kept") true (Dataflow.VarSet.mem x rel))
    [ "a"; "b"; "n" ];
  Alcotest.(check bool) "c pruned" false (Dataflow.VarSet.mem "c" rel)

let test_slice_keeps_control_vars () =
  let m =
    parse
      "method f(int n) : int { int flag = n - 1; int r = 0; if (flag > 0) { r = 1; } \
       return r; }"
  in
  Alcotest.(check bool) "branch guard kept" true
    (Dataflow.VarSet.mem "flag" (Slice.relevant_vars m))

(* ---------------- intervals ---------------- *)

let iv = Alcotest.testable (Fmt.of_to_string Interval.to_string) Interval.equal

let test_interval_arith () =
  let open Interval in
  Alcotest.check iv "add" (range 3 7) (add (range 1 2) (range 2 5));
  Alcotest.check iv "sub" (range (-5) 1) (sub (range 1 2) (range 1 6));
  Alcotest.check iv "mul signs" (range (-10) 15) (mul (range (-2) 3) (range 2 5));
  Alcotest.check iv "neg" (range (-7) (-3)) (neg (range 3 7));
  Alcotest.check iv "join" (range 0 9) (join (range 0 2) (range 7 9));
  Alcotest.check iv "meet" (range 2 3) (meet (range 0 3) (range 2 9));
  Alcotest.check iv "meet empty" bot (meet (range 0 1) (range 3 9));
  (* division magnitude contracts; by zero-only divisor is bottom *)
  Alcotest.check iv "div hull" (range (-9) 9) (div (range (-9) 9) (range 1 3));
  Alcotest.check iv "div by zero only" bot (div (range 1 5) (const 0));
  Alcotest.check iv "rem bound" (range 0 2) (rem (at_least 0) (const 3));
  Alcotest.check iv "abs" (range 0 5) (abs_ (range (-3) 5));
  (* overflow safety: huge operands degrade to top, never to a wrong bound *)
  Alcotest.check iv "mul overflow tops" top (mul (const (1 lsl 40)) (const (1 lsl 40)));
  Alcotest.check iv "add of one-sided tops" top (add (at_least 0) (const 1))

let test_interval_widen_narrow () =
  let open Interval in
  Alcotest.check iv "widen grows to inf" (Iv (Fin 0, PosInf)) (widen (range 0 1) (range 0 5));
  Alcotest.check iv "widen stable inside" (range 0 10) (widen (range 0 10) (range 2 5));
  Alcotest.check iv "narrow refines inf only" (range 0 10)
    (narrow (Iv (Fin 0, PosInf)) (range 0 10));
  Alcotest.check iv "narrow keeps finite bounds" (range 0 3) (narrow (range 0 3) (range 1 2))

let test_interval_exact_corners () =
  let open Interval in
  (* infinite bounds are widening bookkeeping; concretely they mean the
     native int extremes, so a corner is computed exactly whenever
     two's-complement arithmetic does not wrap *)
  Alcotest.check iv "increment touches intmax"
    (range 1 max_int)
    (add (Iv (Fin 0, Fin (max_int - 1))) (const 1));
  Alcotest.check iv "wrapping corner degrades to top" top (add (range 0 max_int) (const 1));
  Alcotest.check iv "sub exact near intmin"
    (range (min_int + 2) 1)
    (sub (range 0 1) (range 0 (max_int - 1)));
  (* refinement reads through an unbounded right-hand side: i < n with
     n <= intmax still caps i at intmax - 1, which is what keeps a loop
     counter increment exact instead of topping at the widened head *)
  Alcotest.check iv "refine_lt vs +inf bound"
    (range 0 (max_int - 1))
    (refine_lt (at_least 0) (Iv (Fin 0, PosInf)));
  Alcotest.check iv "refine_ge vs -inf bound" (at_least min_int)
    (refine_ge top (Iv (NegInf, Fin 5)))

let test_parity () =
  let open Interval.Parity in
  Alcotest.(check bool) "even+odd=odd" true (add Even Odd = Odd);
  Alcotest.(check bool) "odd*odd=odd" true (mul Odd Odd = Odd);
  Alcotest.(check bool) "even absorbs mul" true (mul Even PTop = Even);
  Alcotest.(check bool) "join" true (join Even Odd = PTop);
  Alcotest.(check bool) "contains" true (contains Odd 7 && not (contains Odd 4))

(* ---------------- abstract interpretation ---------------- *)

let sid_of cfg p =
  match Cfg.stmt_of cfg (find_stmt_node cfg p) with
  | Some s -> s.Ast.sid
  | None -> assert false

let ret_sid cfg =
  sid_of cfg (fun s -> match s.Ast.node with Ast.Return _ -> true | _ -> false)

let test_absint_loop_bounds () =
  let m =
    parse
      {|
method f(int n) : int {
  int s = 0;
  for (int i = 0; i < 10; i++) { s = s + i; }
  return i;
}
|}
  in
  let r = Absint.analyze m in
  (* widening tops the counter at the head; narrowing + the exit-edge
     refinement pin it back to exactly 10 at the return *)
  Alcotest.check iv "i = 10 at return" (Interval.const 10)
    (Absint.interval_at r ~sid:(ret_sid r.Absint.cfg) (Ast.Var "i"))

let test_absint_branch_refinement () =
  let m =
    parse
      {|
method f(int x) : int {
  if (x < 0) { return 0 - 1; }
  if (x > 100) { return 101; }
  return x;
}
|}
  in
  let r = Absint.analyze m in
  let last =
    sid_of r.Absint.cfg (fun s ->
        match s.Ast.node with Ast.Return (Ast.Var "x") -> true | _ -> false)
  in
  Alcotest.check iv "x in [0,100] at fallthrough" (Interval.range 0 100)
    (Absint.interval_at r ~sid:last (Ast.Var "x"))

let test_absint_widening_terminates_nested () =
  (* nested loops with loop-carried increments and a self-copy: the shapes
     that historically oscillated in constprop must hit a fixpoint here *)
  let m =
    parse
      {|
method f(int n) : int {
  int a = 0;
  int c = 0;
  while (a < n) {
    a = a + 1;
    int b = 0;
    while (b < a) {
      b = b + 2;
      c = c + b;
    }
    c = c;
  }
  return c;
}
|}
  in
  let r = Absint.analyze m in
  (* the unbounded counters correctly degrade to top (they could wrap in the
     limit) — what matters is that the fixpoint terminated and stayed sound *)
  Alcotest.(check bool) "terminated and reached exit" true r.Absint.reached.(Cfg.exit_);
  (* bounded nested loops keep exact bounds through widening + narrowing *)
  let m2 =
    parse
      {|
method g() : int {
  int c = 0;
  for (int a = 0; a < 8; a++) {
    for (int b = 0; b < a; b++) { c = c + 1; }
  }
  return c;
}
|}
  in
  let r2 = Absint.analyze m2 in
  Alcotest.check iv "outer counter pinned at loop exit" (Interval.const 8)
    (Absint.interval_at r2 ~sid:(ret_sid r2.Absint.cfg) (Ast.Var "a"))

let test_absint_self_copy_terminates () =
  let m =
    parse
      {|
method f(int n) : int {
  int x = 0;
  int y = 5;
  while (x < n) {
    y = y;
    x = x + 1;
  }
  return y;
}
|}
  in
  let r = Absint.analyze m in
  Alcotest.check iv "self-copy stays constant" (Interval.const 5)
    (Absint.interval_at r ~sid:(ret_sid r.Absint.cfg) (Ast.Var "y"))

let test_absint_parity_tracked () =
  let m =
    parse
      {|
method f(int n) : int {
  int x = 0;
  while (x < n) { x = x + 2; }
  return x;
}
|}
  in
  let r = Absint.analyze m in
  match Absint.aval_at r ~sid:(ret_sid r.Absint.cfg) (Ast.Var "x") with
  | Absint.AInt (_, p) ->
      Alcotest.(check bool) "x stays even through the loop" true (p = Interval.Parity.Even)
  | v -> Alcotest.failf "expected int, got %s" (Absint.aval_to_string v)

let test_absint_proof_api () =
  let m =
    parse
      {|
method f(int[] a, int y) : int {
  int s = 0;
  for (int i = 0; i < 5; i++) {
    int d = i + 1;
    s = s + y / d;
  }
  int[] b = new int[5];
  b[4] = s;
  return s / (2 * abs(y) + 1);
}
|}
  in
  let r = Absint.analyze m in
  let cfg = r.Absint.cfg in
  let div_sid =
    sid_of cfg (fun s ->
        match s.Ast.node with Ast.Assign ("s", _) -> true | _ -> false)
  in
  Alcotest.(check bool) "divisor i+1 proven nonzero" true
    (Absint.proves_nonzero r ~sid:div_sid (Ast.Var "d"));
  let store_sid =
    sid_of cfg (fun s -> match s.Ast.node with Ast.StoreIndex _ -> true | _ -> false)
  in
  Alcotest.(check bool) "b[4] proven in bounds" true
    (Absint.proves_in_bounds r ~sid:store_sid ~arr:(Ast.Var "b") (Ast.Int 4));
  (* 2*abs(y)+1 is odd, hence nonzero, even though its interval is unbounded *)
  let rsid = ret_sid cfg in
  Alcotest.(check bool) "2*abs(y)+1 proven nonzero by parity" true
    (Absint.proves_nonzero r ~sid:rsid
       (Ast.Binop
          ( Ast.Add,
            Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Call ("abs", [ Ast.Var "y" ])),
            Ast.Int 1 )))

let test_absint_infeasible_and_dead_branches () =
  let m =
    parse
      {|
method f(int n) : int {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (i < 0) { s = s + 100; }
    s = s + 1;
  }
  return s;
}
|}
  in
  let r = Absint.analyze m in
  let if_sid =
    sid_of r.Absint.cfg (fun s -> match s.Ast.node with Ast.If _ -> true | _ -> false)
  in
  Alcotest.(check bool) "true arm infeasible" true
    (Absint.proves_infeasible r ~sid:if_sid ~taken:true);
  Alcotest.(check bool) "false arm feasible" false
    (Absint.proves_infeasible r ~sid:if_sid ~taken:false);
  Alcotest.(check bool) "reported as dead branch" true
    (List.mem (if_sid, true) (Absint.dead_branches r))

let test_absint_definite_div_by_zero () =
  let m =
    parse
      {|
method f(int x) : int {
  int z = 0;
  return x / z;
}
|}
  in
  let r = Absint.analyze m in
  match Absint.definite_crashes r with
  | [ c ] ->
      Alcotest.(check string) "what" "division by zero" c.Absint.c_what
  | cs -> Alcotest.failf "expected exactly one definite crash, got %d" (List.length cs)

let test_absint_builtin_summaries () =
  let m =
    parse
      {|
method f(int x, string s) : int {
  int a = abs(x);
  int o = ord(charAt(s, 0));
  int m = max(a, 1);
  return m + o;
}
|}
  in
  let r = Absint.analyze m in
  let rsid = ret_sid r.Absint.cfg in
  (match Absint.interval_at r ~sid:rsid (Ast.Var "o") with
  | Interval.Iv (Interval.Fin lo, Interval.Fin hi) ->
      Alcotest.(check bool) "ord in [0,255]" true (lo >= 0 && hi <= 255)
  | other -> Alcotest.failf "expected finite ord range, got %s" (Interval.to_string other));
  (match Absint.interval_at r ~sid:rsid (Ast.Var "m") with
  | Interval.Iv (Interval.Fin lo, _) -> Alcotest.(check bool) "max >= 1" true (lo >= 1)
  | other -> Alcotest.failf "expected max >= 1, got %s" (Interval.to_string other));
  (* charAt with an unconstrained index may crash *)
  Alcotest.(check bool) "charAt may crash" true
    (List.exists (fun c -> c.Absint.c_what = "charAt: out of range") r.Absint.crashes)

(* ---------------- dominators ---------------- *)

let test_dominators_diamond () =
  let m =
    parse
      {|
method f(int x) : int {
  int y = 0;
  if (x > 0) { y = 1; } else { y = 2; }
  return y;
}
|}
  in
  let cfg = Cfg.build m in
  let dom = Dominator.dominators cfg in
  let branch = find_stmt_node cfg (fun s -> match s.Ast.node with Ast.If _ -> true | _ -> false) in
  let t = find_stmt_node cfg (fun s -> s.Ast.node = Ast.Assign ("y", Ast.Int 1)) in
  let f = find_stmt_node cfg (fun s -> s.Ast.node = Ast.Assign ("y", Ast.Int 2)) in
  let join = find_stmt_node cfg (fun s -> match s.Ast.node with Ast.Return _ -> true | _ -> false) in
  Alcotest.(check (option int)) "idom(t) = branch" (Some branch) dom.Dominator.idom.(t);
  Alcotest.(check (option int)) "idom(f) = branch" (Some branch) dom.Dominator.idom.(f);
  Alcotest.(check (option int)) "idom(join) = branch" (Some branch) dom.Dominator.idom.(join);
  Alcotest.(check bool) "branch sdom join" true (Dominator.strictly_dominates dom branch join);
  Alcotest.(check bool) "arm !dom join" false (Dominator.dominates dom t join);
  (* postdominators: the join postdominates both arms and the branch *)
  let pdom = Dominator.postdominators cfg in
  Alcotest.(check bool) "join pdom branch" true (Dominator.dominates pdom join branch);
  Alcotest.(check bool) "join pdom t" true (Dominator.dominates pdom join t)

let test_dominators_nested_loop () =
  let m = parse sort3_src in
  let cfg = Cfg.build m in
  let dom = Dominator.dominators cfg in
  let wh = find_stmt_node cfg (fun s -> match s.Ast.node with Ast.While _ -> true | _ -> false) in
  let fo = find_stmt_node cfg (fun s -> match s.Ast.node with Ast.For _ -> true | _ -> false) in
  let inner_if = find_stmt_node cfg (fun s -> match s.Ast.node with Ast.If _ -> true | _ -> false) in
  Alcotest.(check bool) "while head dominates for head" true
    (Dominator.strictly_dominates dom wh fo);
  Alcotest.(check bool) "for head dominates inner if" true
    (Dominator.strictly_dominates dom fo inner_if);
  Alcotest.(check bool) "inner if does not dominate for head" false
    (Dominator.dominates dom inner_if fo);
  (* every reachable node is dominated by entry *)
  Array.iteri
    (fun i r ->
      if r then
        Alcotest.(check bool) "entry dominates all" true (Dominator.dominates dom Cfg.entry i))
    dom.Dominator.reachable

let test_dominators_unreachable_node () =
  let m =
    parse
      {|
method f(int x) : int {
  return x;
  int y = 1;
  return y;
}
|}
  in
  let cfg = Cfg.build m in
  let dom = Dominator.dominators cfg in
  let dead = find_stmt_node cfg (fun s -> s.Ast.node = Ast.Decl (Ast.Tint, "y", Ast.Int 1)) in
  Alcotest.(check (option int)) "unreachable has no idom" None dom.Dominator.idom.(dead);
  Alcotest.(check bool) "unreachable dominates nothing" false
    (Dominator.dominates dom dead Cfg.exit_);
  Alcotest.(check bool) "nothing dominates unreachable" false
    (Dominator.dominates dom Cfg.entry dead)

(* ---------------- solver worklist order ---------------- *)

(* Reverse postorder pops a node after as many of its flow predecessors
   as the loops allow: liveness over sort3's 14 nodes converges in 16 pops
   (FIFO order took 17).  More pops means the worklist order regressed. *)
let test_rpo_liveness_iterations () =
  let m = parse sort3_src in
  Alcotest.(check int) "rpo pops" 16 (Liveness.analyze m).Liveness.iterations

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_planted_dead_code_flagged; prop_folding_preserves_semantics ]

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick test_cfg_straight_line;
          Alcotest.test_case "if branches" `Quick test_cfg_if_branches;
          Alcotest.test_case "while edges" `Quick test_cfg_while_loop_edges;
          Alcotest.test_case "for edges" `Quick test_cfg_for_desugar_edges;
          Alcotest.test_case "break/continue" `Quick test_cfg_break_continue_edges;
          Alcotest.test_case "blocks partition" `Quick test_cfg_blocks_partition_nodes;
        ] );
      ( "reaching",
        [
          Alcotest.test_case "kill and merge" `Quick test_reaching_kill_and_merge;
          Alcotest.test_case "loop carried" `Quick test_reaching_loop_carried;
          Alcotest.test_case "uninit detected" `Quick test_reaching_uninit_detected;
          Alcotest.test_case "paper programs clean" `Quick
            test_reaching_paper_programs_clean;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "params live at entry" `Quick
            test_liveness_params_live_at_entry;
          Alcotest.test_case "strong kill" `Quick test_liveness_strong_kill;
          Alcotest.test_case "weak defs don't kill" `Quick
            test_liveness_weak_defs_dont_kill;
        ] );
      ( "constprop",
        [
          Alcotest.test_case "folds chains" `Quick test_constprop_folds_chain;
          Alcotest.test_case "join loses constancy" `Quick
            test_constprop_join_loses_constancy;
          Alcotest.test_case "partial init not folded" `Quick
            test_constprop_partial_init_not_folded;
          Alcotest.test_case "crash preserving" `Quick test_constprop_preserves_crashes;
          Alcotest.test_case "constant guards" `Quick test_constprop_constant_guards;
          Alcotest.test_case "terminates on loop-carried copy" `Quick
            test_constprop_terminates_on_loop_carried_copy;
        ] );
      ( "unreachable",
        [
          Alcotest.test_case "after return" `Quick test_unreachable_after_return;
          Alcotest.test_case "constant false branch" `Quick
            test_unreachable_constant_false_branch;
          Alcotest.test_case "clean method" `Quick test_unreachable_clean_method;
        ] );
      ( "lint",
        [
          Alcotest.test_case "paper programs clean" `Quick
            test_lint_clean_on_paper_programs;
          Alcotest.test_case "all templates clean" `Quick test_lint_clean_on_all_templates;
          Alcotest.test_case "uninit" `Quick test_lint_uninit;
          Alcotest.test_case "nonterm" `Quick test_lint_nonterm;
          Alcotest.test_case "break saves loop" `Quick test_lint_loop_with_break_ok;
          Alcotest.test_case "nested break insufficient" `Quick
            test_lint_nested_break_insufficient;
          Alcotest.test_case "dead store not a gate" `Quick
            test_lint_dead_store_not_a_gate;
          Alcotest.test_case "loop counter dead branch" `Quick
            test_lint_loop_counter_dead_branch;
        ] );
      ( "filter",
        [ Alcotest.test_case "new drop reasons" `Quick test_filter_new_drop_reasons ] );
      ( "interval",
        [
          Alcotest.test_case "arithmetic" `Quick test_interval_arith;
          Alcotest.test_case "exact corners" `Quick test_interval_exact_corners;
          Alcotest.test_case "widen/narrow" `Quick test_interval_widen_narrow;
          Alcotest.test_case "parity" `Quick test_parity;
        ] );
      ( "absint",
        [
          Alcotest.test_case "loop bounds via narrowing" `Quick test_absint_loop_bounds;
          Alcotest.test_case "branch refinement" `Quick test_absint_branch_refinement;
          Alcotest.test_case "widening terminates (nested)" `Quick
            test_absint_widening_terminates_nested;
          Alcotest.test_case "self-copy terminates" `Quick test_absint_self_copy_terminates;
          Alcotest.test_case "parity through loop" `Quick test_absint_parity_tracked;
          Alcotest.test_case "proof api" `Quick test_absint_proof_api;
          Alcotest.test_case "infeasible/dead branches" `Quick
            test_absint_infeasible_and_dead_branches;
          Alcotest.test_case "definite div by zero" `Quick test_absint_definite_div_by_zero;
          Alcotest.test_case "builtin summaries" `Quick test_absint_builtin_summaries;
        ] );
      ( "dominator",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "nested loops" `Quick test_dominators_nested_loop;
          Alcotest.test_case "unreachable node" `Quick test_dominators_unreachable_node;
        ] );
      ( "solver",
        [
          Alcotest.test_case "rpo liveness iterations" `Quick test_rpo_liveness_iterations;
        ] );
      ( "slice",
        [
          Alcotest.test_case "drops irrelevant" `Quick test_slice_drops_irrelevant;
          Alcotest.test_case "transitive deps" `Quick test_slice_keeps_transitive_deps;
          Alcotest.test_case "control vars" `Quick test_slice_keeps_control_vars;
        ] );
      ("qcheck", qcheck_cases);
    ]
