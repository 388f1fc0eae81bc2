(* Tests for trace infrastructure: execution/symbolic/state traces
   (Definitions 2.1-2.3), blended grouping (Definition 5.1), vocabulary,
   token encoding, coverage and greedy minimum line cover. *)

open Liger_lang
open Liger_trace

let parse = Parser.method_of_string

let abs_src =
  {|
method getAbs(int x) : int {
  if (x < 0) {
    return 0 - x;
  }
  return x;
}
|}

let sort_src =
  {|
method sortArray(int[] A) : int[] {
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

let collect_many meth inputs = List.map (Exec_trace.collect meth) inputs

(* ------------------------------------------------------------------ *)
(* Exec_trace                                                          *)
(* ------------------------------------------------------------------ *)

let test_signatures_distinguish_paths () =
  let m = parse abs_src in
  let t1 = Exec_trace.collect m [ Value.VInt (-5) ] in
  let t2 = Exec_trace.collect m [ Value.VInt (-9) ] in
  let t3 = Exec_trace.collect m [ Value.VInt 5 ] in
  Alcotest.(check bool) "same path" true
    (Exec_trace.path_signature t1 = Exec_trace.path_signature t2);
  Alcotest.(check bool) "different path" true
    (Exec_trace.path_signature t1 <> Exec_trace.path_signature t3)

let test_state_trace_projection () =
  let m = parse "method f(int x) : int { int y = x * 2; return y; }" in
  let t = Exec_trace.collect m [ Value.VInt 3 ] in
  let states = Exec_trace.state_trace t in
  Alcotest.(check int) "two states" 2 (List.length states);
  match List.assoc "y" (List.hd states) with
  | Some (Value.VInt 6) -> ()
  | _ -> Alcotest.fail "y=6 expected in first state"

(* A copy shares unchanged cells with the previous copy, so a state must
   still show an array as it was at its step: updated in place, read
   through an alias, and unchanged by the steps after it. *)
let test_states_follow_in_place_updates () =
  let m =
    parse
      "method bump(int[] a) : int { int[] b = a; int i = 0; \
       while (i < 2) { a[i] = a[i] + 10; i = i + 1; } return b[0]; }"
  in
  let t = Exec_trace.collect m [ Value.VArr [| 1; 2 |] ] in
  let column x =
    List.map
      (fun st ->
        match List.assoc x st with
        | Some (Value.VArr a) -> Array.to_list a
        | _ -> Alcotest.failf "%s is not an array" x)
      (Exec_trace.state_trace t)
  in
  let expected =
    [ [ 1; 2 ]; [ 1; 2 ]; [ 1; 2 ]; [ 11; 2 ]; [ 11; 2 ]; [ 11; 2 ]; [ 11; 12 ]; [ 11; 12 ];
      [ 11; 12 ]; [ 11; 12 ] ]
  in
  Alcotest.(check (list (list int))) "a at each step" expected (column "a");
  Alcotest.(check (list (list int))) "b at each step" expected (column "b");
  Alcotest.(check (list (option int))) "i at each step"
    [ None; Some 0; Some 0; Some 0; Some 1; Some 1; Some 1; Some 2; Some 2; Some 2 ]
    (List.map
       (fun st -> match List.assoc "i" st with Some (Value.VInt n) -> Some n | _ -> None)
       (Exec_trace.state_trace t))

let test_lines_covered () =
  let m = parse abs_src in
  let neg = Exec_trace.collect m [ Value.VInt (-1) ] in
  let pos = Exec_trace.collect m [ Value.VInt 1 ] in
  Alcotest.(check bool) "negative path covers more lines in this layout" true
    (List.length (Exec_trace.lines_covered m neg)
    <> List.length (Exec_trace.lines_covered m pos)
    || Exec_trace.lines_covered m neg <> Exec_trace.lines_covered m pos)

let test_crashing_trace_not_ok () =
  let m = parse "method f(int x) : int { return 1 / x; }" in
  Alcotest.(check bool) "crash" false (Exec_trace.ok (Exec_trace.collect m [ Value.VInt 0 ]));
  Alcotest.(check bool) "ok" true (Exec_trace.ok (Exec_trace.collect m [ Value.VInt 2 ]))

let test_display_renders_states () =
  let m = parse sort_src in
  let t = Exec_trace.collect m [ Value.VArr [| 2; 1 |] ] in
  let s = Exec_trace.to_display m t in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "shows array" true (contains s "A:[1, 2]")

(* ------------------------------------------------------------------ *)
(* Blended                                                             *)
(* ------------------------------------------------------------------ *)

let test_group_by_path () =
  let m = parse abs_src in
  let traces =
    collect_many m
      [ [ Value.VInt (-1) ]; [ Value.VInt (-2) ]; [ Value.VInt 3 ]; [ Value.VInt 4 ];
        [ Value.VInt 5 ] ]
  in
  let bs = Blended.group m traces in
  Alcotest.(check int) "two paths" 2 (List.length bs);
  (* sorted largest group first *)
  Alcotest.(check (list int)) "group sizes" [ 3; 2 ]
    (List.map (fun b -> b.Blended.n_concrete) bs)

let test_blended_states_align () =
  let m = parse abs_src in
  let traces = collect_many m [ [ Value.VInt (-1) ]; [ Value.VInt (-7) ] ] in
  let bs = Blended.group m traces in
  let b = List.hd bs in
  List.iter
    (fun (step : Blended.step) ->
      Alcotest.(check int) "two states per step" 2 (Array.length step.Blended.states))
    b.Blended.steps;
  (* first step: x assigned differently across the two concrete traces *)
  let first = List.hd b.Blended.steps in
  let xs =
    Array.to_list first.Blended.states
    |> List.map (fun env -> List.assoc "x" env)
  in
  Alcotest.(check bool) "different concrete values" true
    (xs = [ Some (Value.VInt (-1)); Some (Value.VInt (-7)) ])

let test_blended_drops_crashes () =
  let m = parse "method f(int x) : int { return 10 / x; }" in
  let traces = collect_many m [ [ Value.VInt 0 ]; [ Value.VInt 2 ] ] in
  let bs = Blended.group m traces in
  Alcotest.(check int) "only the ok trace" 1 (List.length bs)

let test_limit_concrete () =
  let m = parse abs_src in
  let traces =
    collect_many m (List.init 5 (fun i -> [ Value.VInt (-1 - i) ]))
  in
  let b = List.hd (Blended.group m traces) in
  Alcotest.(check int) "five before" 5 b.Blended.n_concrete;
  let b' = Blended.limit_concrete 2 b in
  Alcotest.(check int) "two after" 2 b'.Blended.n_concrete;
  List.iter
    (fun (s : Blended.step) ->
      Alcotest.(check int) "states truncated" 2 (Array.length s.Blended.states))
    b'.Blended.steps

let test_truncate () =
  let m = parse sort_src in
  let t = Exec_trace.collect m [ Value.VArr [| 3; 2; 1 |] ] in
  let b = List.hd (Blended.group m [ t ]) in
  let b' = Blended.truncate 4 b in
  Alcotest.(check int) "len" 4 (Blended.length b');
  Alcotest.(check int) "signature in sync" 4 (List.length b'.Blended.signature)

let test_total_executions () =
  let m = parse abs_src in
  let traces =
    collect_many m [ [ Value.VInt (-1) ]; [ Value.VInt (-2) ]; [ Value.VInt 1 ] ]
  in
  Alcotest.(check int) "3 executions" 3
    (Blended.total_executions (Blended.group m traces))

(* ------------------------------------------------------------------ *)
(* Vocab                                                               *)
(* ------------------------------------------------------------------ *)

let test_vocab_intern_and_freeze () =
  let v = Vocab.create () in
  let a = Vocab.id v "alpha" in
  let a' = Vocab.id v "alpha" in
  let b = Vocab.id v "beta" in
  Alcotest.(check int) "stable" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Vocab.freeze v;
  Alcotest.(check int) "unseen -> unk" Vocab.unk_id (Vocab.id v "gamma");
  Alcotest.(check int) "seen still resolves" a (Vocab.id v "alpha")

let test_vocab_name_roundtrip () =
  let v = Vocab.create () in
  let i = Vocab.id v "hello" in
  Alcotest.(check string) "name" "hello" (Vocab.name v i);
  Alcotest.(check string) "oob" Vocab.unk_token (Vocab.name v 9999)

let test_vocab_special_tokens () =
  let v = Vocab.create () in
  Alcotest.(check int) "size starts at 4" 4 (Vocab.size v);
  Alcotest.(check string) "sos" Vocab.sos_token (Vocab.name v Vocab.sos_id);
  Alcotest.(check string) "eos" Vocab.eos_token (Vocab.name v Vocab.eos_id)

let test_vocab_save_load () =
  let v = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id v t)) [ "alpha"; "beta"; "with space"; "line\nbreak" ];
  let path = Filename.temp_file "liger" ".vocab" in
  Vocab.save v path;
  let v2 = Vocab.load path in
  Sys.remove path;
  Alcotest.(check bool) "loaded frozen" true (Vocab.is_frozen v2);
  Alcotest.(check int) "same size" (Vocab.size v) (Vocab.size v2);
  List.iter
    (fun (tok, i) -> Alcotest.(check int) ("id of " ^ tok) i (Vocab.id v2 tok))
    (Vocab.to_list v);
  Alcotest.(check int) "unknown -> unk" Vocab.unk_id (Vocab.id v2 "nope")

let test_vocab_load_rejects_garbage () =
  let path = Filename.temp_file "liger" ".vocab" in
  let oc = open_out path in
  output_string oc "not a vocab\n";
  close_out oc;
  Alcotest.(check bool) "rejects" true
    (try ignore (Vocab.load path); false with Failure _ -> true);
  Sys.remove path

let test_vocab_growth () =
  let v = Vocab.create () in
  for i = 0 to 499 do
    ignore (Vocab.id v (Printf.sprintf "tok%d" i))
  done;
  Alcotest.(check int) "size" 504 (Vocab.size v);
  Alcotest.(check string) "late token" "tok499" (Vocab.name v 503)

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let test_int_tokens () =
  Alcotest.(check string) "small" "i7" (Encode.int_token 7);
  Alcotest.(check string) "negative" "i-3" (Encode.int_token (-3));
  Alcotest.(check string) "bucketed" "i_pos_med" (Encode.int_token 55);
  Alcotest.(check string) "large" "i_pos_big" (Encode.int_token 5000)

let test_value_tokens_array () =
  let toks = Encode.value_tokens (Some (Value.VArr [| 1; 2; 3 |])) in
  Alcotest.(check (list string)) "array" [ "alen_3"; "i1"; "i2"; "i3" ] toks

let test_value_tokens_bot () =
  Alcotest.(check (list string)) "bot" [ "bot" ] (Encode.value_tokens None)

let test_value_tokens_cap () =
  let big = Some (Value.VArr (Array.make 100 1)) in
  Alcotest.(check int) "capped" Encode.max_flat
    (List.length (Encode.value_tokens big))

let test_value_tokens_string () =
  let toks = Encode.value_tokens (Some (Value.VStr "ab")) in
  Alcotest.(check (list string)) "string" [ "slen_2"; "c_a"; "c_b" ] toks

let test_value_tokens_object () =
  let toks =
    Encode.value_tokens (Some (Value.VObj [| ("x", Value.VInt 1); ("y", Value.VBool true) |]))
  in
  Alcotest.(check (list string)) "object" [ "olen_2"; "i1"; "v_true" ] toks

let test_stmt_tree_equivalent_stmts_differ () =
  (* i += i and i *= 2 have different static trees: the blended model must
     bridge them via the dynamic dimension. *)
  let m1 = parse "method f(int i) : int { i += i; return i; }" in
  let m2 = parse "method f(int i) : int { i *= 2; return i; }" in
  let t1 = Encode.stmt_tree (List.hd m1.Ast.body) in
  let t2 = Encode.stmt_tree (List.hd m2.Ast.body) in
  Alcotest.(check bool) "trees differ" true (Encode.tree_tokens t1 <> Encode.tree_tokens t2)

let test_stmt_tree_branch_leaf () =
  let m = parse abs_src in
  let if_stmt = List.hd m.Ast.body in
  let taken = Encode.stmt_tree ~branch:true if_stmt in
  let not_taken = Encode.stmt_tree ~branch:false if_stmt in
  Alcotest.(check bool) "branch distinguishes" true
    (Encode.tree_tokens taken <> Encode.tree_tokens not_taken);
  Alcotest.(check bool) "taken leaf present" true
    (List.mem "taken" (Encode.tree_tokens taken))

let test_meth_tree_size () =
  let m = parse sort_src in
  let t = Encode.meth_tree m in
  Alcotest.(check bool) "has many nodes" true (Encode.tree_size t > 30)

let test_register_blended_builds_vocab () =
  let m = parse abs_src in
  let traces = collect_many m [ [ Value.VInt (-4) ]; [ Value.VInt 4 ] ] in
  let bs = Blended.group m traces in
  let v = Vocab.create () in
  List.iter (Encode.register_blended (Encode.new_seen ()) v) bs;
  Alcotest.(check bool) "vocab grew" true (Vocab.size v > 10);
  Alcotest.(check bool) "has statement token" true (Vocab.mem v "If");
  Alcotest.(check bool) "has value token" true (Vocab.mem v "i4" || Vocab.mem v "i-4");
  Alcotest.(check bool) "has var token" true (Vocab.mem v "var_x")

(* ------------------------------------------------------------------ *)
(* Coverage + Mincover                                                 *)
(* ------------------------------------------------------------------ *)

let three_path_src =
  {|
method classify(int x) : int {
  if (x < 0) {
    return 0 - 1;
  }
  if (x == 0) {
    return 0;
  }
  return 1;
}
|}

let three_path_blended () =
  let m = parse three_path_src in
  let traces =
    collect_many m
      [ [ Value.VInt (-2) ]; [ Value.VInt (-1) ]; [ Value.VInt 0 ]; [ Value.VInt 1 ];
        [ Value.VInt 2 ]; [ Value.VInt 3 ] ]
  in
  (m, Blended.group m traces)

let test_coverage_counts () =
  let m, bs = three_path_blended () in
  let c = Coverage.of_blended m bs in
  Alcotest.(check int) "three paths" 3 c.Coverage.n_paths;
  Alcotest.(check int) "six executions" 6 c.Coverage.n_executions;
  Alcotest.(check bool) "full line coverage" true (Coverage.line_fraction c = 1.0)

let test_coverage_partial () =
  let m, bs = three_path_blended () in
  (* keep only the x>0 path: lines for the two early returns are uncovered *)
  let pos_only =
    List.filter (fun b -> List.length b.Blended.signature = 3) bs
  in
  let c = Coverage.of_blended m pos_only in
  Alcotest.(check bool) "partial" true (Coverage.line_fraction c < 1.0)

let test_preserves_lines () =
  let _, bs = three_path_blended () in
  Alcotest.(check bool) "full set preserves itself" true
    (Coverage.preserves_lines ~reference:bs bs);
  Alcotest.(check bool) "dropping a path loses lines" false
    (Coverage.preserves_lines ~reference:bs [ List.hd bs ])

let test_greedy_cover_minimal () =
  let m, bs = three_path_blended () in
  let core = Mincover.greedy bs in
  (* all three paths are needed: each covers a distinct return line *)
  Alcotest.(check int) "core size" 3 (List.length core);
  Alcotest.(check bool) "covers everything" true
    (Coverage.line_fraction (Coverage.of_blended m core) = 1.0)

let test_greedy_cover_drops_redundant () =
  let m = parse abs_src in
  let traces =
    collect_many m
      [ [ Value.VInt (-1) ]; [ Value.VInt (-2) ]; [ Value.VInt 1 ]; [ Value.VInt 2 ] ]
  in
  let bs = Blended.group m traces in
  (* both paths needed, but each group only once; mincover over duplicated
     groups should still be 2 *)
  let core = Mincover.greedy (bs @ bs) in
  Alcotest.(check int) "no duplicates needed" 2 (List.length core)

let test_reduction_order_prefix_preserves_coverage () =
  let _, bs = three_path_blended () in
  let ordered = Mincover.reduction_order bs in
  let core = Mincover.greedy bs in
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  for n = List.length core to List.length ordered do
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d preserves lines" n)
      true
      (Coverage.preserves_lines ~reference:bs (prefix n ordered))
  done

(* property: grouping then flattening preserves the number of ok traces *)
let prop_group_partition =
  QCheck.Test.make ~name:"blended groups partition ok traces" ~count:50
    QCheck.(small_list (int_range (-10) 10))
    (fun xs ->
      QCheck.assume (xs <> []);
      let m = parse three_path_src in
      let traces = collect_many m (List.map (fun x -> [ Value.VInt x ]) xs) in
      let n_ok = List.length (List.filter Exec_trace.ok traces) in
      let bs = Blended.group m traces in
      Blended.total_executions bs = n_ok)

(* property: interning any token list gives a bijection id <-> name that
   survives save/load, including tokens that need escaping; re-adding is
   idempotent *)
let prop_vocab_roundtrip =
  QCheck.Test.make ~name:"vocab encode/decode roundtrip, idempotent add" ~count:50
    QCheck.(small_list small_string)
    (fun toks ->
      (* always include the characters the escaper must handle *)
      let toks = toks @ [ ""; "a b"; "line\nbreak"; "back\\slash" ] in
      let v = Vocab.create () in
      let ids = List.map (Vocab.add v) toks in
      let size = Vocab.size v in
      (* idempotent: adding again returns the same id and allocates nothing *)
      List.iter2
        (fun tok i ->
          if Vocab.add v tok <> i then QCheck.Test.fail_reportf "re-add moved %S" tok)
        toks ids;
      if Vocab.size v <> size then QCheck.Test.fail_report "re-add grew the vocab";
      List.iter2
        (fun tok i ->
          if Vocab.name v i <> tok then QCheck.Test.fail_reportf "name(id %d) <> %S" i tok;
          if Vocab.id v tok <> i then QCheck.Test.fail_reportf "id %S changed" tok)
        toks ids;
      let path = Filename.temp_file "liger" ".vocab" in
      Vocab.save v path;
      let v2 = Vocab.load path in
      Sys.remove path;
      if Vocab.size v2 <> size then QCheck.Test.fail_report "loaded size differs";
      List.iter2
        (fun tok i ->
          if Vocab.name v2 i <> tok then
            QCheck.Test.fail_reportf "loaded name(id %d) <> %S" i tok)
        toks ids;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_group_partition; prop_vocab_roundtrip ]

(* A run that times out after 7,999 steps beside a 50,000-cell array copies
   the state only for the steps it keeps: with none kept, nothing but the
   argument's entry copy; with 64 kept, at most 64 more copies. *)
let test_collect_copies_kept_steps_only () =
  let m = parse "method spin(int[] a) : int { int i = 0; while (i >= 0) { i = i + 1; } return i; }" in
  let cells = 50_000 in
  let arg = Value.VArr (Array.make cells 7) in
  let run keep = Testutil.words_allocated (fun () -> Exec_trace.collect ~fuel:8000 ~keep_steps:keep m [ arg ]) in
  let t0, w0 = run 0 in
  let t64, w64 = run 64 in
  List.iter
    (fun t ->
      Alcotest.(check bool) "timed out" true (t.Exec_trace.outcome = Interp.Timeout);
      Alcotest.(check int) "steps" 7999 t.Exec_trace.n_steps)
    [ t0; t64 ];
  Alcotest.(check int) "kept" 64 (List.length t64.Exec_trace.steps);
  if w0 >= 2 * cells then
    Alcotest.failf "keeping no step allocated %d words (one copy: %d words)" w0 cells;
  if w64 - w0 >= 65 * cells then
    Alcotest.failf "keeping 64 steps allocated %d more words (one copy: %d words)" (w64 - w0)
      cells

(* ------------------------------------------------------------------ *)
(* Pinned concrete execution                                           *)
(* ------------------------------------------------------------------ *)

(* Methods that hit each runtime error the interpreter reports, plus
   records, strings, early exits and a timeout.  [bothRaise*] pin which
   error wins when both operands of a binary operator raise. *)
let runtime_error_sources =
  [ {|method divZero(int x) : int { int y = x - x; return x / y; }|};
    {|method modZero(int x) : int { if (x > 3) { return x % (x - x); } return x; }|};
    {|method loadOutOfBounds(int[] a, int i) : int { return a[i]; }|};
    {|method storeOutOfBounds(int[] a) : int[] { a[a.length] = 1; return a; }|};
    {|method badNew(int n) : int { int[] b = new int[n * 5000]; return b.length; }|};
    {|method missingField(int x) : int { obj o = {a: x, b: 2}; o.a = o.a + 1; if (x > 0) { return o.c; } return o.a; }|};
    {|method missingStore(int x) : int { obj o = {a: x}; o.b = x; return o.a; }|};
    {|method readBeforeAssign(int x) : int { if (x > 0) { int y = x; } return y; }|};
    {|method negativePow(int x) : int { return pow(2, x); }|};
    {|method substrings(string s, int i) : string { return substring(s, i, 2) + charAt(s, i); }|};
    {|method ords(string s, int x) : int { return ord(s) + ord(chr(x)); }|};
    {|method unknownBuiltin(int x) : int { return frobnicate(x, x); }|};
    {|method bothRaise(int x) : int { return (x / 0) + (x % 0); }|};
    {|method bothRaiseTypes(int x, string s) : int { return (s - x) + (x / 0); }|};
    {|method bothRaiseDiv(int x) : int { return (x % 0) / (x / 0); }|};
    {|method bothRaiseCmp(int x) : bool { return (x / 0) < (x % 0); }|};
    {|method bothRaiseCond(int x) : int { if ((x % 0) == (x / 0)) { return 1; } return 0; }|};
    {|method operandOrder(int x) : int { if (x > 0) { return zz[x / 0]; } if (x < 0) { return pow(x / 0, x % 0); } int[] a = [x / x, x % x]; return -(x % x); }|};
    {|method storeOrder(int[] a, int x) : int { if (x > 0) { zz[x / 0] = x % 0; } a[x / 0] = x % 0; return 0; }|};
    {|method typeErrors(int x, string s) : int { if (x > 0) { return s * x; } return x.length; }|};
    {|method boolErrors(int x) : bool { return x > 2 && x; }|};
    {|method notAnArray(int x) : int { return x[0]; }|};
    {|method arrayLiteral(int x, bool b) : int[] { if (b) { int[] a = [x, b]; } int[] c = [x, x + 1]; return c; }|};
    {|method equalities(int[] a, string s, bool b) : bool { string t = s + "z"; bool e = a == [1, 2]; return (t != s) == e || b; }|};
    {|method noReturn(int x) : int { if (x > 0) { return x; } x = 1; }|};
    {|method spin(int x) : int { while (x != 12345) { x = x + 1; } return x; }|};
    {|method loops(int[] a) : int { int s = 0; for (int i = 0; i < a.length; i++) { if (a[i] < 0) { continue; } if (a[i] > 9) { break; } s += a[i]; } int j = 0; while (true) { j++; if (j > 3) { break; } } return s + j; }|} ]

let pinned_exec_methods () =
  let gen =
    Liger_dataset.Javagen.generate (Liger_tensor.Rng.create 6) ~n:40
    |> List.map (fun (it : Liger_dataset.Javagen.item) ->
           it.Liger_dataset.Javagen.candidate.Liger_testgen.Filter.meth)
  in
  gen @ List.map parse runtime_error_sources

(* Every method on 20 seeded random argument vectors, as test generation
   runs it: the outcome with its message, the step count, the path key,
   the covered lines and every kept step (sid relative to the method's
   first, branch, full state). *)
let exec_transcript () =
  let buf = Buffer.create (1 lsl 20) in
  let values vs = String.concat "," (List.map Value.to_display vs) in
  List.iteri
    (fun i m ->
      Printf.bprintf buf "%s\n" m.Ast.mname;
      let base = ref max_int in
      Ast.iter_stmts (fun st -> base := min !base st.Ast.sid) m.Ast.body;
      let rng = Liger_tensor.Rng.create (7000 + i) in
      for _ = 1 to 20 do
        let args = Liger_testgen.Randgen.args rng m in
        let t = Exec_trace.collect ~fuel:8000 ~keep_steps:64 m args in
        let outcome =
          match t.Exec_trace.outcome with
          | Interp.Returned v -> Value.to_display v
          | Interp.Timeout -> "timeout"
          | Interp.Crashed msg -> "crash " ^ msg
        in
        let h, n = Exec_trace.path_key t in
        Printf.bprintf buf " %s -> %s steps=%d key=%d/%d lines=%s\n" (values args) outcome
          t.Exec_trace.n_steps h n
          (String.concat "," (List.map string_of_int t.Exec_trace.lines));
        List.iter
          (fun (s : Interp.step) ->
            Printf.bprintf buf "  %d%s" (s.Interp.step_sid - !base)
              (match s.Interp.step_branch with None -> "" | Some b -> if b then "t" else "f");
            List.iter
              (fun (x, v) ->
                Printf.bprintf buf " %s=%s" x
                  (match v with Some v -> Value.to_display v | None -> "_"))
              s.Interp.step_env;
            Buffer.add_char buf '\n')
          t.Exec_trace.steps
      done)
    (pinned_exec_methods ());
  Buffer.contents buf

let test_pinned_execution () =
  Alcotest.(check string) "execution digest" "9fccf47bd25377aa9f40b9aa56399e8d"
    (Digest.to_hex (Digest.string (exec_transcript ())))

let () =
  Alcotest.run "trace"
    [
      ( "exec_trace",
        [
          Alcotest.test_case "pinned execution digest" `Quick test_pinned_execution;
          Alcotest.test_case "copies kept steps only" `Quick test_collect_copies_kept_steps_only;
          Alcotest.test_case "signatures distinguish paths" `Quick test_signatures_distinguish_paths;
          Alcotest.test_case "state projection" `Quick test_state_trace_projection;
          Alcotest.test_case "states follow in-place updates" `Quick
            test_states_follow_in_place_updates;
          Alcotest.test_case "lines covered" `Quick test_lines_covered;
          Alcotest.test_case "crash not ok" `Quick test_crashing_trace_not_ok;
          Alcotest.test_case "figure-2 display" `Quick test_display_renders_states;
        ] );
      ( "blended",
        [
          Alcotest.test_case "group by path" `Quick test_group_by_path;
          Alcotest.test_case "states align" `Quick test_blended_states_align;
          Alcotest.test_case "drops crashes" `Quick test_blended_drops_crashes;
          Alcotest.test_case "limit concrete" `Quick test_limit_concrete;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "total executions" `Quick test_total_executions;
        ] );
      ( "vocab",
        [
          Alcotest.test_case "intern/freeze" `Quick test_vocab_intern_and_freeze;
          Alcotest.test_case "name roundtrip" `Quick test_vocab_name_roundtrip;
          Alcotest.test_case "special tokens" `Quick test_vocab_special_tokens;
          Alcotest.test_case "growth" `Quick test_vocab_growth;
          Alcotest.test_case "save/load" `Quick test_vocab_save_load;
          Alcotest.test_case "load rejects garbage" `Quick test_vocab_load_rejects_garbage;
        ] );
      ( "encode",
        [
          Alcotest.test_case "int tokens" `Quick test_int_tokens;
          Alcotest.test_case "array tokens" `Quick test_value_tokens_array;
          Alcotest.test_case "bot token" `Quick test_value_tokens_bot;
          Alcotest.test_case "flatten cap" `Quick test_value_tokens_cap;
          Alcotest.test_case "string tokens" `Quick test_value_tokens_string;
          Alcotest.test_case "object tokens" `Quick test_value_tokens_object;
          Alcotest.test_case "i+=i vs i*=2 trees differ" `Quick test_stmt_tree_equivalent_stmts_differ;
          Alcotest.test_case "branch leaves" `Quick test_stmt_tree_branch_leaf;
          Alcotest.test_case "method tree" `Quick test_meth_tree_size;
          Alcotest.test_case "register blended" `Quick test_register_blended_builds_vocab;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "counts" `Quick test_coverage_counts;
          Alcotest.test_case "partial" `Quick test_coverage_partial;
          Alcotest.test_case "preserves lines" `Quick test_preserves_lines;
        ] );
      ( "mincover",
        [
          Alcotest.test_case "greedy minimal" `Quick test_greedy_cover_minimal;
          Alcotest.test_case "drops redundant" `Quick test_greedy_cover_drops_redundant;
          Alcotest.test_case "reduction order prefixes" `Quick
            test_reduction_order_prefix_preserves_coverage;
        ] );
      ("qcheck", qcheck_cases);
    ]
