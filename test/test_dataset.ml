(* Tests for the dataset substrate: template health (every variant parses,
   typechecks, runs, and is coverable), corpus generation, the COSET
   differential filter, splits, and the end-to-end pipeline. *)

open Liger_lang
open Liger_tensor
open Liger_testgen
open Liger_dataset
open Liger_core

let quick_budget =
  { Feedback.max_attempts = 120; target_paths = 6; per_path = 3; fuel = 8_000 }

(* ------------------------------------------------------------------ *)
(* Templates                                                           *)
(* ------------------------------------------------------------------ *)

let all_variants =
  List.concat_map
    (fun (t : Templates.t) ->
      List.map (fun (v : Templates.variant) -> (t, v)) t.Templates.variants)
    Templates.all

let test_templates_parse_and_typecheck () =
  List.iter
    (fun ((t : Templates.t), (v : Templates.variant)) ->
      let m =
        try Parser.method_of_string v.Templates.source
        with Parser.Parse_error (msg, line) ->
          Alcotest.failf "%s/%s: parse error line %d: %s" t.Templates.base_name
            v.Templates.algo line msg
      in
      (match Typecheck.check m with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s/%s: type error line %d: %s" t.Templates.base_name
            v.Templates.algo e.Typecheck.line e.Typecheck.msg);
      Alcotest.(check bool)
        (Printf.sprintf "%s big enough" t.Templates.base_name)
        true
        (Ast.stmt_count m >= 3))
    all_variants

let test_templates_generate_traces () =
  let rng = Rng.create 100 in
  List.iter
    (fun ((t : Templates.t), (v : Templates.variant)) ->
      let m = Parser.method_of_string v.Templates.source in
      let r = Feedback.generate ~budget:quick_budget (Rng.split rng) m in
      if r.Feedback.gave_up then
        Alcotest.failf "%s/%s: test generation produced nothing" t.Templates.base_name
          v.Templates.algo;
      let bs = Feedback.blended m r in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s has at least 2 paths" t.Templates.base_name v.Templates.algo)
        true
        (List.length bs >= 2 || Ast.stmt_count m <= 5))
    all_variants

let test_templates_variants_agree_on_name () =
  (* all variants of a template implement the same task; differential-test
     a few pairs with shared inputs *)
  let rng = Rng.create 101 in
  List.iter
    (fun (t : Templates.t) ->
      match t.Templates.variants with
      | v1 :: v2 :: _ ->
          let m1 = Parser.method_of_string v1.Templates.source in
          let m2 = Parser.method_of_string v2.Templates.source in
          for _ = 1 to 15 do
            let args = Randgen.args rng m1 in
            let o1 = Interp.run m1 args and o2 = Interp.run m2 args in
            let agree =
              match (o1, o2) with
              | Interp.Returned a, Interp.Returned b -> Value.equal a b
              | Interp.Crashed _, Interp.Crashed _ -> true
              | Interp.Timeout, _ | _, Interp.Timeout -> true
              | _ -> false
            in
            if not agree then
              Alcotest.failf "%s: %s and %s disagree on %s" t.Templates.base_name
                v1.Templates.algo v2.Templates.algo
                (String.concat ", " (List.map Value.to_display args))
          done
      | _ -> ())
    Templates.all

let test_template_inventory () =
  Alcotest.(check bool) "at least 55 templates" true (List.length Templates.all >= 55);
  Alcotest.(check bool) "at least 75 variants" true (List.length all_variants >= 75);
  Alcotest.(check int) "ten coset problems" 10 (List.length Templates.coset_problems);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "problem %s has templates" p)
        true
        (Templates.by_problem p <> []))
    Templates.coset_problems

let test_synonyms_share_subtokens () =
  (* at least one synonym of each template shares a sub-token with the
     base name (otherwise the naming task is unlearnable) *)
  List.iter
    (fun (t : Templates.t) ->
      let base = Subtoken.split t.Templates.base_name in
      let shares name = Subtoken.overlap (Subtoken.split name) base > 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s synonyms overlap" t.Templates.base_name)
        true
        (List.exists shares t.Templates.synonyms))
    Templates.all

(* ------------------------------------------------------------------ *)
(* Javagen                                                             *)
(* ------------------------------------------------------------------ *)

let test_javagen_determinism () =
  let gen seed = Javagen.generate (Rng.create seed) ~n:30 in
  let names items = List.map (fun (it : Javagen.item) -> it.Javagen.candidate.Filter.meth.Ast.mname) items in
  Alcotest.(check (list string)) "deterministic" (names (gen 5)) (names (gen 5));
  Alcotest.(check bool) "seed-sensitive" true (names (gen 5) <> names (gen 6))

let test_javagen_contains_noise () =
  let items = Javagen.generate (Rng.create 7) ~n:400 in
  let broken =
    List.filter
      (fun (it : Javagen.item) -> not (Typecheck.is_well_typed it.Javagen.candidate.Filter.meth))
      items
  in
  let external_ =
    List.filter (fun (it : Javagen.item) -> it.Javagen.candidate.Filter.uses_external) items
  in
  let tiny =
    List.filter
      (fun (it : Javagen.item) -> Ast.stmt_count it.Javagen.candidate.Filter.meth < 3)
      items
  in
  Alcotest.(check bool) "some broken" true (List.length broken > 0);
  Alcotest.(check bool) "some external" true (List.length external_ > 0);
  Alcotest.(check bool) "some tiny" true (List.length tiny > 0);
  Alcotest.(check bool) "mostly clean" true (List.length broken < 40)

let test_javagen_split_disjoint_projects () =
  let items = Javagen.generate (Rng.create 8) ~n:200 in
  let train, valid, test = Javagen.split_by_project items in
  Alcotest.(check int) "partition" 200
    (List.length train + List.length valid + List.length test);
  let projects l = List.sort_uniq compare (List.map (fun (it : Javagen.item) -> it.Javagen.project) l) in
  let inter a b = List.filter (fun x -> List.mem x b) a in
  Alcotest.(check (list int)) "train/test projects disjoint" [] (inter (projects train) (projects test));
  Alcotest.(check (list int)) "train/valid projects disjoint" [] (inter (projects train) (projects valid))

let test_javagen_name_diversity () =
  let items = Javagen.generate (Rng.create 9) ~n:300 in
  let names =
    List.sort_uniq compare
      (List.map (fun (it : Javagen.item) -> it.Javagen.candidate.Filter.meth.Ast.mname) items)
  in
  Alcotest.(check bool) "many distinct names" true (List.length names > 40)

(* ------------------------------------------------------------------ *)
(* Coset                                                               *)
(* ------------------------------------------------------------------ *)

let test_coset_classes_stable () =
  Alcotest.(check bool) "many classes" true (Coset.n_classes >= 20);
  Alcotest.(check int) "ids dense" Coset.n_classes
    (List.length (List.sort_uniq compare (List.map Coset.class_id Coset.classes)))

let test_coset_generate_clean () =
  let rng = Rng.create 10 in
  let items, dropped = Coset.generate rng ~n:25 in
  Alcotest.(check int) "asked amount" 25 (List.length items);
  Alcotest.(check bool) "some were dropped (injected bugs)" true (dropped >= 0);
  (* every kept program still agrees with its label's semantics: spot-check
     that all are well-typed and runnable *)
  List.iter
    (fun (it : Coset.item) ->
      Alcotest.(check bool) "well-typed" true (Typecheck.is_well_typed it.Coset.meth);
      Alcotest.(check bool) "class id in range" true
        (it.Coset.class_id >= 0 && it.Coset.class_id < Coset.n_classes))
    items

let test_coset_bug_injection_caught () =
  (* a program with a flipped comparison must usually fail differential
     testing against its reference *)
  let rng = Rng.create 11 in
  let reference =
    Parser.method_of_string
      {|
method findMax(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = a[0];
  for (int i = 1; i < a.length; i++) {
    if (a[i] > best) {
      best = a[i];
    }
  }
  return best;
}
|}
  in
  let buggy = Coset.inject_bug (Rng.create 99) reference in
  Alcotest.(check bool) "bug caught" false (Coset.passes_tests rng ~reference buggy)

let test_coset_split_proportions () =
  let rng = Rng.create 12 in
  let items, _ = Coset.generate rng ~n:50 in
  let train, valid, test = Coset.split rng items in
  Alcotest.(check int) "partition" 50
    (List.length train + List.length valid + List.length test);
  Alcotest.(check bool) "train biggest" true
    (List.length train > List.length valid && List.length train > List.length test)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let small_enc = { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3 }

let test_pipeline_naming () =
  let rng = Rng.create 13 in
  let corpus = Pipeline.build_naming ~enc_config:small_enc rng ~name:"tiny" ~n:40 in
  let n_train, n_valid, n_test = Pipeline.sizes corpus in
  Alcotest.(check bool) "some training data" true (n_train > 10);
  Alcotest.(check bool) "all splits populated" true (n_valid > 0 && n_test > 0);
  Alcotest.(check bool) "vocab frozen" true (Liger_trace.Vocab.is_frozen corpus.Pipeline.vocab);
  Alcotest.(check bool) "vocab nontrivial" true (Liger_trace.Vocab.size corpus.Pipeline.vocab > 50);
  List.iter
    (fun (ex : Common.enc_example) ->
      Alcotest.(check bool) "has traces" true (Array.length ex.Common.traces > 0);
      Alcotest.(check bool) "has target" true (ex.Common.target_ids <> []);
      Array.iter
        (fun (tr : Common.enc_trace) ->
          Alcotest.(check bool) "concrete within cap" true
            (tr.Common.n_concrete <= small_enc.Common.max_concrete);
          Alcotest.(check bool) "steps within cap" true
            (Array.length tr.Common.steps <= small_enc.Common.max_steps))
        ex.Common.traces)
    corpus.Pipeline.train;
  (* Table 1 shape: original >= filtered per split *)
  List.iter
    (fun (r : Stats.split_stats) ->
      Alcotest.(check bool) "original >= filtered" true (r.Stats.original >= r.Stats.filtered))
    corpus.Pipeline.stats.Stats.rows

(* The assembled corpus bits: for a naming corpus built at two seeds and at
   pool sizes 1 and 2, the MD5 of the vocabulary (tokens in id order) and
   of every encoded example of the three splits, marshalled without
   sharing so that two equal arrays and one shared array marshal alike.
   Recorded before the corpus build memoized tokenization and test runs;
   any change to how the front half of the pipeline schedules its work
   must leave both digests where they are. *)
let test_corpus_bits_pinned () =
  let module Par = Liger_parallel.Parallel in
  let digests seed =
    Common.reset_uids ();
    Ast.reset_sids ();
    let c = Pipeline.build_naming (Rng.create seed) ~name:"pinned" ~n:60 in
    let vocab =
      String.concat "\n" (List.map fst (Liger_trace.Vocab.to_list c.Pipeline.vocab))
    in
    let examples =
      Marshal.to_string (c.Pipeline.train, c.Pipeline.valid, c.Pipeline.test)
        [ Marshal.No_sharing ]
    in
    (Digest.to_hex (Digest.string vocab), Digest.to_hex (Digest.string examples))
  in
  let saved = Par.jobs () in
  Fun.protect
    ~finally:(fun () -> Par.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Par.set_jobs jobs;
          List.iter
            (fun (seed, vocab, examples) ->
              let v, e = digests seed in
              let what = Printf.sprintf "seed %d, jobs %d" seed jobs in
              Alcotest.(check string) (what ^ ": vocabulary") vocab v;
              Alcotest.(check string) (what ^ ": encoded examples") examples e)
            [
              (1, "db4909d2b58b6f74fb6980932df7896e", "06801bcd03a59c41ff69a441351f8ade");
              (2, "4c9d4ffaba1cf18ab70b5cba079ada22", "50b8085d4eade5b5ff6925bc4a714bbe");
            ])
        [ 1; 2 ])

let test_pipeline_coset () =
  let rng = Rng.create 14 in
  let corpus = Pipeline.build_coset ~enc_config:small_enc rng ~n:30 in
  let n_train, _, _ = Pipeline.sizes corpus in
  Alcotest.(check bool) "training data" true (n_train > 5);
  List.iter
    (fun (ex : Common.enc_example) ->
      match ex.Common.label with
      | Common.Class c ->
          Alcotest.(check bool) "class target matches" true (ex.Common.target_ids = [ c ])
      | _ -> Alcotest.fail "expected class labels")
    corpus.Pipeline.train

let test_pipeline_unseen_tokens_map_to_unk () =
  let rng = Rng.create 15 in
  let corpus = Pipeline.build_naming ~enc_config:small_enc rng ~name:"tiny" ~n:30 in
  (* test examples were encoded with a frozen vocab: ids are all in range *)
  let check_ids (ex : Common.enc_example) =
    Array.iter
      (fun (tr : Common.enc_trace) ->
        Array.iter
          (fun (st : Common.enc_step) ->
            Array.iter
              (fun (state : int array array) ->
                Array.iter
                  (fun (var : int array) ->
                    Array.iter
                      (fun id ->
                        Alcotest.(check bool) "id in range" true
                          (id >= 0 && id < Liger_trace.Vocab.size corpus.Pipeline.vocab))
                      var)
                  state)
              st.Common.var_tokens)
          tr.Common.steps)
      ex.Common.traces
  in
  List.iter check_ids corpus.Pipeline.test

(* ------------------------------------------------------------------ *)
(* Semantic probing labels                                             *)
(* ------------------------------------------------------------------ *)

let probing_src =
  {|
method f(int n) : int {
  int s = 0;
  int d = 7;
  if (n > 0) {
    s = n;
  }
  return s;
}
|}

let test_probing_labels_exact () =
  let m = Parser.method_of_string probing_src in
  let labels = Probing.label_method m in
  let sid_of pred = (List.find (fun s -> pred s.Ast.node) (Ast.all_stmts m)).Ast.sid in
  let decl_s = sid_of (function Ast.Decl (_, "s", _) -> true | _ -> false) in
  let decl_d = sid_of (function Ast.Decl (_, "d", _) -> true | _ -> false) in
  let branch = sid_of (function Ast.If _ -> true | _ -> false) in
  let assign = sid_of (function Ast.Assign ("s", _) -> true | _ -> false) in
  let ret = sid_of (function Ast.Return _ -> true | _ -> false) in
  let cls sid task =
    match
      List.find_opt (fun e -> e.Probing.p_sid = sid && e.Probing.p_task = task) labels
    with
    | Some e -> e.Probing.p_class
    | None -> Alcotest.failf "no %s label for #%d" (Probing.task_name task) sid
  in
  (* live-after: s flows to the return, d is dead *)
  Alcotest.(check int) "s live after decl" 1 (cls decl_s Probing.Live_after);
  Alcotest.(check int) "d dead after decl" 0 (cls decl_d Probing.Live_after);
  Alcotest.(check int) "s live after assign" 1 (cls assign Probing.Live_after);
  (* dominating-branch: only the then-arm sits under a decision *)
  Alcotest.(check int) "assign under branch" 1 (cls assign Probing.Dominating_branch);
  Alcotest.(check int) "branch itself is not" 0 (cls branch Probing.Dominating_branch);
  Alcotest.(check int) "return is not" 0 (cls ret Probing.Dominating_branch);
  (* always-reached: everything but the conditional arm dominates exit *)
  Alcotest.(check int) "decl always reached" 1 (cls decl_s Probing.Always_reached);
  Alcotest.(check int) "branch always reached" 1 (cls branch Probing.Always_reached);
  Alcotest.(check int) "assign conditional" 0 (cls assign Probing.Always_reached);
  Alcotest.(check int) "return always reached" 1 (cls ret Probing.Always_reached);
  (* sign-at-exit: s = 0 is zero, d = 7 positive, s = n under n > 0 positive *)
  Alcotest.(check int) "s zero at decl" 1 (cls decl_s Probing.Sign_at_exit);
  Alcotest.(check int) "d positive" 2 (cls decl_d Probing.Sign_at_exit);
  Alcotest.(check int) "s positive after guard" 2 (cls assign Probing.Sign_at_exit);
  (* the If and Return define nothing: no live-after / sign labels *)
  Alcotest.(check bool) "no def labels on branch" true
    (List.for_all
       (fun e -> not (e.Probing.p_sid = branch && e.Probing.p_task = Probing.Live_after))
       labels);
  (* tallies cover every class-indexed bucket *)
  let t = Probing.tally Probing.Live_after labels in
  Alcotest.(check int) "live-after labels" 3 (Array.fold_left ( + ) 0 t)

let test_probing_labels_total () =
  (* every reachable statement gets the two control-flow labels, and label
     classes stay within range on a generated corpus slice *)
  let items = Javagen.generate (Rng.create 5) ~n:10 in
  List.iter
    (fun (it : Javagen.item) ->
      let labels = Probing.label_method it.Javagen.candidate.Filter.meth in
      List.iter
        (fun e ->
          Alcotest.(check bool) "class in range" true
            (e.Probing.p_class >= 0 && e.Probing.p_class < Probing.classes e.Probing.p_task))
        labels)
    items

let () =
  Alcotest.run "dataset"
    [
      ( "templates",
        [
          Alcotest.test_case "parse+typecheck" `Quick test_templates_parse_and_typecheck;
          Alcotest.test_case "generate traces" `Slow test_templates_generate_traces;
          Alcotest.test_case "variants agree" `Quick test_templates_variants_agree_on_name;
          Alcotest.test_case "inventory" `Quick test_template_inventory;
          Alcotest.test_case "synonyms share subtokens" `Quick test_synonyms_share_subtokens;
        ] );
      ( "javagen",
        [
          Alcotest.test_case "determinism" `Quick test_javagen_determinism;
          Alcotest.test_case "noise present" `Quick test_javagen_contains_noise;
          Alcotest.test_case "project splits" `Quick test_javagen_split_disjoint_projects;
          Alcotest.test_case "name diversity" `Quick test_javagen_name_diversity;
        ] );
      ( "coset",
        [
          Alcotest.test_case "classes" `Quick test_coset_classes_stable;
          Alcotest.test_case "generate clean" `Slow test_coset_generate_clean;
          Alcotest.test_case "bug caught" `Quick test_coset_bug_injection_caught;
          Alcotest.test_case "split" `Slow test_coset_split_proportions;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "naming corpus" `Slow test_pipeline_naming;
          Alcotest.test_case "coset corpus" `Slow test_pipeline_coset;
          Alcotest.test_case "frozen vocab ids" `Slow test_pipeline_unseen_tokens_map_to_unk;
          Alcotest.test_case "assembled corpus bits pinned" `Slow test_corpus_bits_pinned;
        ] );
      ( "probing",
        [
          Alcotest.test_case "exact labels" `Quick test_probing_labels_exact;
          Alcotest.test_case "generated corpus labels" `Quick test_probing_labels_total;
        ] );
    ]
