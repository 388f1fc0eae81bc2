(* Additional evaluation-layer tests: training-loop edge cases, report
   rendering, experiment plumbing and cross-layer invariants that the other
   suites do not cover. *)

open Liger_tensor
open Liger_core
open Liger_eval
open Liger_dataset

let enc = { Common.max_paths = 3; max_concrete = 2; max_steps = 10 }

let corpus =
  lazy (Pipeline.build_naming ~enc_config:enc (Rng.create 8787) ~name:"eval-corpus" ~n:40)

(* ------------------------------------------------------------------ *)
(* Train loop edges                                                    *)
(* ------------------------------------------------------------------ *)

let test_fit_empty_train () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 1 }
      (Rng.create 1) wrapper ~train:[] ~valid:(List.filteri (fun i _ -> i < 2) c.Pipeline.valid)
  in
  Alcotest.(check int) "one epoch recorded" 1 (List.length history.Train.train_losses)

let test_eval_every_skips_validation () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let train = List.filteri (fun i _ -> i < 4) c.Pipeline.train in
  let valid = List.filteri (fun i _ -> i < 2) c.Pipeline.valid in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 4; eval_every = 2 }
      (Rng.create 2) wrapper ~train ~valid
  in
  Alcotest.(check int) "half the validations" 2 (List.length history.Train.valid_scores)

let test_score_empty_examples () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Train.score wrapper [])

(* ------------------------------------------------------------------ *)
(* Metrics edge cases                                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_empty_prediction () =
  let p = Metrics.name_prf [ ([], [ "a" ]) ] in
  Alcotest.(check (float 0.0)) "precision 0" 0.0 p.Metrics.precision;
  Alcotest.(check (float 0.0)) "recall 0" 0.0 p.Metrics.recall;
  Alcotest.(check (float 0.0)) "f1 0" 0.0 p.Metrics.f1

let test_metrics_empty_set () =
  let p = Metrics.name_prf [] in
  Alcotest.(check (float 0.0)) "vacuous" 0.0 p.Metrics.f1;
  Alcotest.(check (float 0.0)) "empty accuracy" 0.0 (Metrics.accuracy []);
  Alcotest.(check (float 0.0)) "empty macro f1" 0.0 (Metrics.macro_f1 [])

let test_metrics_duplicate_tokens () =
  (* prediction with a duplicated correct token: one counts, one is fp *)
  let p = Metrics.name_prf [ ([ "sum"; "sum" ], [ "sum"; "array" ]) ] in
  Alcotest.(check (float 1e-9)) "precision 1/2" 0.5 p.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall 1/2" 0.5 p.Metrics.recall

(* ------------------------------------------------------------------ *)
(* Views and sweeps                                                    *)
(* ------------------------------------------------------------------ *)

let test_view_monotone_executions () =
  let c = Lazy.force corpus in
  List.iter
    (fun ex ->
      let prev = ref 0 in
      for n = 1 to 4 do
        let e = Common.executions_in_view { Common.n_paths = max_int; n_concrete = n } ex in
        Alcotest.(check bool) "monotone in concrete" true (e >= !prev);
        prev := e
      done;
      let prev = ref 0 in
      for p = 1 to 5 do
        let e = Common.executions_in_view { Common.n_paths = p; n_concrete = max_int } ex in
        Alcotest.(check bool) "monotone in paths" true (e >= !prev);
        prev := e
      done)
    (Lazy.force corpus).Pipeline.train |> ignore;
  ignore c

let test_run_result_records_view_stats () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; epochs = 1; dim = 6;
      concrete_points = [ 2; 1 ]; symbolic_points = [ 2; 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let full = Experiments.run ctx ~corpus:`Med ~kind:Zoo.liger_full ~view:Common.full_view in
  let reduced =
    Experiments.run ctx ~corpus:`Med ~kind:Zoo.liger_full
      ~view:{ Common.n_paths = 1; n_concrete = 1 }
  in
  Alcotest.(check bool) "fewer executions under reduction" true
    (reduced.Experiments.avg_executions < full.Experiments.avg_executions);
  Alcotest.(check bool) "fewer paths under reduction" true
    (reduced.Experiments.avg_paths <= full.Experiments.avg_paths);
  Alcotest.(check bool) "score defined" true
    (Float.is_finite (Experiments.score_of full))

let test_view_normalization_hits_cache () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; epochs = 1; dim = 6;
      concrete_points = [ 2; 1 ]; symbolic_points = [ 2; 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let a = Experiments.run ctx ~corpus:`Med ~kind:Zoo.liger_full ~view:Common.full_view in
  (* a view at the caps must be the same cached run as full_view *)
  let b =
    Experiments.run ctx ~corpus:`Med ~kind:Zoo.liger_full
      ~view:{ Common.n_paths = enc.Common.max_paths; n_concrete = enc.Common.max_concrete }
  in
  Alcotest.(check bool) "normalized view cached" true (a == b)

(* Every experiment kind's name, and the name its wrapper trains under.
   The names are part of the run keys, which seed each point's generator,
   so a renamed kind would move every table.  Each artefact below trains
   only kinds the ones before it have not, so the [train.loss] gauges
   recorded during one artefact are exactly its new wrappers' names. *)
let test_kind_and_wrapper_names_pinned () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; Experiments.large_n = 40;
      epochs = 1; dim = 6; concrete_points = [ 1 ]; symbolic_points = [ 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let models (rs : Experiments.run_result list) = List.map (fun r -> r.Experiments.model) rs in
  let series ss = List.map (fun s -> s.Experiments.series_name) ss in
  let wrappers_trained f =
    Liger_obs.Metrics.enable ();
    Liger_obs.Metrics.reset_prefix "train.";
    let x = Fun.protect ~finally:Liger_obs.Metrics.disable f in
    let names =
      List.map
        (fun e -> List.assoc "model" e.Liger_obs.Metrics.e_labels)
        (Liger_obs.Metrics.entries_with (Liger_obs.Metrics.snapshot ()) "train.loss")
    in
    (x, List.sort compare names)
  in
  let table2, t2_wrappers = wrappers_trained (fun () -> Experiments.table2 ctx) in
  List.iter
    (fun (dataset, rows) ->
      Alcotest.(check (list string)) ("table 2 kinds, " ^ dataset)
        [ "code2vec"; "code2seq"; "DYPRO"; "LiGer" ] (models rows))
    table2;
  Alcotest.(check (list string)) "table 2 wrappers"
    [ "DYPRO"; "LiGer"; "code2seq"; "code2vec" ] t2_wrappers;
  let fig11, f11_wrappers = wrappers_trained (fun () -> Experiments.fig11 ctx) in
  List.iter
    (fun (dataset, ss) ->
      Alcotest.(check (list string)) ("figure 11 kinds, " ^ dataset)
        [ "LiGer"; "LiGer-nostatic"; "LiGer-nodynamic"; "LiGer-noattention"; "DYPRO" ]
        (series ss))
    fig11;
  Alcotest.(check (list string)) "figure 11 wrappers"
    [ "DYPRO"; "LiGer"; "LiGer-noattention"; "LiGer-nodynamic"; "LiGer-nostatic" ]
    f11_wrappers;
  let design, design_wrappers =
    wrappers_trained (fun () -> Experiments.design_ablation ctx)
  in
  Alcotest.(check (list string)) "design ablation kinds" [ "LiGer"; "LiGer-vanillaF3" ]
    (models design);
  Alcotest.(check (list string)) "design ablation wrappers" [ "LiGer-vanillaF3" ]
    design_wrappers

(* ------------------------------------------------------------------ *)
(* Report rendering (smoke: must not raise, must mention the models)   *)
(* ------------------------------------------------------------------ *)

let capture f =
  let buf = Filename.temp_file "liger" ".out" in
  let fd = Unix.openfile buf [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in buf in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove buf;
  s

(* ------------------------------------------------------------------ *)
(* Semantic probing                                                    *)
(* ------------------------------------------------------------------ *)

let test_probe_readout_smoke () =
  (* an (untrained) frozen encoder still yields a full probe report: every
     task with data gets a row, counts are positive and scores are rates *)
  let c = Lazy.force corpus in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let _, model =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let report =
    Probe.probe ~epochs:3 (Rng.create 3) (Probe.of_liger model)
      ~train:(take 12 c.Pipeline.train) ~test:(take 6 c.Pipeline.valid)
  in
  Alcotest.(check string) "model name" "LiGer" report.Probe.model;
  Alcotest.(check bool) "at least three tasks" true (List.length report.Probe.rows >= 3);
  List.iter
    (fun (r : Probe.row) ->
      Alcotest.(check bool) "train examples" true (r.Probe.r_train > 0);
      Alcotest.(check bool) "test examples" true (r.Probe.r_test > 0);
      Alcotest.(check bool) "majority is a rate" true
        (r.Probe.r_majority >= 0.0 && r.Probe.r_majority <= 1.0);
      Alcotest.(check bool) "accuracy is a rate" true
        (r.Probe.r_accuracy >= 0.0 && r.Probe.r_accuracy <= 1.0))
    report.Probe.rows;
  let table = Probe.render [ report ] in
  Alcotest.(check string) "table header" "task" (String.sub table 0 4);
  Alcotest.(check int) "one line per row" (2 + List.length report.Probe.rows)
    (List.length (String.split_on_char '\n' table))

(* Each example's frozen embeddings do not depend on the rest of its
   batch, so the probe table is byte-for-byte the same whether a split is
   embedded in chunks or one example at a time. *)
let test_probe_batch_independent () =
  let c = Lazy.force corpus in
  let vocab = c.Pipeline.vocab in
  let config = { Liger_model.default_config with Liger_model.dim = 6 } in
  let _, liger = Zoo.liger ~config ~vocab Liger_model.Naming in
  let _, dypro = Zoo.dypro ~dim:6 ~vocab Liger_model.Naming in
  let one_at_a_time (emb : Probe.embedder) =
    { emb with Probe.e_embed = Array.map (fun ex -> (emb.Probe.e_embed [| ex |]).(0)) }
  in
  let table embedders =
    Probe.render
      (List.map
         (fun emb ->
           Probe.probe ~epochs:3 (Rng.create 3) emb ~train:c.Pipeline.train ~test:c.Pipeline.test)
         embedders)
  in
  if List.length c.Pipeline.train <= Probe.chunk then
    Alcotest.fail "the train split fits one chunk: nothing is batched";
  let batched = [ Probe.of_liger liger; Probe.of_dypro dypro ] in
  let split = Array.of_list c.Pipeline.train in
  List.iter
    (fun (emb : Probe.embedder) ->
      if emb.Probe.e_embed split <> (one_at_a_time emb).Probe.e_embed split then
        Alcotest.failf "%s: batched embeddings differ from one-lane ones" emb.Probe.e_name)
    batched;
  Alcotest.(check string) "probe_accuracy.txt" (table batched)
    (table (List.map one_at_a_time batched))

let test_report_table2_renders () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; Experiments.large_n = 40;
      epochs = 1; dim = 6; concrete_points = [ 1 ]; symbolic_points = [ 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let fake =
    [ ("Java-med*",
       [ Experiments.run ctx ~corpus:`Med ~kind:Zoo.liger_full ~view:Common.full_view ]) ]
  in
  let out = capture (fun () -> Report.print_table2 fake) in
  Alcotest.(check bool) "mentions model" true
    (let contains hay needle =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains out "LiGer" && contains out "Precision")

let () =
  Alcotest.run "eval"
    [
      ( "train",
        [
          Alcotest.test_case "empty train" `Slow test_fit_empty_train;
          Alcotest.test_case "eval_every" `Slow test_eval_every_skips_validation;
          Alcotest.test_case "empty score" `Slow test_score_empty_examples;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "empty prediction" `Quick test_metrics_empty_prediction;
          Alcotest.test_case "empty set" `Quick test_metrics_empty_set;
          Alcotest.test_case "duplicate tokens" `Quick test_metrics_duplicate_tokens;
        ] );
      ( "views",
        [
          Alcotest.test_case "monotone executions" `Slow test_view_monotone_executions;
          Alcotest.test_case "view stats recorded" `Slow test_run_result_records_view_stats;
          Alcotest.test_case "view normalization" `Slow test_view_normalization_hits_cache;
          Alcotest.test_case "kind and wrapper names pinned" `Slow
            test_kind_and_wrapper_names_pinned;
        ] );
      ("report", [ Alcotest.test_case "table2 renders" `Slow test_report_table2_renders ]);
      ( "probe",
        [
          Alcotest.test_case "readout smoke" `Slow test_probe_readout_smoke;
          Alcotest.test_case "table independent of batching" `Slow test_probe_batch_independent;
        ] );
    ]
