(* Tests for the models and evaluation machinery: metric definitions against
   the paper's worked examples, loss/gradient plumbing for all four models,
   ablation configurations, view-based down-sampling and the training loop's
   best-epoch restore. *)

open Liger_tensor
open Liger_core
open Liger_dataset
open Liger_eval

(* one small shared corpus for all model tests (built once) *)
let enc = { Common.max_paths = 3; max_concrete = 3; max_steps = 12 }

let corpus =
  lazy (Pipeline.build_naming ~enc_config:enc (Rng.create 4242) ~name:"test-corpus" ~n:50)

let coset_corpus = lazy (Pipeline.build_coset ~enc_config:enc (Rng.create 5151) ~n:24)

(* ------------------------------------------------------------------ *)
(* Metrics: the paper's worked examples (6.1.1)                        *)
(* ------------------------------------------------------------------ *)

let feq a b = Float.abs (a -. b) < 1e-9

let test_metric_paper_examples () =
  let target = [ "compute"; "diff" ] in
  (* diffCompute: perfect *)
  let p = Metrics.name_prf [ ([ "diff"; "compute" ], target) ] in
  Alcotest.(check bool) "order ignored" true (feq p.Metrics.f1 1.0);
  (* compute: full precision, low recall *)
  let p = Metrics.name_prf [ ([ "compute" ], target) ] in
  Alcotest.(check bool) "full precision" true (feq p.Metrics.precision 1.0);
  Alcotest.(check bool) "half recall" true (feq p.Metrics.recall 0.5);
  (* computeFileDiff: full recall, low precision *)
  let p = Metrics.name_prf [ ([ "compute"; "file"; "diff" ], target) ] in
  Alcotest.(check bool) "full recall" true (feq p.Metrics.recall 1.0);
  Alcotest.(check bool) "precision 2/3" true (feq p.Metrics.precision (2.0 /. 3.0))

let test_metric_case_insensitive () =
  let p = Metrics.name_prf [ ([ "Compute"; "DIFF" ], [ "compute"; "diff" ]) ] in
  Alcotest.(check bool) "case insensitive" true (feq p.Metrics.f1 1.0)

let test_metric_micro_aggregation () =
  (* two examples: one perfect (2 tokens), one empty prediction (1 token) *)
  let p = Metrics.name_prf [ ([ "a"; "b" ], [ "a"; "b" ]); ([], [ "c" ]) ] in
  Alcotest.(check bool) "micro recall 2/3" true (feq p.Metrics.recall (2.0 /. 3.0))

let test_metric_classification () =
  let pairs = [ (0, 0); (1, 1); (1, 0); (2, 2) ] in
  Alcotest.(check bool) "accuracy 3/4" true (feq (Metrics.accuracy pairs) 0.75);
  Alcotest.(check bool) "macro f1 in (0,1)" true
    (Metrics.macro_f1 pairs > 0.0 && Metrics.macro_f1 pairs < 1.0);
  Alcotest.(check bool) "perfect macro f1" true
    (feq (Metrics.macro_f1 [ (0, 0); (1, 1) ]) 1.0)

(* ------------------------------------------------------------------ *)
(* LiGer model                                                         *)
(* ------------------------------------------------------------------ *)

let first_example () = List.hd (Lazy.force corpus).Pipeline.train

(* one example's 1×1 loss on a fresh tape *)
let one_lane_loss model (ex : Common.enc_example) =
  let tape = Batched.tape () in
  let enc = Liger_model.encode_batch model tape [| ex |] in
  (tape, Head.loss model.Liger_model.head tape enc ~targets:[| ex.Common.target_ids |])

let test_liger_loss_finite_and_backprops () =
  let c = Lazy.force corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 10 }
      c.Pipeline.vocab Liger_model.Naming
  in
  let tape, loss = one_lane_loss model (first_example ()) in
  let v = Batched.scalar_value loss in
  Alcotest.(check bool) "finite positive loss" true (Float.is_finite v && v > 0.0);
  Batched.backward tape loss;
  Alcotest.(check bool) "gradients flowed" true (Param.grad_norm (Liger_model.store model) > 0.0)

let test_liger_training_reduces_loss () =
  let c = Lazy.force corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 10 }
      c.Pipeline.vocab Liger_model.Naming
  in
  let opt = Optimizer.adam ~lr:3e-3 () in
  let examples = List.filteri (fun i _ -> i < 10) c.Pipeline.train in
  let epoch_loss () =
    List.fold_left
      (fun acc ex ->
        let tape, loss = one_lane_loss model ex in
        let v = Batched.scalar_value loss in
        Batched.backward tape loss;
        ignore (Optimizer.clip_grads (Liger_model.store model) ~max_norm:5.0);
        Optimizer.step opt (Liger_model.store model);
        acc +. v)
      0.0 examples
  in
  let first = epoch_loss () in
  for _ = 1 to 6 do
    ignore (epoch_loss ())
  done;
  let last = epoch_loss () in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.2f -> %.2f)" first last)
    true (last < first)

let test_liger_predictions_shape () =
  let c = Lazy.force corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 10 }
      c.Pipeline.vocab Liger_model.Naming
  in
  let toks = (Liger_model.predict_name_ids_batch model [| first_example () |]).(0) in
  Alcotest.(check bool) "bounded length" true (List.length toks <= 8);
  List.iter
    (fun t ->
      Alcotest.(check bool) "token nonempty" true
        (String.length (Liger_trace.Vocab.name c.Pipeline.vocab t) > 0))
    toks

let test_liger_ablation_configs_run () =
  let c = Lazy.force corpus in
  let ex = first_example () in
  List.iter
    (fun (static, dynamic, attention) ->
      let config =
        {
          Liger_model.default_config with
          Liger_model.dim = 8;
          use_static = static;
          use_dynamic = dynamic;
          use_attention = attention;
        }
      in
      let model = Liger_model.create ~config c.Pipeline.vocab Liger_model.Naming in
      let tape, loss = one_lane_loss model ex in
      Alcotest.(check bool) "finite" true (Float.is_finite (Batched.scalar_value loss));
      Batched.backward tape loss)
    [ (true, true, true); (false, true, true); (true, false, true); (true, true, false) ]

let test_liger_rejects_empty_config () =
  let c = Lazy.force corpus in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Liger_model.create
            ~config:{ Liger_model.default_config with Liger_model.use_static = false; use_dynamic = false }
            c.Pipeline.vocab Liger_model.Naming);
       false
     with Invalid_argument _ -> true)

let test_view_reduces_executions () =
  let ex = first_example () in
  let full = Common.executions_in_view Common.full_view ex in
  let reduced = Common.executions_in_view { Common.n_paths = 1; n_concrete = 1 } ex in
  Alcotest.(check bool) "fewer executions" true (reduced < full || full = 1);
  Alcotest.(check int) "single path single concrete" 1 reduced

let test_view_changes_encoding () =
  let c = Lazy.force corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 8 }
      c.Pipeline.vocab Liger_model.Naming
  in
  (* pick an example with >1 path so that the view matters *)
  let ex =
    List.find (fun (e : Common.enc_example) -> Array.length e.Common.traces > 1)
      c.Pipeline.train
  in
  let emb_full = (Liger_model.embed_programs model [| ex |]).(0) in
  let emb_small =
    (Liger_model.embed_programs model ~view:{ Common.n_paths = 1; n_concrete = 1 } [| ex |]).(0)
  in
  let differs = Array.exists2 (fun a b -> Float.abs (a -. b) > 1e-9) emb_full emb_small in
  Alcotest.(check bool) "embedding differs under view" true differs

let test_attention_stats_are_weights () =
  let c = Lazy.force corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 8 }
      c.Pipeline.vocab Liger_model.Naming
  in
  let stats = Liger_model.fusion_stats model [| first_example () |] in
  let w = Liger_model.mean_static_weight stats in
  if stats.Liger_model.fused_steps > 0 then
    Alcotest.(check bool) "weight in [0,1]" true (w >= 0.0 && w <= 1.0)

let test_liger_classification_head () =
  let c = Lazy.force coset_corpus in
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim = 8 }
      c.Pipeline.vocab (Liger_model.Classify Coset.n_classes)
  in
  let ex = List.hd c.Pipeline.train in
  let tape, loss = one_lane_loss model ex in
  Alcotest.(check bool) "finite" true (Float.is_finite (Batched.scalar_value loss));
  Batched.backward tape loss;
  match
    Batch_pack.infer
      (fun btape -> Liger_model.encode_batch model btape)
      [| ex |] (Head.predict model.Liger_model.head)
  with
  | [| [ cls ] |] -> Alcotest.(check bool) "class in range" true (cls >= 0 && cls < Coset.n_classes)
  | _ -> Alcotest.fail "not one class for one example"

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let smoke_model (wrapper : Train.model) ex =
  let tape = Batched.tape () in
  let loss = wrapper.Train.train_loss tape ex in
  Alcotest.(check bool)
    (wrapper.Train.name ^ " loss finite")
    true
    (Float.is_finite (Batched.scalar_value loss));
  Batched.backward tape loss;
  Alcotest.(check bool)
    (wrapper.Train.name ^ " grads flowed")
    true
    (Param.grad_norm wrapper.Train.store > 0.0);
  Param.zero_grads wrapper.Train.store;
  match (Train.batched_hooks wrapper).Train.predict_batch [| ex |] with
  | [| Train.Subtokens toks |] ->
      Alcotest.(check bool) "subtoken prediction" true (List.length toks <= 10)
  | [| Train.Class c |] -> Alcotest.(check bool) "class prediction" true (c >= 0)
  | _ -> Alcotest.fail "one prediction per example"

let test_dypro_smoke () =
  let c = Lazy.force corpus in
  smoke_model (fst (Zoo.dypro ~dim:8 ~vocab:c.Pipeline.vocab Liger_model.Naming)) (first_example ())

let test_code2vec_smoke () =
  let c = Lazy.force corpus in
  smoke_model (Zoo.code2vec ~dim:8 ~train:c.Pipeline.train Liger_model.Naming) (first_example ())

let test_code2seq_smoke () =
  let c = Lazy.force corpus in
  smoke_model (Zoo.code2seq ~dim:8 ~train:c.Pipeline.train Liger_model.Naming) (first_example ())

let test_baseline_class_heads () =
  let c = Lazy.force coset_corpus in
  let ex = List.hd c.Pipeline.train in
  smoke_model (fst (Zoo.dypro ~dim:8 ~vocab:c.Pipeline.vocab (Liger_model.Classify Coset.n_classes))) ex

let test_ast_paths_extraction () =
  let m =
    Liger_lang.Parser.method_of_string
      "method f(int a, int b) : int { int c = a + b; return c * 2; }"
  in
  let rng = Rng.create 1 in
  let contexts = Liger_baselines.Ast_paths.extract rng (Liger_trace.Encode.meth_tree m) in
  Alcotest.(check bool) "contexts extracted" true (List.length contexts > 3);
  List.iter
    (fun (c : Liger_baselines.Ast_paths.context) ->
      Alcotest.(check bool) "path bounded" true (List.length c.Liger_baselines.Ast_paths.path <= 9))
    contexts

let test_ast_paths_deterministic () =
  let m =
    Liger_lang.Parser.method_of_string
      "method g(int[] a) : int { int s = 0; for (int i = 0; i < a.length; i++) { s += a[i]; } return s; }"
  in
  let run () =
    Liger_baselines.Ast_paths.extract (Rng.create 9) (Liger_trace.Encode.meth_tree m)
  in
  Alcotest.(check bool) "same rng same contexts" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Training loop                                                       *)
(* ------------------------------------------------------------------ *)

let test_fit_restores_best_epoch () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 8 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let train = List.filteri (fun i _ -> i < 8) c.Pipeline.train in
  let valid = List.filteri (fun i _ -> i < 5) c.Pipeline.valid in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 2 }
      (Rng.create 3) wrapper ~train ~valid
  in
  Alcotest.(check int) "losses per epoch" 2 (List.length history.Train.train_losses);
  Alcotest.(check int) "scores per epoch" 2 (List.length history.Train.valid_scores);
  let final_score = Train.score wrapper valid in
  let best_recorded =
    List.fold_left Float.max (Train.score wrapper valid -. 1.0) history.Train.valid_scores
  in
  (* restored parameters must score at least as well as every recorded epoch *)
  Alcotest.(check bool) "best restored" true (final_score +. 1e-9 >= best_recorded)

let test_experiments_cache () =
  (* the run cache must return the identical result object *)
  let scale =
    { Experiments.quick with Experiments.med_n = 40; epochs = 1; dim = 8;
      concrete_points = [ 2; 1 ]; symbolic_points = [ 2; 1 ];
      enc = enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let r1 =
    Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full
      ~view:Common.full_view
  in
  let r2 =
    Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full
      ~view:Common.full_view
  in
  Alcotest.(check bool) "cached" true (r1 == r2)

let () =
  Alcotest.run "models"
    [
      ( "metrics",
        [
          Alcotest.test_case "paper examples" `Quick test_metric_paper_examples;
          Alcotest.test_case "case insensitive" `Quick test_metric_case_insensitive;
          Alcotest.test_case "micro aggregation" `Quick test_metric_micro_aggregation;
          Alcotest.test_case "classification" `Quick test_metric_classification;
        ] );
      ( "liger",
        [
          Alcotest.test_case "loss+backprop" `Slow test_liger_loss_finite_and_backprops;
          Alcotest.test_case "training reduces loss" `Slow test_liger_training_reduces_loss;
          Alcotest.test_case "prediction shape" `Slow test_liger_predictions_shape;
          Alcotest.test_case "ablation configs" `Slow test_liger_ablation_configs_run;
          Alcotest.test_case "rejects empty config" `Slow test_liger_rejects_empty_config;
          Alcotest.test_case "view reduces executions" `Slow test_view_reduces_executions;
          Alcotest.test_case "view changes encoding" `Slow test_view_changes_encoding;
          Alcotest.test_case "attention stats" `Slow test_attention_stats_are_weights;
          Alcotest.test_case "classification head" `Slow test_liger_classification_head;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "dypro" `Slow test_dypro_smoke;
          Alcotest.test_case "code2vec" `Slow test_code2vec_smoke;
          Alcotest.test_case "code2seq" `Slow test_code2seq_smoke;
          Alcotest.test_case "classification heads" `Slow test_baseline_class_heads;
          Alcotest.test_case "ast paths" `Quick test_ast_paths_extraction;
          Alcotest.test_case "ast paths deterministic" `Quick test_ast_paths_deterministic;
        ] );
      ( "training",
        [
          Alcotest.test_case "best epoch restored" `Slow test_fit_restores_best_epoch;
          Alcotest.test_case "experiment cache" `Slow test_experiments_cache;
        ] );
    ]
