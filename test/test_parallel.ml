(* The domain-pool determinism contract (jobs=1 and jobs=N produce identical
   corpora and scores), pool mechanics (reuse, nesting, exceptions), and
   regression tests for the training-loop correctness fixes that landed with
   the pool: plateau snapshot restore, non-finite gradient skipping, atomic
   checkpoints, and vocabulary load validation. *)

open Liger_tensor
open Liger_core
open Liger_parallel
open Liger_eval
open Liger_dataset
module OM = Liger_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Parallel.set_jobs 4;
  let input = Array.init 100 Fun.id in
  let got = Parallel.map (fun x -> x * x) input in
  Alcotest.(check (array int)) "squares in order" (Array.map (fun x -> x * x) input) got

let test_filter_map_order () =
  Parallel.set_jobs 4;
  let got =
    Parallel.filter_map
      (fun x -> if x mod 2 = 0 then Some (x / 2) else None)
      (List.init 50 Fun.id)
  in
  Alcotest.(check (list int)) "evens halved in order" (List.init 25 Fun.id) got

let test_nested_map () =
  Parallel.set_jobs 4;
  (* tasks call the pool themselves; the inner call must run sequentially in
     the worker rather than deadlock waiting on the pool it occupies *)
  let got =
    Parallel.map_list
      (fun row -> Parallel.map_list (fun col -> (10 * row) + col) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  let expected = List.init 4 (fun r -> List.init 3 (fun c -> (10 * r) + c)) in
  Alcotest.(check (list (list int))) "nested maps compose" expected got

let test_exception_propagation_and_reuse () =
  Parallel.set_jobs 4;
  (* pool telemetry lives in the metrics registry and records only while the
     registry is enabled *)
  Liger_obs.Metrics.enable ();
  OM.reset_prefix "parallel.";
  (match Parallel.map_list (fun x -> if x = 7 then failwith "boom" else x) (List.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected the task failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "task error surfaces" "boom" msg);
  (* the pool must survive a failing batch *)
  let got = Parallel.map_list (fun x -> x + 1) (List.init 20 Fun.id) in
  Alcotest.(check (list int)) "pool reusable after failure" (List.init 20 (fun x -> x + 1)) got;
  let s = OM.snapshot () in
  Alcotest.(check int) "both batches counted" 2 (OM.counter_value s "parallel.batches");
  Alcotest.(check int) "all tasks ran (failing batch completes)" 40
    (OM.counter_value s "parallel.tasks")

let test_stats_counts () =
  Parallel.set_jobs 3;
  Liger_obs.Metrics.enable ();
  OM.reset_prefix "parallel.";
  ignore (Parallel.map (fun x -> x) (Array.init 10 Fun.id));
  ignore (Parallel.map (fun x -> x) (Array.init 5 Fun.id));
  let s = OM.snapshot () in
  Alcotest.(check int) "tasks accumulate" 15 (OM.counter_value s "parallel.tasks");
  Alcotest.(check int) "batches accumulate" 2 (OM.counter_value s "parallel.batches");
  Alcotest.(check bool) "wall time recorded" true
    (OM.fcounter_value s "parallel.wall_seconds" >= 0.0)

let spin_for seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity (sin 1.0))
  done

(* The scheduling diagnostics behind the parallel-slowdown analysis:
   per-batch task-size, dispatch-cost and queue-wait histograms. *)
let test_diagnostics_histograms () =
  Parallel.set_jobs 2;
  OM.enable ();
  OM.reset ();
  OM.reset_prefix "parallel.";
  ignore (Parallel.map (fun x -> spin_for 0.001; x) (Array.init 12 Fun.id));
  let snap = OM.snapshot () in
  (match OM.hist_view snap "parallel.batch_tasks" with
  | None -> Alcotest.fail "batch_tasks histogram missing"
  | Some h ->
      Alcotest.(check int) "one batch observed" 1 h.OM.count;
      Alcotest.(check (float 1e-9)) "batch size recorded" 12.0 h.OM.sum);
  (match OM.hist_view snap "parallel.dispatch_seconds" with
  | None -> Alcotest.fail "dispatch_seconds histogram missing"
  | Some h ->
      Alcotest.(check int) "one dispatch observed" 1 h.OM.count;
      Alcotest.(check bool) "dispatch time non-negative" true (h.OM.sum >= 0.0));
  (* [map] returns only after its one worker share has recorded its wait *)
  match OM.hist_view snap "parallel.queue_wait_seconds" with
  | None -> Alcotest.fail "queue_wait_seconds histogram missing"
  | Some h ->
      Alcotest.(check int) "one queue wait observed" 1 h.OM.count;
      Alcotest.(check bool) "queue wait non-negative" true (h.OM.sum >= 0.0)

(* Parallel.min_batch: batches below the floor run sequentially (no dispatch) *)
let test_min_batch_floor () =
  Parallel.set_jobs 2;
  OM.enable ();
  OM.reset ();
  OM.reset_prefix "parallel.";
  (* default floor is 4: a 3-element map must not touch the pool *)
  let got = Parallel.map (fun x -> x * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "sequential result correct" [| 2; 4; 6 |] got;
  (* the batch is still counted (sequential fallback records it), but the
     pool was never dispatched to *)
  Alcotest.(check bool) "no dispatch below the floor" true
    (OM.hist_view (OM.snapshot ()) "parallel.dispatch_seconds" = None);
  let s = OM.snapshot () in
  Alcotest.(check int) "batch still counted" 1 (OM.counter_value s "parallel.batches");
  Alcotest.(check int) "tasks still counted" 3 (OM.counter_value s "parallel.tasks")

(* Regression for the busy-time double count: a nested map (the sequential
   fallback inside a worker, or a nested parallel call on the caller's lane)
   runs inside its enclosure's timed interval and must not be credited
   again — per-lane busy time can never exceed the batch wall time. *)
let test_busy_accounting_bounded () =
  Parallel.set_jobs 3;
  Liger_obs.Metrics.enable ();
  OM.reset_prefix "parallel.";
  let t0 = Unix.gettimeofday () in
  ignore
    (Parallel.map_list
       (fun _ -> Parallel.map_list (fun _ -> spin_for 0.004) [ 0; 1; 2 ])
       (List.init 9 Fun.id));
  let wall = Unix.gettimeofday () -. t0 in
  let busy = Parallel.Stats.busy_of_snapshot (OM.snapshot ()) in
  let total_busy = Array.fold_left ( +. ) 0.0 busy in
  Alcotest.(check bool) "work was recorded" true (total_busy > 0.0);
  Array.iteri
    (fun i busy ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d busy (%.3fs) within wall (%.3fs)" i busy wall)
        true
        (busy <= wall +. 0.05))
    busy;
  Alcotest.(check bool)
    (Printf.sprintf "total busy (%.3fs) within wall x lanes (%.3fs)" total_busy (3.0 *. wall))
    true
    (total_busy <= (3.0 *. wall) +. 0.15)

(* Regression for the late-telemetry race: a worker share used to record its
   busy time and queue wait after the caller had seen every task finish and
   returned, so the figures landed in the next snapshot (or survived the next
   reset).  A delay after each share's drain widens that window; [map] must
   still return only once every share has done its accounting. *)
let test_share_accounting_before_return () =
  Parallel.set_jobs 4;
  OM.enable ();
  OM.reset ();
  Parallel.For_testing.set_after_drain (fun () -> Unix.sleepf 0.05);
  Fun.protect
    ~finally:(fun () -> Parallel.For_testing.set_after_drain ignore)
    (fun () ->
      ignore (Parallel.map (fun x -> x) (Array.init 8 Fun.id));
      let busy () = Parallel.Stats.busy_of_snapshot (OM.snapshot ()) in
      let queue_waits () =
        match OM.hist_view (OM.snapshot ()) "parallel.queue_wait_seconds" with
        | Some h -> h.OM.count
        | None -> 0
      in
      let busy_at_return = busy () and waits_at_return = queue_waits () in
      Unix.sleepf 0.2;
      Alcotest.(check int) "every share's queue wait recorded" 3 waits_at_return;
      Alcotest.(check int) "no queue wait recorded after return" waits_at_return
        (queue_waits ());
      Alcotest.(check (array (float 0.0))) "no busy time recorded after return"
        busy_at_return (busy ()))

let test_set_jobs_invalid () =
  Alcotest.check_raises "zero jobs rejected"
    (Invalid_argument "Parallel.set_jobs: jobs must be >= 1") (fun () ->
      Parallel.set_jobs 0)

let test_map_rng_jobs_independent () =
  let draw jobs =
    Parallel.set_jobs jobs;
    Parallel.map_rng_list (Rng.create 99) (fun rng _ -> Rng.int rng 1_000_000)
      (List.init 64 Fun.id)
  in
  Alcotest.(check (list int)) "per-task generators split in task order"
    (draw 1) (draw 4)

(* ------------------------------------------------------------------ *)
(* The determinism property: jobs=1 vs jobs=4 corpora and scores       *)
(* ------------------------------------------------------------------ *)

let enc = { Common.max_paths = 2; max_concrete = 2; max_steps = 8 }

let build_corpus ~jobs ~seed =
  Parallel.set_jobs jobs;
  (* fresh counters so the two builds are comparable structurally: sids and
     uids only need to be unique within a method / model lifetime *)
  Liger_lang.Ast.reset_sids ();
  Common.reset_uids ();
  Pipeline.build_naming ~enc_config:enc (Rng.create seed) ~name:"par-test" ~n:12

(* uids are assigned sequentially either way, but strip them so the check
   rests on content, not counter bookkeeping *)
let fingerprint (c : Pipeline.corpus) =
  let strip = List.map (fun ex -> { ex with Common.uid = 0 }) in
  (strip c.Pipeline.train, strip c.Pipeline.valid, strip c.Pipeline.test,
   Liger_trace.Vocab.to_list c.Pipeline.vocab)

let test_corpus_determinism () =
  List.iter
    (fun seed ->
      let seq = build_corpus ~jobs:1 ~seed in
      let par = build_corpus ~jobs:4 ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: corpora identical at jobs=1 and jobs=4" seed)
        true
        (fingerprint seq = fingerprint par))
    [ 11; 22; 33 ]

let test_eval_scores_determinism () =
  let c = build_corpus ~jobs:1 ~seed:44 in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  Parallel.set_jobs 1;
  let s1 = Train.score wrapper c.Pipeline.valid in
  let t1 = Train.score wrapper c.Pipeline.test in
  Parallel.set_jobs 4;
  let s4 = Train.score wrapper c.Pipeline.valid in
  let t4 = Train.score wrapper c.Pipeline.test in
  Alcotest.(check (float 0.0)) "valid score identical" s1 s4;
  Alcotest.(check (float 0.0)) "test score identical" t1 t4

(* ------------------------------------------------------------------ *)
(* Regression: plateau keeps the trained snapshot, not the untrained   *)
(* ------------------------------------------------------------------ *)

(* A model whose validation score never moves: [predict] is constant, so
   every epoch scores the same as the untrained model.  The old strict [>]
   comparison kept the epoch-0 snapshot and threw the training away. *)
let constant_score_model () =
  let store = Param.create_store ~seed:5 () in
  let w = Param.matrix store "w" 1 2 in
  Train.make ~name:"plateau" ~store (Testutil.stub_batched w [| 1.0; 1.0 |])

let test_plateau_restores_trained_params () =
  let c = build_corpus ~jobs:1 ~seed:55 in
  let model = constant_score_model () in
  let w = Param.find model.Train.store "w" in
  let init = Tensor.to_array w.Param.value in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 3 }
      (Rng.create 1) model
      ~train:(List.filteri (fun i _ -> i < 2) c.Pipeline.train)
      ~valid:(List.filteri (fun i _ -> i < 2) c.Pipeline.valid)
  in
  (* loss = w . [1,1], so Adam pushes w down every step; a plateau must keep
     those updates rather than restore the untrained snapshot *)
  Alcotest.(check bool) "trained parameters kept on plateau" true
    (Tensor.to_array w.Param.value <> init);
  Alcotest.(check bool) "best epoch is a trained epoch" true (history.Train.best_epoch > 0)

(* ------------------------------------------------------------------ *)
(* Regression: non-finite gradients skip the step instead of poisoning *)
(* ------------------------------------------------------------------ *)

let test_nan_grad_skips_step () =
  let store = Param.create_store ~seed:6 () in
  let w = Param.matrix store "w" 1 2 in
  let init = Tensor.to_array w.Param.value in
  (* simulate a poisoned backward pass *)
  let poison () = Tensor.set_idx w.Param.grad 0 Float.nan in
  let model =
    Train.make ~name:"nan-grad" ~store (Testutil.stub_batched ~before:poison w [| 1.0; 1.0 |])
  in
  let c = build_corpus ~jobs:1 ~seed:66 in
  let train = List.filteri (fun i _ -> i < 3) c.Pipeline.train in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 2 }
      (Rng.create 2) model ~train
      ~valid:(List.filteri (fun i _ -> i < 2) c.Pipeline.valid)
  in
  Alcotest.(check int) "every poisoned step skipped" (2 * List.length train)
    history.Train.skipped_steps;
  Alcotest.(check (array (float 0.0))) "parameters untouched and finite" init
    (Tensor.to_array w.Param.value)

let test_clip_grads_nonfinite () =
  let store = Param.create_store ~seed:7 () in
  let w = Param.matrix store "w" 1 2 in
  Tensor.set_idx w.Param.grad 0 Float.nan;
  Tensor.set_idx w.Param.grad 1 1.0;
  let norm = Optimizer.clip_grads store ~max_norm:5.0 in
  Alcotest.(check bool) "non-finite norm reported" false (Float.is_finite norm);
  Alcotest.(check (array (float 0.0))) "poisoned gradients zeroed" [| 0.0; 0.0 |]
    (Tensor.to_array w.Param.grad);
  (* the finite path still clips *)
  Tensor.set_idx w.Param.grad 0 3.0;
  Tensor.set_idx w.Param.grad 1 4.0;
  let norm = Optimizer.clip_grads store ~max_norm:2.5 in
  Alcotest.(check (float 1e-9)) "pre-clip norm returned" 5.0 norm;
  Alcotest.(check (array (float 1e-9))) "rescaled to max_norm" [| 1.5; 2.0 |]
    (Tensor.to_array w.Param.grad)

(* ------------------------------------------------------------------ *)
(* Regression: checkpoints are atomic and complete                     *)
(* ------------------------------------------------------------------ *)

let two_param_store seed =
  let store = Param.create_store ~seed () in
  ignore (Param.matrix store "a" 1 3);
  ignore (Param.matrix store "b" 2 2);
  store

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "liger" ".ckpt" in
  let src = two_param_store 8 in
  Serialize.save_store src path;
  Alcotest.(check bool) "no temp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  let dst = two_param_store 9 in
  Serialize.load_store dst path;
  List.iter
    (fun name ->
      Alcotest.(check (array (float 0.0)))
        (name ^ " round-trips")
        (Tensor.to_array (Param.find src name).Param.value)
        (Tensor.to_array (Param.find dst name).Param.value))
    [ "a"; "b" ];
  Sys.remove path

let test_checkpoint_missing_param_rejected () =
  let path = Filename.temp_file "liger" ".ckpt" in
  Serialize.save_store (two_param_store 10) path;
  (* truncate to the first parameter only (header + values) *)
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  let oc = open_out path in
  output_string oc (l1 ^ "\n" ^ l2 ^ "\n");
  close_out oc;
  let dst = two_param_store 11 in
  (match Serialize.load_store dst path with
  | () -> Alcotest.fail "expected load of a truncated checkpoint to fail"
  | exception Failure msg ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the missing parameter" true
        (contains msg "parameter b missing"));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Regression: vocabulary add idempotence and load validation          *)
(* ------------------------------------------------------------------ *)

let test_vocab_add_idempotent () =
  let v = Liger_trace.Vocab.create () in
  let before = Liger_trace.Vocab.size v in
  let i = Liger_trace.Vocab.add v "foo" in
  let j = Liger_trace.Vocab.add v "foo" in
  Alcotest.(check int) "same id both times" i j;
  Alcotest.(check int) "one entry added" (before + 1) (Liger_trace.Vocab.size v);
  Alcotest.(check string) "round-trip intact" "foo" (Liger_trace.Vocab.name v i)

let test_vocab_load_rejects_duplicates () =
  let path = Filename.temp_file "liger" ".vocab" in
  let v = Liger_trace.Vocab.create () in
  ignore (Liger_trace.Vocab.add v "foo");
  Liger_trace.Vocab.save v path;
  (* a clean save loads, frozen *)
  let loaded = Liger_trace.Vocab.load path in
  Alcotest.(check bool) "loaded vocabulary is frozen" true
    (Liger_trace.Vocab.is_frozen loaded);
  Alcotest.(check int) "sizes agree" (Liger_trace.Vocab.size v)
    (Liger_trace.Vocab.size loaded);
  (* appending a duplicate line makes ids disagree with line numbers *)
  let oc = open_out_gen [ Open_append ] 0o600 path in
  output_string oc "foo\n";
  close_out oc;
  (match Liger_trace.Vocab.load path with
  | _ -> Alcotest.fail "expected duplicate token to be rejected"
  | exception Failure _ -> ());
  Sys.remove path

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "filter_map preserves order" `Quick test_filter_map_order;
          Alcotest.test_case "nested maps" `Quick test_nested_map;
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_exception_propagation_and_reuse;
          Alcotest.test_case "stats accumulate" `Quick test_stats_counts;
          Alcotest.test_case "scheduling diagnostics histograms" `Quick
            test_diagnostics_histograms;
          Alcotest.test_case "min-batch floor runs sequentially" `Quick test_min_batch_floor;
          Alcotest.test_case "busy time bounded by wall time" `Quick
            test_busy_accounting_bounded;
          Alcotest.test_case "share accounting before return" `Quick
            test_share_accounting_before_return;
          Alcotest.test_case "set_jobs validates" `Quick test_set_jobs_invalid;
          Alcotest.test_case "map_rng jobs-independent" `Quick test_map_rng_jobs_independent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpora identical across jobs" `Slow test_corpus_determinism;
          Alcotest.test_case "eval scores identical across jobs" `Slow
            test_eval_scores_determinism;
        ] );
      ( "train-regressions",
        [
          Alcotest.test_case "plateau keeps trained snapshot" `Slow
            test_plateau_restores_trained_params;
          Alcotest.test_case "non-finite grads skip the step" `Slow test_nan_grad_skips_step;
          Alcotest.test_case "clip_grads on non-finite norm" `Quick test_clip_grads_nonfinite;
        ] );
      ( "serialize-regressions",
        [
          Alcotest.test_case "checkpoint round-trip, atomic" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing parameter rejected" `Quick
            test_checkpoint_missing_param_rejected;
        ] );
      ( "vocab-regressions",
        [
          Alcotest.test_case "add is idempotent" `Quick test_vocab_add_idempotent;
          Alcotest.test_case "load rejects duplicates" `Quick test_vocab_load_rejects_duplicates;
        ] );
    ]
