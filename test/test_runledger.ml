(* The run-ledger layer: golden OpenMetrics rendering (stable name/label
   order), flight-recorder ring wrap + postmortem dump determinism (also
   across a jobs=2 pool), GC/bufpool gauge enrichment across a small
   batched train, the JSONL ledger round-trip through [liger stats], and
   crash injection through Train.fit. *)

open Liger_tensor
module Obs = Liger_obs.Obs
module OM = Liger_obs.Metrics
module Recorder = Liger_obs.Recorder
module Timeseries = Liger_obs.Timeseries
module Openmetrics = Liger_obs.Openmetrics
module Openmetrics_lint = Liger_obs_view.Openmetrics_lint
module View = Liger_obs_view.Readers
module Json = Liger_obs.Json
module Parallel = Liger_parallel.Parallel
module Train = Liger_eval.Train

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let fresh_metrics () =
  OM.enable ();
  OM.reset ()

(* ------------------------------------------------------------------ *)
(* OpenMetrics rendering                                               *)
(* ------------------------------------------------------------------ *)

(* The render is a pure function of the snapshot and the snapshot is
   sorted, so the exposition text is golden-testable byte for byte. *)
let test_openmetrics_golden () =
  fresh_metrics ();
  OM.incr "req.count";
  OM.incr "req.count";
  OM.incr ~labels:[ ("oracle", "absint") ] "fuzz.failures";
  OM.fadd "time.seconds" 1.5;
  OM.gauge ~labels:[ ("model", "LiGer") ] "train.loss" 0.25;
  List.iter (OM.observe ~buckets:[| 1.0; 2.0 |] "lat.h") [ 0.5; 1.5; 9.0 ];
  let expected =
    String.concat "\n"
      [
        "# HELP fuzz_failures Differential fuzzing oracle failures";
        "# TYPE fuzz_failures counter";
        "fuzz_failures_total{oracle=\"absint\"} 1";
        "# HELP lat_h LiGer metric lat.h";
        "# TYPE lat_h histogram";
        "lat_h_bucket{le=\"1\"} 1";
        "lat_h_bucket{le=\"2\"} 2";
        "lat_h_bucket{le=\"+Inf\"} 3";
        "lat_h_sum 11";
        "lat_h_count 3";
        "# HELP req_count LiGer metric req.count";
        "# TYPE req_count counter";
        "req_count_total 2";
        "# HELP time_seconds LiGer metric time.seconds";
        "# TYPE time_seconds counter";
        "time_seconds_total 1.5";
        "# HELP train_loss Mean training loss of the last epoch";
        "# TYPE train_loss gauge";
        "train_loss{model=\"LiGer\"} 0.25";
        "# EOF";
        "";
      ]
  in
  let snap = OM.snapshot () in
  let rendered = Openmetrics.render snap in
  Alcotest.(check string) "golden exposition" expected rendered;
  (match Openmetrics_lint.lint rendered with
  | Ok n -> Alcotest.(check int) "lint sample count" 9 n
  | Error e -> Alcotest.fail ("lint rejected the golden render: " ^ e));
  (* the snapshot survives a trip through its JSON file format *)
  match Json.parse (OM.to_json snap) with
  | Error e -> Alcotest.fail ("snapshot JSON does not parse: " ^ e)
  | Ok json -> (
      match OM.of_json json with
      | Ok again ->
          Alcotest.(check string) "JSON round-trip re-renders identically" expected
            (Openmetrics.render again)
      | Error e -> Alcotest.fail ("of_json failed: " ^ e))

let test_openmetrics_lint_rejects () =
  List.iter
    (fun (text, what) ->
      match Openmetrics_lint.lint text with
      | Ok _ -> Alcotest.failf "lint accepted %s" what
      | Error _ -> ())
    [
      ("a_total 1\n# EOF\n", "a sample without a # TYPE declaration");
      ("# TYPE a counter\na_total 1\n", "text without the # EOF terminator");
      ( "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n# EOF\n",
        "non-cumulative histogram buckets" );
      ( "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n# EOF\n",
        "+Inf bucket disagreeing with _count" );
    ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring wrap                                           *)
(* ------------------------------------------------------------------ *)

let with_small_rings cap f =
  Recorder.enable ();
  Recorder.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Recorder.set_capacity Recorder.default_capacity;
      Recorder.disable ())
    f

let test_ring_wrap_single_domain () =
  with_small_rings 8 (fun () ->
      for i = 0 to 19 do
        Recorder.note ~detail:(string_of_int i) (Printf.sprintf "n%d" i)
      done;
      Alcotest.(check int) "every record counted" 20 (Recorder.total ());
      Alcotest.(check int) "overwritten events counted as dropped" 12 (Recorder.dropped ());
      let evs = Recorder.events () in
      Alcotest.(check (list string))
        "ring keeps exactly the newest events, in order"
        [ "n12"; "n13"; "n14"; "n15"; "n16"; "n17"; "n18"; "n19" ]
        (List.map (fun e -> e.Recorder.name) evs))

let test_ring_wrap_parallel_dump () =
  with_small_rings 8 (fun () ->
      Parallel.set_jobs 2;
      ignore
        (Parallel.map
           (fun i ->
             if Recorder.enabled () then Recorder.note ~detail:(string_of_int i) "par.note";
             i)
           (Array.init 40 Fun.id));
      let evs = Recorder.events () in
      (* pool bookkeeping may add a few notes of its own; the ring
         invariants must hold regardless *)
      Alcotest.(check bool) "all 40 notes counted" true (Recorder.total () >= 40);
      Alcotest.(check int) "kept = total - dropped"
        (Recorder.total () - Recorder.dropped ())
        (List.length evs);
      let seqs = List.map (fun e -> e.Recorder.seq) evs in
      Alcotest.(check bool) "events in strict global order" true
        (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
           (List.tl seqs));
      (* the dump is a valid postmortem document *)
      let path = Filename.temp_file "liger" ".postmortem.json" in
      Recorder.write ~reason:"ring wrap test" path;
      (match View.validate_file path with
      | Ok s -> Alcotest.(check bool) "validates as a postmortem" true (contains s "postmortem")
      | Error e -> Alcotest.fail ("dump did not validate: " ^ e));
      (match Json.parse_file path with
      | Error e -> Alcotest.fail ("dump does not parse: " ^ e)
      | Ok j ->
          let num name = Option.bind (Json.member name j) Json.to_float in
          Alcotest.(check (option (float 0.0)))
            "recorded count embedded"
            (Some (float_of_int (Recorder.total ())))
            (num "events_recorded");
          Alcotest.(check (option (float 0.0)))
            "dropped count embedded"
            (Some (float_of_int (Recorder.dropped ())))
            (num "events_dropped");
          match Option.bind (Json.member "events" j) Json.to_list with
          | None -> Alcotest.fail "dump has no events array"
          | Some events ->
              Alcotest.(check int) "dump carries the surviving events" (List.length evs)
                (List.length events));
      Sys.remove path)

(* ------------------------------------------------------------------ *)
(* GC / bufpool enrichment across a small batched train                *)
(* ------------------------------------------------------------------ *)

let tiny_example () =
  let meth = Liger_lang.Parser.method_of_string "method f(int n) : int { return n; }" in
  {
    Liger_core.Common.uid = 1;
    meth;
    traces = [||];
    label = Liger_core.Common.Class 0;
    target_ids = [ 0 ];
    var_name_ids = [||];
  }

let tiny_model () =
  let store = Param.create_store ~seed:3 () in
  let w = Param.matrix store "w" 1 2 in
  Liger_eval.Train.make ~name:"tiny" ~store (Testutil.stub_batched w [| 1.0; 1.0 |])

(* same 1×2 parameter, but with mini-batch hooks so [fit] exercises the
   flat-Bigarray engine (and through it the bufpool) *)
let tiny_batched_model () =
  let store = Param.create_store ~seed:3 () in
  let w = Param.matrix store "w" 1 2 in
  let loss_batch btape chunk =
    let g = Array.length chunk in
    let x = Batched.const_arr btape ~rows:g ~cols:2 (Array.make (2 * g) 1.0) in
    let y = Batched.matmul_nt btape x w in
    Batched.mul btape y y
  in
  Liger_eval.Train.make ~name:"tiny-batched" ~store
    {
      Liger_eval.Train.train_loss_batch = loss_batch;
      predict_batch = (fun chunk -> Array.map (fun _ -> Liger_eval.Train.Class 0) chunk);
    }

let gauge_of snap name labels =
  match OM.gauge_value ~labels snap name with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s%s missing" name (String.concat "," (List.map snd labels))

let test_enriched_gauges_monotone () =
  fresh_metrics ();
  (* touch the pool directly so its freelists are provably non-empty *)
  Bufpool.give (Bufpool.take 64);
  Timeseries.enrich ();
  let snap1 = OM.snapshot () in
  Alcotest.(check bool) "gc heap gauge present and positive" true
    (gauge_of snap1 "gc.heap_words" [] > 0.0);
  Alcotest.(check bool) "gc minor-collections gauge present" true
    (OM.gauge_value snap1 "gc.minor_collections" <> None);
  let pooled = OM.entries_with snap1 "bufpool.pooled_buffers" in
  Alcotest.(check bool) "bufpool gauges present" true (pooled <> []);
  List.iter
    (fun (e : OM.entry) ->
      Alcotest.(check bool) "bufpool gauges labelled by domain" true
        (List.mem_assoc "domain" e.OM.e_labels))
    pooled;
  (* a small batched train allocates through the pool; after it, the
     enriched gauges must have moved monotonically *)
  let options = { Train.default_options with Train.epochs = 2; batch_size = 2 } in
  let train = [ tiny_example (); tiny_example (); tiny_example (); tiny_example () ] in
  let _h = Train.fit ~options (Rng.create 1) (tiny_batched_model ()) ~train ~valid:[] in
  Timeseries.enrich ();
  let snap2 = OM.snapshot () in
  Alcotest.(check bool) "batched tape published its node count" true
    (gauge_of snap2 "train.tape_nodes" [] > 0.0);
  Alcotest.(check bool) "gc minor words monotone" true
    (gauge_of snap2 "gc.minor_words" [] >= gauge_of snap1 "gc.minor_words" []);
  List.iter
    (fun (e : OM.entry) ->
      match e.OM.e_value with
      | OM.G before ->
          let after = gauge_of snap2 "bufpool.returns" e.OM.e_labels in
          Alcotest.(check bool) "bufpool returns monotone per domain" true (after >= before)
      | _ -> ())
    (OM.entries_with snap1 "bufpool.returns")

(* ------------------------------------------------------------------ *)
(* The JSONL ledger round-trips through the stats readers              *)
(* ------------------------------------------------------------------ *)

let test_ledger_roundtrip () =
  fresh_metrics ();
  OM.incr "led.count";
  OM.gauge "led.gauge" 2.5;
  OM.observe ~buckets:[| 1.0; 2.0 |] "led.h" 1.5;
  let path = Filename.temp_file "liger" ".metrics.jsonl" in
  Timeseries.tick ~path ();
  OM.incr "led.count";
  Timeseries.tick ~path ();
  (match View.validate_file path with
  | Ok s ->
      Alcotest.(check bool)
        (Printf.sprintf "validates as a two-snapshot ledger (got %S)" s)
        true
        (contains s "run ledger with 2 snapshots")
  | Error e -> Alcotest.fail ("ledger did not validate: " ^ e));
  (* every line is itself a complete, enriched snapshot *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per tick" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.fail ("ledger line does not parse: " ^ e)
      | Ok j ->
          Alcotest.(check bool) "line carries a timestamp" true (Json.member "ts" j <> None);
          Alcotest.(check bool) "line carries a sequence number" true
            (Json.member "seq" j <> None);
          Alcotest.(check bool) "line is a full snapshot" true
            (Result.is_ok (OM.of_json j));
          Alcotest.(check bool) "line is enriched with GC gauges" true
            (contains line "gc.minor_collections"))
    lines;
  (* the last snapshot renders as lintable OpenMetrics *)
  (match View.openmetrics_file path with
  | Error e -> Alcotest.fail ("openmetrics_file failed: " ^ e)
  | Ok text ->
      Alcotest.(check bool) "exposition reflects the last tick" true
        (contains text "led_count_total 2");
      (match Openmetrics_lint.lint text with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("exposition does not lint: " ^ e)));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Crash injection through Train.fit                                   *)
(* ------------------------------------------------------------------ *)

(* runs before [test_nonfinite_loss_abort]: the postmortem dump is
   idempotent per process, and this test is the one that asserts it *)
let test_postmortem_injection () =
  let path = Filename.temp_file "ligerpostmortem" ".json" in
  Sys.remove path;
  Obs.postmortem_path := Some path;
  fresh_metrics ();
  Recorder.enable ();
  Recorder.set_capacity Recorder.default_capacity;
  Obs.set_failpoint (Some ("train.epoch", 2));
  Fun.protect
    ~finally:(fun () ->
      Obs.set_failpoint None;
      Recorder.disable ())
    (fun () ->
      let options = { Train.default_options with Train.epochs = 3 } in
      let train = [ tiny_example (); tiny_example () ] in
      (match Train.fit ~options (Rng.create 1) (tiny_model ()) ~train ~valid:[] with
      | _ -> Alcotest.fail "expected the injected failure to escape fit"
      | exception Obs.Injected_failure "train.epoch" -> ());
      Alcotest.(check bool) "postmortem written on the way out" true (Sys.file_exists path);
      (match View.validate_file path with
      | Ok s ->
          Alcotest.(check bool) "validates as a postmortem" true (contains s "postmortem");
          Alcotest.(check bool) "summary names the failpoint" true (contains s "train.epoch")
      | Error e -> Alcotest.fail ("postmortem did not validate: " ^ e));
      match Json.parse_file path with
      | Error e -> Alcotest.fail ("postmortem does not parse: " ^ e)
      | Ok j ->
          let reason =
            Option.value ~default:"" (Option.bind (Json.member "reason" j) Json.to_string)
          in
          Alcotest.(check bool) "reason records the injected site" true
            (contains reason "train.epoch");
          (match Option.bind (Json.member "events" j) Json.to_list with
          | None -> Alcotest.fail "postmortem has no events"
          | Some events ->
              let name ev =
                Option.value ~default:"" (Option.bind (Json.member "name" ev) Json.to_string)
              in
              Alcotest.(check bool) "final spans include the crashed epoch" true
                (List.exists (fun ev -> name ev = "train.epoch") events));
          Alcotest.(check bool) "final metrics snapshot embedded" true
            (Json.member "metrics" j <> None))

let test_nonfinite_loss_abort () =
  fresh_metrics ();
  Recorder.disable ();
  let store = Param.create_store ~seed:4 () in
  let w = Param.matrix store "w" 1 2 in
  let model =
    Liger_eval.Train.make ~name:"poisoned" ~store
      (Testutil.stub_batched w [| Float.nan; Float.nan |])
  in
  let options = { Train.default_options with Train.epochs = 2 } in
  match Train.fit ~options (Rng.create 1) model ~train:[ tiny_example () ] ~valid:[] with
  | _ -> Alcotest.fail "expected the non-finite loss abort"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "abort message names the cause (got %S)" msg)
        true
        (contains msg "non-finite training loss")

let () =
  Alcotest.run "runledger"
    [
      ( "openmetrics",
        [
          Alcotest.test_case "golden rendering and round-trip" `Quick test_openmetrics_golden;
          Alcotest.test_case "lint rejects malformed expositions" `Quick
            test_openmetrics_lint_rejects;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wrap keeps the newest events" `Quick
            test_ring_wrap_single_domain;
          Alcotest.test_case "wrap + dump determinism across a jobs=2 pool" `Quick
            test_ring_wrap_parallel_dump;
        ] );
      ( "enrichment",
        [
          Alcotest.test_case "GC and bufpool gauges monotone over a batched train" `Quick
            test_enriched_gauges_monotone;
        ] );
      ( "ledger",
        [ Alcotest.test_case "JSONL ledger round-trips through stats" `Quick
            test_ledger_roundtrip ] );
      ( "crash",
        [
          Alcotest.test_case "injected mid-epoch failure leaves a postmortem" `Quick
            test_postmortem_injection;
          Alcotest.test_case "non-finite loss aborts the run" `Quick test_nonfinite_loss_abort;
        ] );
    ]
