(* The observability layer: histogram bucket boundaries and quantile
   estimates, registry totals independent of the pool size, span nesting and
   self-time accounting, the Chrome trace_event export (golden structure:
   parseable JSON, complete "X" events), metrics snapshot determinism, the
   Logs reporter actually emitting, and the Train.fit vacuous-best-epoch
   regression. *)

open Liger_parallel
module Obs = Liger_obs.Obs
module OM = Liger_obs.Metrics
module Span = Liger_obs.Span
module Recorder = Liger_obs.Recorder
module Json = Liger_obs.Json

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Each test starts from a clean, enabled registry; the flags are global to
   the process, so tests must not assume they start disabled. *)
let fresh_metrics () =
  OM.enable ();
  OM.reset ()

let fresh_spans () =
  Span.enable ();
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_boundaries () =
  fresh_metrics ();
  let buckets = [| 1.0; 2.0; 5.0 |] in
  List.iter (fun x -> OM.observe ~buckets "h" x) [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ];
  match OM.hist_view (OM.snapshot ()) "h" with
  | None -> Alcotest.fail "histogram not recorded"
  | Some h ->
      Alcotest.(check (array (float 0.0))) "bounds preserved" buckets h.OM.buckets;
      (* a value equal to a bound lands in that bucket (first bound >= x);
         values above every bound land in the overflow bucket *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |] h.OM.counts;
      Alcotest.(check int) "total count" 6 h.OM.count;
      Alcotest.(check (float 1e-9)) "sum" 17.0 h.OM.sum

let test_histogram_quantiles () =
  fresh_metrics ();
  let buckets = Array.init 10 (fun i -> float_of_int ((i + 1) * 10)) in
  for x = 1 to 100 do
    OM.observe ~buckets "q" (float_of_int x)
  done;
  match OM.hist_view (OM.snapshot ()) "q" with
  | None -> Alcotest.fail "histogram not recorded"
  | Some h ->
      (* 10 observations per bucket: linear interpolation recovers the exact
         rank *)
      Alcotest.(check (float 1e-6)) "p50" 50.0 (OM.quantile h 0.5);
      Alcotest.(check (float 1e-6)) "p95" 95.0 (OM.quantile h 0.95);
      Alcotest.(check (float 1e-6)) "p100 = last bound" 100.0 (OM.quantile h 1.0)

let test_histogram_kind_clash () =
  fresh_metrics ();
  OM.incr "clash";
  Alcotest.check_raises "observe on a counter rejected"
    (Invalid_argument "Metrics: clash already registered with another kind") (fun () ->
      OM.observe "clash" 1.0)

(* ------------------------------------------------------------------ *)
(* Registry totals are independent of the pool size                    *)
(* ------------------------------------------------------------------ *)

let record_from_pool jobs =
  fresh_metrics ();
  Parallel.set_jobs jobs;
  ignore
    (Parallel.map
       (fun i ->
         OM.incr "conc.counter";
         OM.fadd "conc.f" 0.5;
         OM.gauge "conc.gauge" 1.0;
         OM.observe ~buckets:[| 10.0; 100.0; 1000.0 |] "conc.h" (float_of_int i);
         i)
       (Array.init 200 Fun.id));
  let snap = OM.snapshot () in
  ( OM.counter_value snap "conc.counter",
    OM.fcounter_value snap "conc.f",
    OM.gauge_value snap "conc.gauge",
    OM.hist_view snap "conc.h" )

let test_concurrent_totals () =
  let c1, f1, g1, h1 = record_from_pool 1 in
  let c4, f4, g4, h4 = record_from_pool 4 in
  Alcotest.(check int) "counter total at jobs=1" 200 c1;
  Alcotest.(check int) "counter total independent of jobs" c1 c4;
  Alcotest.(check (float 1e-9)) "fcounter total at jobs=1" 100.0 f1;
  Alcotest.(check (float 1e-9)) "fcounter total independent of jobs" f1 f4;
  Alcotest.(check (option (float 0.0))) "gauge set" (Some 1.0) g1;
  Alcotest.(check (option (float 0.0))) "gauge independent of jobs" g1 g4;
  match (h1, h4) with
  | Some h1, Some h4 ->
      Alcotest.(check int) "histogram count at jobs=1" 200 h1.OM.count;
      Alcotest.(check (array int)) "histogram buckets independent of jobs" h1.OM.counts
        h4.OM.counts;
      Alcotest.(check (float 1e-6)) "histogram sum independent of jobs" h1.OM.sum h4.OM.sum
  | _ -> Alcotest.fail "histogram not recorded"

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let spin_for seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity (sin 1.0))
  done

let test_span_nesting_and_self_time () =
  fresh_spans ();
  Alcotest.(check int) "depth 0 outside" 0 (Span.depth ());
  Span.with_ ~name:"outer" (fun () ->
      Alcotest.(check int) "depth 1 in outer" 1 (Span.depth ());
      spin_for 0.005;
      Span.with_ ~name:"inner" (fun () ->
          Alcotest.(check int) "depth 2 in inner" 2 (Span.depth ());
          spin_for 0.01));
  Alcotest.(check int) "depth 0 after" 0 (Span.depth ());
  let events = Span.events () in
  Alcotest.(check int) "two events" 2 (List.length events);
  let find name = List.find (fun e -> e.Span.ev_name = name) events in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner inside outer" true (inner.Span.dur_us <= outer.Span.dur_us);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Span.ev_name ^ ": self <= dur")
        true
        (e.Span.self_us <= e.Span.dur_us +. 1.0))
    events;
  (* outer's self time excludes its child *)
  Alcotest.(check bool) "outer self excludes inner" true
    (outer.Span.self_us <= outer.Span.dur_us -. inner.Span.dur_us +. 1000.0)

let test_span_closes_on_exception () =
  fresh_spans ();
  (match Span.with_ ~name:"boom" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Span.depth ());
  Alcotest.(check int) "event still recorded" 1 (List.length (Span.events ()))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export (golden structure)                        *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_golden () =
  fresh_spans ();
  Span.with_ ~name:"build"
    ~args:(fun () -> [ ("corpus", "test \"quoted\"") ])
    (fun () -> Span.with_ ~name:"encode" (fun () -> spin_for 0.002));
  let path = Filename.temp_file "liger" ".trace.json" in
  Span.write path;
  (match Json.parse_file path with
  | Error msg -> Alcotest.fail ("trace JSON does not parse: " ^ msg)
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          Alcotest.(check int) "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              let str name = Option.bind (Json.member name ev) Json.to_string in
              let num name = Option.bind (Json.member name ev) Json.to_float in
              Alcotest.(check (option string)) "complete event" (Some "X") (str "ph");
              Alcotest.(check bool) "has name" true (str "name" <> None);
              Alcotest.(check bool) "has ts" true (num "ts" <> None);
              Alcotest.(check bool) "has dur" true (num "dur" <> None);
              Alcotest.(check bool) "has tid" true (num "tid" <> None);
              Alcotest.(check bool) "dur non-negative" true
                (Option.value ~default:(-1.0) (num "dur") >= 0.0))
            events));
  (match Obs.validate_file path with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("validate_file rejected the trace: " ^ msg));
  Sys.remove path

let test_trace_cap () =
  fresh_spans ();
  Span.set_capacity 3;
  Fun.protect
    ~finally:(fun () ->
      Span.set_capacity Span.default_capacity;
      Span.reset ())
    (fun () ->
      for i = 1 to 10 do
        Span.with_ ~name:(Printf.sprintf "cap%d" i) (fun () -> ())
      done;
      Alcotest.(check int) "events kept at the cap" 3 (List.length (Span.events ()));
      Alcotest.(check int) "rest counted as dropped" 7 (Span.dropped_events ());
      Alcotest.(check bool) "report warns about the cap" true
        (contains (Obs.report ()) "WARNING: 7 span events dropped"))

let test_metrics_json_roundtrip () =
  fresh_metrics ();
  OM.incr "a.counter";
  OM.incr ~labels:[ ("reason", "timeout") ] "a.dropped";
  OM.incr ~labels:[ ("reason", "lint") ] "a.dropped";
  OM.fadd "a.seconds" 1.25;
  OM.gauge "a.gauge" 0.5;
  OM.observe ~buckets:[| 1.0; 10.0 |] "a.h" 3.0;
  (* label canonicalization + sorted snapshots: byte-identical renders *)
  let j1 = OM.to_json (OM.snapshot ()) in
  let j2 = OM.to_json (OM.snapshot ()) in
  Alcotest.(check string) "deterministic render" j1 j2;
  let path = Filename.temp_file "liger" ".metrics.json" in
  OM.write path;
  (match Json.parse_file path with
  | Error msg -> Alcotest.fail ("metrics JSON does not parse: " ^ msg)
  | Ok json ->
      let count section =
        match Json.member section json with
        | Some (Json.Obj kvs) -> List.length kvs
        | _ -> -1
      in
      Alcotest.(check int) "counters section" 3 (count "counters");
      Alcotest.(check int) "fcounters section" 1 (count "fcounters");
      Alcotest.(check int) "gauges section" 1 (count "gauges");
      Alcotest.(check int) "histograms section" 1 (count "histograms"));
  (match Obs.validate_file path with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("validate_file rejected the snapshot: " ^ msg));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Disabled-path contract                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  fresh_metrics ();
  fresh_spans ();
  Recorder.reset ();
  OM.disable ();
  Span.disable ();
  Recorder.disable ();
  OM.incr "off.counter";
  OM.observe "off.h" 1.0;
  let forced = ref false in
  Span.with_ ~name:"off"
    ~args:(fun () ->
      forced := true;
      [])
    (fun () -> ());
  Recorder.note ~detail:"nope" "off.note";
  Alcotest.(check bool) "args thunk not forced when disabled" false !forced;
  Alcotest.(check int) "no counter recorded" 0
    (OM.counter_value (OM.snapshot ()) "off.counter");
  Alcotest.(check int) "no span recorded" 0 (List.length (Span.events ()));
  Alcotest.(check int) "no flight-recorder event" 0 (List.length (Recorder.events ()));
  OM.enable ();
  Span.enable ()

(* the wider contract: with every telemetry layer off, the hot-path entry
   points are one branch each — nothing may be allocated, recorder
   included (it must be cheap enough to leave on in production, and
   free when off) *)
let nop () = ()

let test_disabled_alloc_free () =
  fresh_metrics ();
  fresh_spans ();
  OM.disable ();
  Span.disable ();
  Recorder.disable ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    Span.with_ ~name:"off" nop;
    Recorder.note "off";
    (* the call-site guard callers use before formatting a detail string *)
    if Recorder.enabled () then Recorder.note ~detail:"formatted" "off"
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled telemetry allocates nothing (saw %.0f bytes)" allocated)
    true (allocated < 256.0);
  OM.enable ();
  Span.enable ()

(* ------------------------------------------------------------------ *)
(* The Logs reporter emits                                             *)
(* ------------------------------------------------------------------ *)

let test_logging_reporter_emits () =
  Unix.putenv "LIGER_LOG" "warn";
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.init_logging ~out:ppf ();
  Logs.warn (fun m -> m "telemetry self-check %d" 42);
  Logs.info (fun m -> m "should be below the level");
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "warning emitted" true (contains "telemetry self-check 42");
  Alcotest.(check bool) "level rendered" true (contains "WARNING");
  Alcotest.(check bool) "source prefix rendered" true (contains "[application]");
  Alcotest.(check bool) "info suppressed at warn level" false
    (contains "should be below the level")

let test_log_level_parsing () =
  List.iter
    (fun (s, expect) -> Alcotest.(check bool) s true (Obs.level_of_string s = expect))
    [
      ("quiet", Ok None);
      ("error", Ok (Some Logs.Error));
      ("warn", Ok (Some Logs.Warning));
      ("info", Ok (Some Logs.Info));
      ("debug", Ok (Some Logs.Debug));
      ("bogus", Error "bogus");
    ]

(* ------------------------------------------------------------------ *)
(* Train.fit: empty validation split makes best-epoch selection vacuous *)
(* ------------------------------------------------------------------ *)

let tiny_model () =
  let open Liger_tensor in
  let store = Param.create_store ~seed:3 () in
  let w = Param.matrix store "w" 1 2 in
  Liger_eval.Train.make ~name:"tiny" ~store (Testutil.stub_batched w [| 1.0; 1.0 |])

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

let test_fit_vacuous_best () =
  let open Liger_eval in
  let options = { Train.default_options with Train.epochs = 3 } in
  let train = [ tiny_example (); tiny_example () ] in
  let h_empty =
    Train.fit ~options (Liger_tensor.Rng.create 1) (tiny_model ()) ~train ~valid:[]
  in
  Alcotest.(check bool) "empty valid flagged vacuous" true h_empty.Train.vacuous_best;
  List.iter
    (fun v -> Alcotest.(check (float 0.0)) "vacuous epochs score 0" 0.0 v)
    h_empty.Train.valid_scores;
  Alcotest.(check int) "epoch time per epoch" 3 (List.length h_empty.Train.epoch_times);
  List.iter
    (fun t -> Alcotest.(check bool) "epoch times non-negative" true (t >= 0.0))
    h_empty.Train.epoch_times;
  let h_valid =
    Train.fit ~options (Liger_tensor.Rng.create 1) (tiny_model ()) ~train
      ~valid:[ tiny_example () ]
  in
  Alcotest.(check bool) "non-empty valid not vacuous" false h_valid.Train.vacuous_best

(* every model trains through its batched hooks: one without them is
   rejected before training starts *)
let test_fit_requires_batched () =
  let open Liger_eval in
  let model = { (tiny_model ()) with Train.batched = None } in
  match Train.fit (Liger_tensor.Rng.create 1) model ~train:[ tiny_example () ] ~valid:[] with
  | _ -> Alcotest.fail "a model without batched hooks was trained"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the model (got %S)" msg)
        true
        (contains msg "tiny")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
          Alcotest.test_case "histogram quantile estimates" `Quick test_histogram_quantiles;
          Alcotest.test_case "kind clash rejected" `Quick test_histogram_kind_clash;
          Alcotest.test_case "totals independent of pool size" `Quick test_concurrent_totals;
          Alcotest.test_case "JSON snapshot deterministic, parses" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting depth and self time" `Quick
            test_span_nesting_and_self_time;
          Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
          Alcotest.test_case "trace buffer cap drops and warns" `Quick test_trace_cap;
          Alcotest.test_case "Chrome trace golden structure" `Quick test_chrome_trace_golden;
        ] );
      ( "contract",
        [
          Alcotest.test_case "disabled path records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_alloc_free;
        ] );
      ( "logging",
        [
          Alcotest.test_case "reporter emits a warning" `Quick test_logging_reporter_emits;
          Alcotest.test_case "level parsing" `Quick test_log_level_parsing;
        ] );
      ( "train",
        [
          Alcotest.test_case "empty valid is vacuous best" `Quick test_fit_vacuous_best;
          Alcotest.test_case "model without batched hooks rejected" `Quick
            test_fit_requires_batched;
        ] );
    ]
