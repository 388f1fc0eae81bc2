(* The metrics-snapshot codec and the telemetry readers built on it, pinned
   byte for byte: the pretty [metrics.json] layout and a compact ledger
   line, [liger stats] (summary, --validate, --diff, --openmetrics) on a
   metrics file, a run ledger, a postmortem and a trace, one [liger top]
   frame, the HTML report (single and --compare), and the health findings
   over a ledger.  Every fixture is built from a fixed registry, so the
   expected strings are exact.  A qcheck property closes the codec: any
   snapshot of finite values survives render -> parse bitwise in both
   layouts. *)

module OM = Liger_obs.Metrics
module Json = Liger_obs.Json
module Health = Liger_obs.Health

(* the modules under test *)
module View = Liger_obs_view.Readers
module Report_html = Liger_obs_view.Report_html

let of_json = OM.of_json

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let dir = "codec_fixtures"

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One training run's registry at step [i] (0-based) of [steps].  It has
   every metric kind, labeled and unlabeled entries, a profile section,
   label values whose rendered order differs from their list order
   ("enc.proj" renders before "enc"), and dynamics gauges: layer "dec" has
   a vanished gradient, the tanh saturation is high, and the last step's
   neighbor churn spikes. *)
let record ~scale ~steps i =
  OM.enable ();
  OM.reset ();
  let t = float_of_int (i + 1) in
  let last = i = steps - 1 in
  OM.add "pipeline.methods" 40;
  OM.add "filter.kept" 12;
  OM.add ~labels:[ ("reason", "too small") ] "filter.dropped" 3;
  OM.add ~labels:[ ("reason", "does not compile") ] "filter.dropped" 2;
  OM.add "parallel.tasks" (26 * (i + 1));
  OM.add "parallel.batches" (3 * (i + 1));
  OM.add "serve.cache_hits" (10 * i);
  OM.add "serve.cache_misses" 4;
  OM.add "serve.cache_evictions" 0;
  OM.fadd "parallel.wall_seconds" (0.5 *. t);
  OM.fadd ~labels:[ ("domain", "0") ] "parallel.busy_seconds" (0.375 *. t);
  OM.fadd ~labels:[ ("domain", "1") ] "parallel.busy_seconds" (0.25 *. t);
  OM.add ~labels:[ ("op", "gemm") ] "profile.op_count" (12 * (i + 1));
  OM.fadd ~labels:[ ("op", "gemm") ] "profile.op_flops" (3072.0 *. t);
  OM.add ~labels:[ ("op", "tanh") ] "profile.op_count" (4 * (i + 1));
  OM.fadd ~labels:[ ("op", "tanh") ] "profile.op_flops" (64.0 *. t);
  List.iter
    (fun layer ->
      let labels = [ ("layer", layer) ] in
      OM.add ~labels "profile.layer_calls" (2 * (i + 1));
      OM.fadd ~labels "profile.layer_forward_seconds" (0.125 *. t);
      OM.fadd ~labels "profile.layer_backward_seconds" (0.25 *. t))
    [ "enc"; "enc.proj" ];
  OM.gauge "profile.total_flops" (3136.0 *. t);
  let model = [ ("model", "LiGer") ] in
  OM.gauge ~labels:model "train.loss" (scale *. (if i >= 1 then 1.0 else 2.0));
  OM.gauge ~labels:model "train.valid_score" (0.125 *. t);
  OM.gauge ~labels:model "train.examples_per_second" (100.0 +. t);
  OM.gauge ~labels:model "train.subtokens_per_second" (300.0 +. t);
  OM.gauge ~labels:model "train.eta_seconds" (float_of_int (steps - i - 1));
  OM.gauge "train.tape_nodes" 4096.0;
  OM.gauge "gc.minor_collections" (100.0 *. t);
  OM.gauge "gc.major_collections" (2.0 *. t);
  OM.gauge "gc.heap_words" 1048576.0;
  OM.gauge "gc.top_heap_words" 2097152.0;
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.hits" (900.0 *. t);
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.misses" 100.0;
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.leased" 3.0;
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.hw_leased" 12.0;
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.pooled_buffers" 40.0;
  OM.gauge ~labels:[ ("domain", "0") ] "bufpool.pooled_elements" 65536.0;
  OM.gauge "serve.cache_entries" 6.0;
  OM.gauge ~labels:[ ("layer", "enc") ] "dynamics.layer_grad_norm" (0.5 /. t);
  OM.gauge ~labels:[ ("layer", "enc.proj") ] "dynamics.layer_grad_norm" (0.25 /. t);
  OM.gauge ~labels:[ ("layer", "dec") ] "dynamics.layer_grad_norm" 1e-9;
  OM.gauge ~labels:[ ("layer", "enc") ] "dynamics.layer_update_ratio" 0.001;
  OM.gauge ~labels:[ ("act", "tanh"); ("layer", "enc") ] "dynamics.saturation" 0.95;
  OM.gauge ~labels:[ ("act", "sigmoid"); ("layer", "enc") ] "dynamics.dead_units" 0.0;
  OM.gauge ~labels:model "dynamics.embed_drift" (0.0625 *. scale);
  OM.gauge ~labels:model "dynamics.nn_churn" (if last then 0.875 else 0.125);
  List.iteri
    (fun k x -> if k <= 2 * (i + 1) then OM.observe "train.grad_norm" x)
    [ 0.004; 0.03; 0.2; 0.7; 1.5; 3.0; 8.0; 40.0 ];
  List.iter
    (fun x -> OM.observe ~labels:[ ("endpoint", "embed") ] "serve.latency_seconds" x)
    [ 0.0008; 0.002 *. t; 0.02 ];
  List.iter
    (fun x -> OM.observe ~buckets:[| 0.5; 1.0; 2.0 |] "dynamics.attention_entropy" x)
    [ 0.25; 0.75; 1.5 *. scale; 3.0 ];
  OM.snapshot ()

let ledger_line i snap =
  OM.to_json_compact
    ~extra:[ ("ts", Json.of_float (1000.5 +. float_of_int i)); ("seq", string_of_int i) ]
    snap

let postmortem_of snap =
  String.concat ""
    [
      "{\n  \"postmortem\": true,\n  \"reason\": \"failpoint train.epoch\",\n";
      "  \"run_id\": \"runA\",\n  \"ts\": 1004.5,\n";
      "  \"events_recorded\": 3,\n  \"events_dropped\": 0,\n  \"events\": [";
      "\n    {\"seq\":0,\"ts\":1000.25,\"domain\":0,\"kind\":\"begin\",\"name\":\"train.epoch\",\"detail\":\"\"}";
      ",\n    {\"seq\":1,\"ts\":1001.25,\"domain\":1,\"kind\":\"note\",\"name\":\"health.saturation\",\"detail\":\"epoch 1 tanh\"}";
      ",\n    {\"seq\":2,\"ts\":1002.25,\"domain\":0,\"kind\":\"end\",\"name\":\"train.epoch\",\"detail\":\"\"}";
      "\n  ],\n  \"metrics\": ";
      OM.to_json snap;
      "}\n";
    ]

let trace_text =
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
   {\"ph\":\"X\",\"name\":\"pipeline.corpus\",\"ts\":0,\"dur\":250000,\"pid\":1,\"tid\":0},\n\
   {\"ph\":\"X\",\"name\":\"testgen.generate\",\"ts\":1000,\"dur\":120000,\"pid\":1,\"tid\":0},\n\
   {\"ph\":\"X\",\"name\":\"testgen.generate\",\"ts\":130000,\"dur\":80000,\"pid\":1,\"tid\":1},\n\
   {\"ph\":\"B\",\"name\":\"encode\",\"ts\":220000,\"pid\":1,\"tid\":0},\n\
   {\"ph\":\"E\",\"name\":\"encode\",\"ts\":240000,\"pid\":1,\"tid\":0},\n\
   {\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0}\n\
   ]}\n"

(* Two run directories: [runA] (four ledger lines, a final snapshot, a
   postmortem and a probe table) and [runB] (three ledger lines, loss
   doubled), plus a standalone trace. *)
let build_fixtures () =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let run name ~scale ~steps ~extras =
    let rdir = Filename.concat dir name in
    Sys.mkdir rdir 0o755;
    let snaps = List.init steps (record ~scale ~steps) in
    write_file (Filename.concat rdir "metrics.jsonl")
      (String.concat "" (List.mapi (fun i s -> ledger_line i s ^ "\n") snaps));
    let final = List.nth snaps (steps - 1) in
    write_file (Filename.concat rdir "metrics.json") (OM.to_json final);
    if extras then begin
      write_file (Filename.concat rdir "postmortem.json") (postmortem_of final);
      write_file (Filename.concat rdir "probe_accuracy.txt") "live-after  0.750\nreaches  0.500\n"
    end
  in
  run "runA" ~scale:1.0 ~steps:4 ~extras:true;
  run "runB" ~scale:2.0 ~steps:3 ~extras:false;
  write_file (Filename.concat dir "trace.json") trace_text;
  OM.reset ()

let fixture name = Filename.concat dir name

let ok_or_fail what = function Ok s -> s | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* The two layouts                                                     *)
(* ------------------------------------------------------------------ *)

let small_registry () =
  OM.enable ();
  OM.reset ();
  OM.add "b.count" 3;
  OM.add ~labels:[ ("reason", "too small") ] "a.dropped" 2;
  OM.fadd "c.seconds" 1.25;
  OM.gauge ~labels:[ ("layer", "enc.proj") ] "d.norm" 0.5;
  OM.gauge ~labels:[ ("layer", "enc") ] "d.norm" 2.0;
  OM.observe ~buckets:[| 1.0; 2.0 |] ~labels:[ ("endpoint", "embed") ] "e.lat" 1.5;
  let snap = OM.snapshot () in
  OM.reset ();
  snap

let test_pretty_layout () =
  let expected =
    "{\n\
    \  \"counters\": {\n\
    \    \"a.dropped{reason=too small}\": 2,\n\
    \    \"b.count\": 3\n\
    \  },\n\
    \  \"fcounters\": {\n\
    \    \"c.seconds\": 1.25\n\
    \  },\n\
    \  \"gauges\": {\n\
    \    \"d.norm{layer=enc}\": 2,\n\
    \    \"d.norm{layer=enc.proj}\": 0.5\n\
    \  },\n\
    \  \"histograms\": {\n\
    \    \"e.lat{endpoint=embed}\": {\"buckets\":[1,2],\"counts\":[0,1,0],\"sum\":1.5,\"count\":1}\n\
    \  }\n\
     }\n"
  in
  Alcotest.(check string) "metrics.json bytes" expected (OM.to_json (small_registry ()));
  Alcotest.(check string) "empty snapshot"
    "{\n  \"counters\": {},\n  \"fcounters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
    (OM.to_json [])

let test_compact_layout () =
  let expected =
    "{\"ts\":1000.500000,\"seq\":7,\"counters\":{\"a.dropped{reason=too small}\":2,\"b.count\":3},\
     \"fcounters\":{\"c.seconds\":1.25},\
     \"gauges\":{\"d.norm{layer=enc}\":2,\"d.norm{layer=enc.proj}\":0.5},\
     \"histograms\":{\"e.lat{endpoint=embed}\":{\"buckets\":[1,2],\"counts\":[0,1,0],\"sum\":1.5,\"count\":1}}}"
  in
  Alcotest.(check string) "ledger line bytes" expected
    (OM.to_json_compact ~extra:[ ("ts", "1000.500000"); ("seq", "7") ] (small_registry ()));
  Alcotest.(check string) "empty snapshot, no extras"
    "{\"counters\":{},\"fcounters\":{},\"gauges\":{},\"histograms\":{}}"
    (OM.to_json_compact [])

(* ------------------------------------------------------------------ *)
(* The readers on the fixture files                                    *)
(* ------------------------------------------------------------------ *)

(* the parent's outputs on the fixtures above *)

let golden_summaries =
  [
    ("runA/metrics.json",
     {|codec_fixtures/runA/metrics.json: metrics snapshot
counters:
  filter.dropped{reason=does not compile}          2
  filter.dropped{reason=too small}                 3
  filter.kept                                      12
  parallel.batches                                 12
  parallel.tasks                                   104
  pipeline.methods                                 40
  profile.layer_calls{layer=enc}                   8
  profile.layer_calls{layer=enc.proj}              8
  profile.op_count{op=gemm}                        48
  profile.op_count{op=tanh}                        16
  serve.cache_evictions                            0
  serve.cache_hits                                 30
  serve.cache_misses                               4
fcounters:
  parallel.busy_seconds{domain=0}                  1.5
  parallel.busy_seconds{domain=1}                  1
  parallel.wall_seconds                            2
  profile.layer_backward_seconds{layer=enc}        1
  profile.layer_backward_seconds{layer=enc.proj}   1
  profile.layer_forward_seconds{layer=enc}         0.5
  profile.layer_forward_seconds{layer=enc.proj}    0.5
  profile.op_flops{op=gemm}                        12288
  profile.op_flops{op=tanh}                        256
gauges:
  bufpool.hits{domain=0}                           3600
  bufpool.hw_leased{domain=0}                      12
  bufpool.leased{domain=0}                         3
  bufpool.misses{domain=0}                         100
  bufpool.pooled_buffers{domain=0}                 40
  bufpool.pooled_elements{domain=0}                65536
  dynamics.dead_units{act=sigmoid,layer=enc}       0
  dynamics.embed_drift{model=LiGer}                0.0625
  dynamics.layer_grad_norm{layer=dec}              1e-09
  dynamics.layer_grad_norm{layer=enc}              0.125
  dynamics.layer_grad_norm{layer=enc.proj}         0.0625
  dynamics.layer_update_ratio{layer=enc}           0.001
  dynamics.nn_churn{model=LiGer}                   0.875
  dynamics.saturation{act=tanh,layer=enc}          0.95
  gc.heap_words                                    1048576
  gc.major_collections                             8
  gc.minor_collections                             400
  gc.top_heap_words                                2097152
  profile.total_flops                              12544
  serve.cache_entries                              6
  train.eta_seconds{model=LiGer}                   0
  train.examples_per_second{model=LiGer}           104
  train.loss{model=LiGer}                          1
  train.subtokens_per_second{model=LiGer}          304
  train.tape_nodes                                 4096
  train.valid_score{model=LiGer}                   0.5
histograms:
  dynamics.attention_entropy                       count=4 sum=5.5
  serve.latency_seconds{endpoint=embed}            count=3 sum=0.0288
  train.grad_norm                                  count=8 sum=53.434
|});
    ("runA/metrics.jsonl",
     {|codec_fixtures/runA/metrics.jsonl: run ledger (last snapshot)
counters:
  filter.dropped{reason=does not compile}          2
  filter.dropped{reason=too small}                 3
  filter.kept                                      12
  parallel.batches                                 12
  parallel.tasks                                   104
  pipeline.methods                                 40
  profile.layer_calls{layer=enc}                   8
  profile.layer_calls{layer=enc.proj}              8
  profile.op_count{op=gemm}                        48
  profile.op_count{op=tanh}                        16
  serve.cache_evictions                            0
  serve.cache_hits                                 30
  serve.cache_misses                               4
fcounters:
  parallel.busy_seconds{domain=0}                  1.5
  parallel.busy_seconds{domain=1}                  1
  parallel.wall_seconds                            2
  profile.layer_backward_seconds{layer=enc}        1
  profile.layer_backward_seconds{layer=enc.proj}   1
  profile.layer_forward_seconds{layer=enc}         0.5
  profile.layer_forward_seconds{layer=enc.proj}    0.5
  profile.op_flops{op=gemm}                        12288
  profile.op_flops{op=tanh}                        256
gauges:
  bufpool.hits{domain=0}                           3600
  bufpool.hw_leased{domain=0}                      12
  bufpool.leased{domain=0}                         3
  bufpool.misses{domain=0}                         100
  bufpool.pooled_buffers{domain=0}                 40
  bufpool.pooled_elements{domain=0}                65536
  dynamics.dead_units{act=sigmoid,layer=enc}       0
  dynamics.embed_drift{model=LiGer}                0.0625
  dynamics.layer_grad_norm{layer=dec}              1e-09
  dynamics.layer_grad_norm{layer=enc}              0.125
  dynamics.layer_grad_norm{layer=enc.proj}         0.0625
  dynamics.layer_update_ratio{layer=enc}           0.001
  dynamics.nn_churn{model=LiGer}                   0.875
  dynamics.saturation{act=tanh,layer=enc}          0.95
  gc.heap_words                                    1048576
  gc.major_collections                             8
  gc.minor_collections                             400
  gc.top_heap_words                                2097152
  profile.total_flops                              12544
  serve.cache_entries                              6
  train.eta_seconds{model=LiGer}                   0
  train.examples_per_second{model=LiGer}           104
  train.loss{model=LiGer}                          1
  train.subtokens_per_second{model=LiGer}          304
  train.tape_nodes                                 4096
  train.valid_score{model=LiGer}                   0.5
histograms:
  dynamics.attention_entropy                       count=4 sum=5.5
  serve.latency_seconds{endpoint=embed}            count=3 sum=0.0288
  train.grad_norm                                  count=8 sum=53.434
|});
    ("runA/postmortem.json",
     {|codec_fixtures/runA/postmortem.json: postmortem (failpoint train.epoch), 3 surviving events
  #0      d0 begin train.epoch
  #1      d1 note  health.saturation — epoch 1 tanh
  #2      d0 end   train.epoch
final snapshot:
counters:
  filter.dropped{reason=does not compile}          2
  filter.dropped{reason=too small}                 3
  filter.kept                                      12
  parallel.batches                                 12
  parallel.tasks                                   104
  pipeline.methods                                 40
  profile.layer_calls{layer=enc}                   8
  profile.layer_calls{layer=enc.proj}              8
  profile.op_count{op=gemm}                        48
  profile.op_count{op=tanh}                        16
  serve.cache_evictions                            0
  serve.cache_hits                                 30
  serve.cache_misses                               4
fcounters:
  parallel.busy_seconds{domain=0}                  1.5
  parallel.busy_seconds{domain=1}                  1
  parallel.wall_seconds                            2
  profile.layer_backward_seconds{layer=enc}        1
  profile.layer_backward_seconds{layer=enc.proj}   1
  profile.layer_forward_seconds{layer=enc}         0.5
  profile.layer_forward_seconds{layer=enc.proj}    0.5
  profile.op_flops{op=gemm}                        12288
  profile.op_flops{op=tanh}                        256
gauges:
  bufpool.hits{domain=0}                           3600
  bufpool.hw_leased{domain=0}                      12
  bufpool.leased{domain=0}                         3
  bufpool.misses{domain=0}                         100
  bufpool.pooled_buffers{domain=0}                 40
  bufpool.pooled_elements{domain=0}                65536
  dynamics.dead_units{act=sigmoid,layer=enc}       0
  dynamics.embed_drift{model=LiGer}                0.0625
  dynamics.layer_grad_norm{layer=dec}              1e-09
  dynamics.layer_grad_norm{layer=enc}              0.125
  dynamics.layer_grad_norm{layer=enc.proj}         0.0625
  dynamics.layer_update_ratio{layer=enc}           0.001
  dynamics.nn_churn{model=LiGer}                   0.875
  dynamics.saturation{act=tanh,layer=enc}          0.95
  gc.heap_words                                    1048576
  gc.major_collections                             8
  gc.minor_collections                             400
  gc.top_heap_words                                2097152
  profile.total_flops                              12544
  serve.cache_entries                              6
  train.eta_seconds{model=LiGer}                   0
  train.examples_per_second{model=LiGer}           104
  train.loss{model=LiGer}                          1
  train.subtokens_per_second{model=LiGer}          304
  train.tape_nodes                                 4096
  train.valid_score{model=LiGer}                   0.5
histograms:
  dynamics.attention_entropy                       count=4 sum=5.5
  serve.latency_seconds{endpoint=embed}            count=3 sum=0.0288
  train.grad_norm                                  count=8 sum=53.434
|});
    ("trace.json",
     {|codec_fixtures/trace.json: 6 span events (open in chrome://tracing or ui.perfetto.dev)
  span              count  total s
  pipeline.corpus       1    0.250
  testgen.generate      2    0.200
|});
  ]

let golden_validations =
  [
    ("runA/metrics.json",
     {|metrics snapshot with 13 counters, 9 fcounters, 26 gauges, 3 histograms, profile section (2 ops, 2 layers)|});
    ("runA/metrics.jsonl",
     {|run ledger with 4 snapshots|});
    ("runA/postmortem.json",
     {|postmortem with 3 events (reason: failpoint train.epoch)|});
    ("trace.json",
     {|trace with 6 events|});
  ]

let golden_diff =
  {|diff: codec_fixtures/runB/metrics.json -> codec_fixtures/runA/metrics.json
metric                                               before        after   change
bufpool.hits{domain=0}                                 2700         3600   +33.3%  !
bufpool.hw_leased{domain=0}                              12           12      +0%
bufpool.leased{domain=0}                                  3            3      +0%
bufpool.misses{domain=0}                                100          100      +0%
bufpool.pooled_buffers{domain=0}                         40           40      +0%
bufpool.pooled_elements{domain=0}                     65536        65536      +0%
dynamics.attention_entropy.count                          4            4      +0%
dynamics.attention_entropy.sum                            7          5.5   -21.4%  !
dynamics.dead_units{act=sigmoid,layer=enc}                0            0      +0%
dynamics.embed_drift{model=LiGer}                     0.125       0.0625     -50%  !
dynamics.layer_grad_norm{layer=dec}                   1e-09        1e-09      +0%
dynamics.layer_grad_norm{layer=enc.proj}          0.0833333       0.0625   -25.0%  !
dynamics.layer_grad_norm{layer=enc}                0.166667        0.125   -25.0%  !
dynamics.layer_update_ratio{layer=enc}                0.001        0.001      +0%
dynamics.nn_churn{model=LiGer}                        0.875        0.875      +0%
dynamics.saturation{act=tanh,layer=enc}                0.95         0.95      +0%
filter.dropped{reason=does not compile}                   2            2      +0%
filter.dropped{reason=too small}                          3            3      +0%
filter.kept                                              12           12      +0%
gc.heap_words                                   1.04858e+06  1.04858e+06      +0%
gc.major_collections                                      6            8   +33.3%  !
gc.minor_collections                                    300          400   +33.3%  !
gc.top_heap_words                               2.09715e+06  2.09715e+06      +0%
parallel.batches                                          9           12   +33.3%  !
parallel.busy_seconds{domain=0}                       1.125          1.5   +33.3%  !
parallel.busy_seconds{domain=1}                        0.75            1   +33.3%  !
parallel.tasks                                           78          104   +33.3%  !
parallel.wall_seconds                                   1.5            2   +33.3%  !
pipeline.methods                                         40           40      +0%
profile.layer_backward_seconds{layer=enc.proj}         0.75            1   +33.3%  !
profile.layer_backward_seconds{layer=enc}              0.75            1   +33.3%  !
profile.layer_calls{layer=enc.proj}                       6            8   +33.3%  !
profile.layer_calls{layer=enc}                            6            8   +33.3%  !
profile.layer_forward_seconds{layer=enc.proj}         0.375          0.5   +33.3%  !
profile.layer_forward_seconds{layer=enc}              0.375          0.5   +33.3%  !
profile.op_count{op=gemm}                                36           48   +33.3%  !
profile.op_count{op=tanh}                                12           16   +33.3%  !
profile.op_flops{op=gemm}                              9216        12288   +33.3%  !
profile.op_flops{op=tanh}                               192          256   +33.3%  !
profile.total_flops                                    9408        12544   +33.3%  !
serve.cache_entries                                       6            6      +0%
serve.cache_evictions                                     0            0      +0%
serve.cache_hits                                         20           30     +50%  !
serve.cache_misses                                        4            4      +0%
serve.latency_seconds{endpoint=embed}.count               3            3      +0%
serve.latency_seconds{endpoint=embed}.sum            0.0268       0.0288    +7.5%
train.eta_seconds{model=LiGer}                            0            0      +0%
train.examples_per_second{model=LiGer}                  103          104    +1.0%
train.grad_norm.count                                     7            8   +14.3%  !
train.grad_norm.sum                                  13.434       53.434  +297.8%  !
train.loss{model=LiGer}                                   2            1     -50%  !
train.subtokens_per_second{model=LiGer}                 303          304    +0.3%
train.tape_nodes                                       4096         4096      +0%
train.valid_score{model=LiGer}                        0.375          0.5   +33.3%  !
|}

let golden_openmetrics_ledger =
  {|# HELP bufpool_hits Bufpool leases served from a freelist, per domain
# TYPE bufpool_hits gauge
bufpool_hits{domain="0"} 3600
# HELP bufpool_hw_leased High-water mark of concurrently leased buffers, per domain
# TYPE bufpool_hw_leased gauge
bufpool_hw_leased{domain="0"} 12
# HELP bufpool_leased Buffers currently leased from the bufpool, per domain
# TYPE bufpool_leased gauge
bufpool_leased{domain="0"} 3
# HELP bufpool_misses Bufpool leases that had to allocate, per domain
# TYPE bufpool_misses gauge
bufpool_misses{domain="0"} 100
# HELP bufpool_pooled_buffers Buffers parked in bufpool freelists, per domain
# TYPE bufpool_pooled_buffers gauge
bufpool_pooled_buffers{domain="0"} 40
# HELP bufpool_pooled_elements Float elements parked in bufpool freelists, per domain
# TYPE bufpool_pooled_elements gauge
bufpool_pooled_elements{domain="0"} 65536
# HELP dynamics_attention_entropy LiGer metric dynamics.attention_entropy
# TYPE dynamics_attention_entropy histogram
dynamics_attention_entropy_bucket{le="0.5"} 1
dynamics_attention_entropy_bucket{le="1"} 2
dynamics_attention_entropy_bucket{le="2"} 3
dynamics_attention_entropy_bucket{le="+Inf"} 4
dynamics_attention_entropy_sum 5.5
dynamics_attention_entropy_count 4
# HELP dynamics_dead_units LiGer metric dynamics.dead_units
# TYPE dynamics_dead_units gauge
dynamics_dead_units{act="sigmoid",layer="enc"} 0
# HELP dynamics_embed_drift LiGer metric dynamics.embed_drift
# TYPE dynamics_embed_drift gauge
dynamics_embed_drift{model="LiGer"} 0.0625
# HELP dynamics_layer_grad_norm LiGer metric dynamics.layer_grad_norm
# TYPE dynamics_layer_grad_norm gauge
dynamics_layer_grad_norm{layer="dec"} 1e-09
dynamics_layer_grad_norm{layer="enc"} 0.125
dynamics_layer_grad_norm{layer="enc.proj"} 0.0625
# HELP dynamics_layer_update_ratio LiGer metric dynamics.layer_update_ratio
# TYPE dynamics_layer_update_ratio gauge
dynamics_layer_update_ratio{layer="enc"} 0.001
# HELP dynamics_nn_churn LiGer metric dynamics.nn_churn
# TYPE dynamics_nn_churn gauge
dynamics_nn_churn{model="LiGer"} 0.875
# HELP dynamics_saturation LiGer metric dynamics.saturation
# TYPE dynamics_saturation gauge
dynamics_saturation{act="tanh",layer="enc"} 0.95
# HELP filter_dropped LiGer metric filter.dropped
# TYPE filter_dropped counter
filter_dropped_total{reason="does not compile"} 2
filter_dropped_total{reason="too small"} 3
# HELP filter_kept LiGer metric filter.kept
# TYPE filter_kept counter
filter_kept_total 12
# HELP gc_heap_words Current OCaml major heap size in words
# TYPE gc_heap_words gauge
gc_heap_words 1048576
# HELP gc_major_collections OCaml GC major collection cycles
# TYPE gc_major_collections gauge
gc_major_collections 8
# HELP gc_minor_collections OCaml GC minor collections
# TYPE gc_minor_collections gauge
gc_minor_collections 400
# HELP gc_top_heap_words Largest OCaml major heap size in words
# TYPE gc_top_heap_words gauge
gc_top_heap_words 2097152
# HELP parallel_batches Task batches submitted to the domain pool
# TYPE parallel_batches counter
parallel_batches_total 12
# HELP parallel_busy_seconds Per-domain busy seconds inside pool batches
# TYPE parallel_busy_seconds counter
parallel_busy_seconds_total{domain="0"} 1.5
parallel_busy_seconds_total{domain="1"} 1
# HELP parallel_tasks Tasks executed by the domain pool
# TYPE parallel_tasks counter
parallel_tasks_total 104
# HELP parallel_wall_seconds Wall-clock seconds spent inside pool batches
# TYPE parallel_wall_seconds counter
parallel_wall_seconds_total 2
# HELP pipeline_methods LiGer metric pipeline.methods
# TYPE pipeline_methods counter
pipeline_methods_total 40
# HELP profile_layer_backward_seconds LiGer metric profile.layer_backward_seconds
# TYPE profile_layer_backward_seconds counter
profile_layer_backward_seconds_total{layer="enc"} 1
profile_layer_backward_seconds_total{layer="enc.proj"} 1
# HELP profile_layer_calls LiGer metric profile.layer_calls
# TYPE profile_layer_calls counter
profile_layer_calls_total{layer="enc"} 8
profile_layer_calls_total{layer="enc.proj"} 8
# HELP profile_layer_forward_seconds LiGer metric profile.layer_forward_seconds
# TYPE profile_layer_forward_seconds counter
profile_layer_forward_seconds_total{layer="enc"} 0.5
profile_layer_forward_seconds_total{layer="enc.proj"} 0.5
# HELP profile_op_count LiGer metric profile.op_count
# TYPE profile_op_count counter
profile_op_count_total{op="gemm"} 48
profile_op_count_total{op="tanh"} 16
# HELP profile_op_flops LiGer metric profile.op_flops
# TYPE profile_op_flops counter
profile_op_flops_total{op="gemm"} 12288
profile_op_flops_total{op="tanh"} 256
# HELP profile_total_flops LiGer metric profile.total_flops
# TYPE profile_total_flops gauge
profile_total_flops 12544
# HELP serve_cache_entries Entries currently in the embedding LRU cache
# TYPE serve_cache_entries gauge
serve_cache_entries 6
# HELP serve_cache_evictions Embedding cache entries evicted at capacity
# TYPE serve_cache_evictions counter
serve_cache_evictions_total 0
# HELP serve_cache_hits Embedding cache lookups that hit (AST-hash keyed)
# TYPE serve_cache_hits counter
serve_cache_hits_total 30
# HELP serve_cache_misses Embedding cache lookups that missed
# TYPE serve_cache_misses counter
serve_cache_misses_total 4
# HELP serve_latency_seconds Request latency in seconds, by endpoint
# TYPE serve_latency_seconds histogram
serve_latency_seconds_bucket{endpoint="embed",le="0.001"} 1
serve_latency_seconds_bucket{endpoint="embed",le="0.0025"} 1
serve_latency_seconds_bucket{endpoint="embed",le="0.005"} 1
serve_latency_seconds_bucket{endpoint="embed",le="0.01"} 2
serve_latency_seconds_bucket{endpoint="embed",le="0.025"} 3
serve_latency_seconds_bucket{endpoint="embed",le="0.05"} 3
serve_latency_seconds_bucket{endpoint="embed",le="0.1"} 3
serve_latency_seconds_bucket{endpoint="embed",le="0.25"} 3
serve_latency_seconds_bucket{endpoint="embed",le="0.5"} 3
serve_latency_seconds_bucket{endpoint="embed",le="1"} 3
serve_latency_seconds_bucket{endpoint="embed",le="2.5"} 3
serve_latency_seconds_bucket{endpoint="embed",le="5"} 3
serve_latency_seconds_bucket{endpoint="embed",le="10"} 3
serve_latency_seconds_bucket{endpoint="embed",le="25"} 3
serve_latency_seconds_bucket{endpoint="embed",le="50"} 3
serve_latency_seconds_bucket{endpoint="embed",le="100"} 3
serve_latency_seconds_bucket{endpoint="embed",le="+Inf"} 3
serve_latency_seconds_sum{endpoint="embed"} 0.0288
serve_latency_seconds_count{endpoint="embed"} 3
# HELP train_eta_seconds Estimated seconds until training completes
# TYPE train_eta_seconds gauge
train_eta_seconds{model="LiGer"} 0
# HELP train_examples_per_second Training throughput in examples per second
# TYPE train_examples_per_second gauge
train_examples_per_second{model="LiGer"} 104
# HELP train_grad_norm Per-step global gradient norm
# TYPE train_grad_norm histogram
train_grad_norm_bucket{le="0.001"} 0
train_grad_norm_bucket{le="0.0025"} 0
train_grad_norm_bucket{le="0.005"} 1
train_grad_norm_bucket{le="0.01"} 1
train_grad_norm_bucket{le="0.025"} 1
train_grad_norm_bucket{le="0.05"} 2
train_grad_norm_bucket{le="0.1"} 2
train_grad_norm_bucket{le="0.25"} 3
train_grad_norm_bucket{le="0.5"} 3
train_grad_norm_bucket{le="1"} 4
train_grad_norm_bucket{le="2.5"} 5
train_grad_norm_bucket{le="5"} 6
train_grad_norm_bucket{le="10"} 7
train_grad_norm_bucket{le="25"} 7
train_grad_norm_bucket{le="50"} 8
train_grad_norm_bucket{le="100"} 8
train_grad_norm_bucket{le="+Inf"} 8
train_grad_norm_sum 53.434
train_grad_norm_count 8
# HELP train_loss Mean training loss of the last epoch
# TYPE train_loss gauge
train_loss{model="LiGer"} 1
# HELP train_subtokens_per_second Training throughput in target sub-tokens per second
# TYPE train_subtokens_per_second gauge
train_subtokens_per_second{model="LiGer"} 304
# HELP train_tape_nodes Nodes on the last batched autodiff tape
# TYPE train_tape_nodes gauge
train_tape_nodes 4096
# HELP train_valid_score Validation score of the last epoch
# TYPE train_valid_score gauge
train_valid_score{model="LiGer"} 0.5
# EOF
|}

let golden_top =
  {|liger top — codec_fixtures/runA/metrics.jsonl  snapshot #3  (+1.0s)
train[LiGer]: 104.0 ex/s, loss 1.0000, valid 0.500
grad-norm: p50 1.000  p90 30.000  p99 48.000  (8 steps, +1 this interval)
pool: 62.5% utilization (2 lanes, 104 tasks in 12 batches)
gc: minor 400 (+100), major 8 (+2), heap 8.4 MB (top 16.8 MB)
bufpool: 3 leased (hw 12), 40 pooled (0.5 MB), 97.3% hit rate
tape: 4096 nodes on the last batched tape
serve[embed]: 3 reqs, p50 7.5 ms, p99 24.5 ms, 0.0 qps
serve cache: 6 entries, 30 hits / 4 misses, 0 evicted
drift[LiGer]: 0.0625 cosine/epoch, nn-churn 0.88
FAIL vanishing-gradients dynamics.layer_grad_norm{layer=dec}: gradient norm 1e-09 below 1e-07
WARN saturation dynamics.saturation{act=tanh,layer=enc}: 95% of activations saturated (threshold 90%)
WARN nn-churn-spike dynamics.nn_churn{model=LiGer}: neighbor churn 0.88 vs median 0.12
WARN loss-plateau-with-drift train.loss{model=LiGer}: loss moved 0.0% over the last 3 snapshots while embeddings drift 0.062/epoch
|}

let golden_findings =
  [
    {|FAIL vanishing-gradients dynamics.layer_grad_norm{layer=dec}: gradient norm 1e-09 below 1e-07|};
    {|WARN saturation dynamics.saturation{act=tanh,layer=enc}: 95% of activations saturated (threshold 90%)|};
    {|WARN nn-churn-spike dynamics.nn_churn{model=LiGer}: neighbor churn 0.88 vs median 0.12|};
    {|WARN loss-plateau-with-drift train.loss{model=LiGer}: loss moved 0.0% over the last 3 snapshots while embeddings drift 0.062/epoch|};
  ]

let golden_report = ("cbf1caa6944d074e794d5960404439c7", 7444)

let golden_report_compare = ("c3aba7c41eae4d7af33307e7243e10b0", 13385)

let test_summaries () =
  build_fixtures ();
  let got =
    List.map
      (fun f -> (f, ok_or_fail f (View.summarize_file (fixture f))))
      [ "runA/metrics.json"; "runA/metrics.jsonl"; "runA/postmortem.json"; "trace.json" ]
  in
  Alcotest.(check (list (pair string string))) "stats summaries" golden_summaries got

let test_validations () =
  build_fixtures ();
  let got =
    List.map
      (fun f -> (f, ok_or_fail f (View.validate_file (fixture f))))
      [ "runA/metrics.json"; "runA/metrics.jsonl"; "runA/postmortem.json"; "trace.json" ]
  in
  Alcotest.(check (list (pair string string))) "stats --validate" golden_validations got

let test_diff () =
  build_fixtures ();
  let got =
    ok_or_fail "diff" (View.diff_files (fixture "runB/metrics.json") (fixture "runA/metrics.json"))
  in
  Alcotest.(check string) "stats A B --diff" golden_diff got

let test_openmetrics () =
  build_fixtures ();
  let file = ok_or_fail "openmetrics" (View.openmetrics_file (fixture "runA/metrics.json")) in
  let ledger = ok_or_fail "openmetrics" (View.openmetrics_file (fixture "runA/metrics.jsonl")) in
  let pm = ok_or_fail "openmetrics" (View.openmetrics_file (fixture "runA/postmortem.json")) in
  Alcotest.(check string) "final ledger line renders as the final snapshot" file ledger;
  Alcotest.(check string) "postmortem renders its embedded snapshot" file pm;
  Alcotest.(check string) "stats --openmetrics" golden_openmetrics_ledger ledger

let test_top () =
  build_fixtures ();
  let got = ok_or_fail "top" (View.top_frame (fixture "runA/metrics.jsonl")) in
  Alcotest.(check string) "top --once" golden_top got

let load name = ok_or_fail name (View.load_report_run (fixture name))

let test_findings () =
  build_fixtures ();
  let got =
    List.map Health.render_finding (Health.evaluate (load "runA").Report_html.lines)
  in
  Alcotest.(check (list string)) "health findings" golden_findings got

let test_report () =
  build_fixtures ();
  let a = load "runA" and b = load "runB" in
  (* the pages run to kilobytes of SVG: pinned by MD5 and length *)
  let digest html = (Digest.to_hex (Digest.string html), String.length html) in
  let single = Report_html.render a and compare = Report_html.render ~other:b a in
  Alcotest.(check (pair string int)) "report bytes" golden_report (digest single);
  Alcotest.(check (pair string int)) "report --compare bytes" golden_report_compare
    (digest compare)

(* ------------------------------------------------------------------ *)
(* Value -> render -> parse -> value is the identity, in both layouts  *)
(* ------------------------------------------------------------------ *)

(* Any finite float: small integers, values that six decimals or fifteen
   significant digits would not keep, and arbitrary bit patterns *)
let gen_float =
  let open QCheck.Gen in
  frequency
    [
      (2, int_range (-4096) 4096 >|= fun n -> float_of_int n /. 64.0);
      ( 1,
        oneofl
          [ 0.0; -0.0; 1e-9; -4e-7; 0.1; 1.0 /. 3.0; 5e-324; 2.2250738585072014e-308;
            1e15; -1e300; Float.max_float ] );
      (3, ui64 >|= fun b -> let x = Int64.float_of_bits b in if Float.is_finite x then x else 0.5);
    ]

let gen_snapshot =
  let open QCheck.Gen in
  let word chars = string_size ~gen:(oneofl chars) (int_range 1 5) in
  let name = word [ 'a'; 'b'; 'c'; '.'; '_' ] in
  let value_chars = [ 'a'; 'b'; '.'; '_'; ' '; '"'; '\\'; '<'; '=' ] in
  let labels =
    list_size (int_range 0 2) (pair (word [ 'k'; 'l' ]) (string_size ~gen:(oneofl value_chars) (int_range 0 4)))
    >|= fun l -> List.sort_uniq (fun (a, _) (b, _) -> compare a b) l
  in
  let value =
    frequency
      [
        (2, int_range (-100000) 100000 >|= fun n -> OM.C n);
        (2, gen_float >|= fun x -> OM.F x);
        (2, gen_float >|= fun x -> OM.G x);
        ( 1,
          int_range 0 4 >>= fun nb ->
          list_repeat nb gen_float >>= fun bs ->
          let buckets = Array.of_list (List.sort_uniq compare bs) in
          list_repeat (Array.length buckets + 1) (int_range 0 50) >>= fun counts ->
          gen_float >|= fun sum ->
          OM.H
            {
              OM.buckets;
              counts = Array.of_list counts;
              sum;
              count = List.fold_left ( + ) 0 counts;
            } );
      ]
  in
  list_size (int_range 0 12) (triple name labels value) >|= fun es ->
  List.map (fun (n, l, v) -> { OM.e_name = n; e_labels = l; e_value = v }) es
  |> List.sort_uniq (fun (a : OM.entry) b -> compare (a.OM.e_name, a.OM.e_labels) (b.OM.e_name, b.OM.e_labels))

let reparse text =
  match Json.parse text with
  | Error e -> QCheck.Test.fail_reportf "unparseable: %s" e
  | Ok j -> (
      match of_json j with
      | Ok s -> s
      | Error e -> QCheck.Test.fail_reportf "not a snapshot: %s" e)

(* an entry with every float as its bit pattern: equal means bitwise equal *)
let bits (e : OM.entry) =
  let b = Int64.bits_of_float in
  ( e.OM.e_name,
    e.OM.e_labels,
    match e.OM.e_value with
    | OM.C n -> `C n
    | OM.F x -> `F (b x)
    | OM.G x -> `G (b x)
    | OM.H h -> `H (Array.map b h.OM.buckets, h.OM.counts, b h.OM.sum, h.OM.count) )

let prop_roundtrip =
  QCheck.Test.make ~name:"value, render, parse, value is the identity, bitwise" ~count:300
    (QCheck.make ~print:OM.to_json gen_snapshot)
    (fun snap ->
      let values s = List.sort compare (List.map bits s) in
      values (reparse (OM.to_json snap)) = values snap
      && values (reparse (OM.to_json_compact ~extra:[ ("ts", "1.5"); ("seq", "3") ] snap))
         = values snap)

(* JSON has no NaN or infinity: a non-finite value is written as null, and
   the reader drops the entry that holds it.  The 17-digit writer reads
   back bitwise too. *)
let test_non_finite () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x) "null" (Json.of_float x);
      Alcotest.(check string) (Printf.sprintf "%h, 17 digits" x) "null" (Json.of_float_17 x))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%h in 17 digits" x) true
        (Int64.bits_of_float (float_of_string (Json.of_float_17 x)) = Int64.bits_of_float x))
    [ 0.1; 1.0 /. 3.0; -1e-9; 5e-324; Float.max_float; -0.0; 1e15 +. 0.5; 42.0 ];
  let snap =
    [
      { OM.e_name = "a"; e_labels = []; e_value = OM.G Float.nan };
      { OM.e_name = "b"; e_labels = []; e_value = OM.G 1e-9 };
    ]
  in
  let text = OM.to_json_compact snap in
  Alcotest.(check string) "rendered as null"
    {|{"counters":{},"fcounters":{},"gauges":{"a":null,"b":1e-09},"histograms":{}}|} text;
  Alcotest.(check (list string)) "only the finite gauge reads back" [ "b" ]
    (List.map (fun (e : OM.entry) -> e.OM.e_name) (reparse text))

let () =
  Alcotest.run "codec"
    [
      ( "layout",
        [
          Alcotest.test_case "metrics.json bytes" `Quick test_pretty_layout;
          Alcotest.test_case "ledger line bytes" `Quick test_compact_layout;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "non-finite values" `Quick test_non_finite;
        ] );
      ( "readers",
        [
          Alcotest.test_case "stats summaries" `Quick test_summaries;
          Alcotest.test_case "stats --validate" `Quick test_validations;
          Alcotest.test_case "stats --diff" `Quick test_diff;
          Alcotest.test_case "stats --openmetrics" `Quick test_openmetrics;
          Alcotest.test_case "top frame" `Quick test_top;
          Alcotest.test_case "health findings" `Quick test_findings;
          Alcotest.test_case "report and compare" `Quick test_report;
        ] );
    ]
