(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section and, per deliverable, registers one Bechamel
   measurement per table/figure exercising that experiment's computational
   kernel.

   Usage:
     dune exec bench/main.exe                 # quick scale (default)
     LIGER_SCALE=full dune exec bench/main.exe
     dune exec bench/main.exe -- --no-micro   # skip Bechamel microbenches
     dune exec bench/main.exe -- --micro-only # only the microbenches
     dune exec bench/main.exe -- --jobs 4     # parallel corpus-generation
                                              # benchmark (1 vs 4 domains),
                                              # writes BENCH_parallel.json
     dune exec bench/main.exe -- --trace t.json --metrics-out m.json
                                              # Chrome trace + metrics snapshot

   --jobs N alone runs only the parallel benchmark; combine it with the
   other flags to also run those sections on an N-sized pool.  Unknown or
   contradictory flags are an error.

   The printed artefacts mirror the paper:
     Table 1  - dataset statistics before/after filtering
     Table 2  - code2vec / code2seq / DYPRO / LiGer on both naming corpora
     Table 3  - DYPRO vs LiGer on the COSET analogue
     Figure 6 - F1 under concrete- and symbolic-trace reduction
     Figure 7 - the same reductions on the COSET task
     Figures 8/9/10 - the ablation configurations under reduction
     Figure 11 - all configurations overlaid
     plus the 6.1.2 attention-weight inspection. *)

open Bechamel
open Liger_tensor
open Liger_core
open Liger_eval
module Obs = Liger_obs.Obs
module B = Liger_obs.Bench_store

let say fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Bechamel microbenches: the kernel behind each experiment            *)
(* ------------------------------------------------------------------ *)

type fixture = {
  example : Common.enc_example;
  liger : Liger_model.t;
  liger_wrap : Train.model;
  dypro : Train.model;
  code2vec : Train.model;
  code2seq : Train.model;
  vocab : Liger_trace.Vocab.t;
  candidates : Liger_testgen.Filter.candidate list;
}

let build_fixture () =
  let rng = Rng.create 777 in
  let enc =
    { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  let corpus = Liger_dataset.Pipeline.build_naming ~enc_config:enc rng ~name:"bench" ~n:60 in
  let example = List.hd corpus.Liger_dataset.Pipeline.train in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let liger_wrap, liger = Zoo.liger ~vocab Liger_model.Naming in
  let candidates =
    Liger_dataset.Javagen.generate (Rng.create 778) ~n:3
    |> List.map (fun (it : Liger_dataset.Javagen.item) -> it.Liger_dataset.Javagen.candidate)
  in
  {
    example;
    liger;
    liger_wrap;
    dypro = fst (Zoo.dypro ~vocab Liger_model.Naming);
    code2vec = Zoo.code2vec ~train Liger_model.Naming;
    code2seq = Zoo.code2seq ~train Liger_model.Naming;
    vocab;
    candidates;
  }

(* one training step as [Train.fit] takes it at batch size 1: forward and
   backward on a one-lane batched tape (the optimizer update excluded) *)
let train_step (wrap : Train.model) ex () =
  ignore (Train.backward_chunk (Train.batched_hooks wrap) [| ex |]);
  Param.zero_grads wrap.Train.store

let ablation_step fx ~seed config =
  let w, _ = Zoo.liger ~config ~seed ~vocab:fx.vocab Liger_model.Naming in
  train_step w fx.example

let micro_tests fx =
  let view_reduced = { Common.n_paths = 1; n_concrete = 1 } in
  [
    (* Table 1 kernel: the filtering pipeline over raw candidates *)
    Test.make ~name:"table1/filter-pipeline"
      (Staged.stage (fun () ->
           let rng = Rng.create 1 in
           let budget =
             { Liger_testgen.Feedback.max_attempts = 15; target_paths = 2; per_path = 2;
               fuel = 4000 }
           in
           List.iter
             (fun c -> ignore (Liger_testgen.Filter.classify ~budget rng c))
             fx.candidates));
    (* Table 2 kernels: one training step per model *)
    Test.make ~name:"table2/liger-step" (Staged.stage (train_step fx.liger_wrap fx.example));
    Test.make ~name:"table2/dypro-step" (Staged.stage (train_step fx.dypro fx.example));
    Test.make ~name:"table2/code2seq-step" (Staged.stage (train_step fx.code2seq fx.example));
    Test.make ~name:"table2/code2vec-step" (Staged.stage (train_step fx.code2vec fx.example));
    (* Table 3 kernel: program-embedding encode (the classifier input) *)
    Test.make ~name:"table3/liger-encode"
      (Staged.stage (fun () -> ignore (Liger_model.embed_program fx.liger fx.example)));
    (* Figure 6/7 kernels: encoding under full vs reduced views *)
    Test.make ~name:"fig6/encode-full"
      (Staged.stage (fun () ->
           ignore (Liger_model.embed_program fx.liger ~view:Common.full_view fx.example)));
    Test.make ~name:"fig7/encode-reduced"
      (Staged.stage (fun () ->
           ignore (Liger_model.embed_program fx.liger ~view:view_reduced fx.example)));
    (* Figures 8-11 kernels: one step of each ablation configuration *)
    Test.make ~name:"fig8/nostatic-step"
      (Staged.stage
         (ablation_step fx ~seed:21
            { Liger_model.default_config with Liger_model.use_static = false }));
    Test.make ~name:"fig9/nodynamic-step"
      (Staged.stage
         (ablation_step fx ~seed:22
            { Liger_model.default_config with Liger_model.use_dynamic = false }));
    Test.make ~name:"fig10/noattention-step"
      (Staged.stage
         (ablation_step fx ~seed:23
            { Liger_model.default_config with Liger_model.use_attention = false }));
    Test.make ~name:"fig11/full-config-step"
      (Staged.stage (train_step fx.liger_wrap fx.example));
    (* Dynamics-hook overhead: the identical step with the
       training-dynamics streams enabled.  The delta vs table2/liger-step
       is what the one-branch-when-disabled contract keeps off the
       default path; both flags are restored so later benches see the
       registry exactly as before. *)
    Test.make ~name:"dynamics/liger-step-instrumented"
      (Staged.stage (fun () ->
           let metrics_were_on = Liger_obs.Metrics.enabled () in
           Liger_obs.Metrics.enable ();
           Liger_obs.Dynamics.enable ();
           Fun.protect
             ~finally:(fun () ->
               Liger_obs.Dynamics.disable ();
               if not metrics_were_on then Liger_obs.Metrics.disable ())
             (train_step fx.liger_wrap fx.example)));
    (* Abstract interpretation & probing kernels: the widening/narrowing
       fixpoint, the CHK dominator passes and exact probe labelling *)
    Test.make ~name:"absint/analyze"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Liger_testgen.Filter.candidate) ->
               ignore (Liger_analysis.Absint.analyze c.Liger_testgen.Filter.meth))
             fx.candidates));
    Test.make ~name:"absint/dominators"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Liger_testgen.Filter.candidate) ->
               let cfg = Liger_analysis.Cfg.build c.Liger_testgen.Filter.meth in
               ignore (Liger_analysis.Dominator.dominators cfg);
               ignore (Liger_analysis.Dominator.postdominators cfg))
             fx.candidates));
    Test.make ~name:"probe/label-method"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Liger_testgen.Filter.candidate) ->
               ignore (Liger_dataset.Probing.label_method c.Liger_testgen.Filter.meth))
             fx.candidates));
  ]

let run_micro () =
  Obs.Recorder.note "bench.micro";
  say "\nBechamel microbenches (computational kernel of each table/figure)\n";
  say "%s\n%!" (String.make 72 '-');
  let fx = build_fixture () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let results = Benchmark.run cfg instances elt in
          let estimate = Analyze.one ols (List.hd instances) results in
          match Analyze.OLS.estimates estimate with
          | Some [ t ] ->
              say "  %-28s %12.1f us/run\n%!" (Test.Elt.name elt) (t /. 1000.0)
          | _ -> say "  %-28s (no estimate)\n%!" (Test.Elt.name elt))
        (Test.elements test))
    (micro_tests fx);
  say "%s\n" (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* The experiments themselves                                          *)
(* ------------------------------------------------------------------ *)

let run_experiments () =
  Obs.Recorder.note "bench.experiments";
  let t0 = Unix.gettimeofday () in
  let ctx = Experiments.create_ctx () in
  ctx.Experiments.progress <-
    (fun s ->
      (* progress lines double as flight-recorder breadcrumbs: a crash
         mid-sweep names the table/figure it died in *)
      if Obs.Recorder.enabled () then Obs.Recorder.note ~detail:s "bench.progress";
      Printf.eprintf "[%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) s);
  say "LiGer reproduction - evaluation at scale '%s'\n"
    ctx.Experiments.scale.Experiments.label;
  say "(set LIGER_SCALE=full for the larger configuration)\n\n%!";
  Report.print_table1 (Experiments.table1 ctx);
  say "\n";
  Report.print_table2 (Experiments.table2 ctx);
  say "\n";
  Report.print_table3 (Experiments.table3 ctx);
  say "\n";
  Report.print_fig6 (Experiments.fig6 ctx);
  say "\n";
  Report.print_fig7 (Experiments.fig7 ctx);
  say "\n";
  Report.print_fig8 (Experiments.fig8 ctx);
  say "\n";
  Report.print_fig9 (Experiments.fig9 ctx);
  say "\n";
  Report.print_fig10 (Experiments.fig10 ctx);
  say "\n";
  Report.print_fig11 (Experiments.fig11 ctx);
  say "\n";
  Report.print_design_ablation (Experiments.design_ablation ctx);
  say "\n";
  Report.print_attention (Experiments.attention_report ctx);
  say "\ntotal wall time: %.1fs\n%!" (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Parallel corpus-generation benchmark (--jobs N)                      *)
(* ------------------------------------------------------------------ *)

(* The corpus pipeline is the trace-volume bottleneck (ISSUE 2 /
   data-reliance studies): interpret every method under many inputs,
   symbolically execute, filter, encode.  This benchmark builds the same
   corpus sequentially and on an N-domain pool, checks the determinism
   contract on the way, and records throughput for the perf trajectory. *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let strip_uids (c : Liger_dataset.Pipeline.corpus) =
  let strip = List.map (fun ex -> { ex with Common.uid = 0 }) in
  (strip c.Liger_dataset.Pipeline.train,
   strip c.Liger_dataset.Pipeline.valid,
   strip c.Liger_dataset.Pipeline.test,
   Liger_trace.Vocab.to_list c.Liger_dataset.Pipeline.vocab)

let run_parallel_bench ~jobs =
  let open Liger_parallel in
  if Obs.Recorder.enabled () then
    Obs.Recorder.note ~detail:(Printf.sprintf "jobs %d" jobs) "bench.parallel";
  say "\nParallel corpus generation: 1 domain vs %d domains\n" jobs;
  say "%s\n%!" (String.make 72 '-');
  let n_methods =
    let cfg = Liger_obs.Config.get () in
    match (cfg.Liger_obs.Config.bench_n, cfg.Liger_obs.Config.scale) with
    | Some n, _ -> n
    | None, Liger_obs.Config.Full -> 300
    | None, Liger_obs.Config.Quick -> 120
  in
  let enc =
    { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  let build j =
    Parallel.set_jobs j;
    (* pool telemetry lives in the metrics registry now; recording it needs
       the registry on regardless of --metrics-out *)
    Liger_obs.Metrics.enable ();
    Liger_obs.Metrics.reset_prefix "parallel.";
    (* reset the id counters so the two builds are comparable byte-for-byte
       (ids only need to be unique within a method / model lifetime) *)
    Liger_lang.Ast.reset_sids ();
    Common.reset_uids ();
    let t0 = Unix.gettimeofday () in
    let corpus =
      Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4242)
        ~name:"parbench" ~n:n_methods
    in
    let dt = Unix.gettimeofday () -. t0 in
    (corpus, dt, Liger_obs.Metrics.snapshot ())
  in
  let seq_corpus, seq_dt, _ = build 1 in
  let par_corpus, par_dt, snap = build jobs in
  (* pool stats, straight from the metrics snapshot *)
  let pool_tasks = Liger_obs.Metrics.counter_value snap "parallel.tasks" in
  let pool_batches = Liger_obs.Metrics.counter_value snap "parallel.batches" in
  let pool_wall = Liger_obs.Metrics.fcounter_value snap "parallel.wall_seconds" in
  let busy_seconds = Parallel.Stats.busy_of_snapshot snap in
  let total_busy = Array.fold_left ( +. ) 0.0 busy_seconds in
  let utilization =
    if pool_wall > 0.0 && Array.length busy_seconds > 0 then
      total_busy /. (pool_wall *. float_of_int (Array.length busy_seconds))
    else 0.0
  in
  let deterministic = strip_uids seq_corpus = strip_uids par_corpus in
  let speedup = seq_dt /. par_dt in
  say "  methods generated            %12d\n" n_methods;
  say "  sequential (1 domain)        %12.2f s\n" seq_dt;
  say "  parallel  (%2d domains)       %12.2f s\n" jobs par_dt;
  say "  speedup                      %12.2fx\n" speedup;
  say "  deterministic (1 vs %d)      %12s\n" jobs (if deterministic then "yes" else "NO");
  say "  pool tasks                   %12d in %d batches\n" pool_tasks pool_batches;
  say "  pool utilization             %12.1f %%\n" (100.0 *. utilization);
  Array.iteri
    (fun i busy ->
      say "  domain %d busy                %12.2f s%s\n" i busy
        (if i = 0 then "  (caller)" else ""))
    busy_seconds;
  say "%s\n%!" (String.make 72 '-');
  if not deterministic then
    prerr_endline "WARNING: parallel corpus differs from sequential corpus";
  if jobs > 1 && speedup < 1.0 then
    Printf.eprintf
      "WARNING: parallel corpus generation is SLOWER than sequential (%.2fx \
       speedup with %d jobs on %d available core(s)); see DESIGN.md on \
       oversubscription\n%!"
      speedup jobs
      (Domain.recommended_domain_count ());
  let rev = B.git_rev () in
  let date = B.iso8601 (Unix.gettimeofday ()) in
  let oc = open_out "BENCH_parallel.json" in
  let busy =
    busy_seconds |> Array.to_list
    |> List.map (Printf.sprintf "%.6f")
    |> String.concat ", "
  in
  Printf.fprintf oc
    {|{
  "benchmark": "%s",
  "rev": "%s",
  "date": "%s",
  "methods": %d,
  "jobs": %d,
  "seq_seconds": %.6f,
  "par_seconds": %.6f,
  "speedup": %.4f,
  "seq_methods_per_second": %.4f,
  "par_methods_per_second": %.4f,
  "deterministic": %b,
  "pool_tasks": %d,
  "pool_batches": %d,
  "pool_wall_seconds": %.6f,
  "pool_utilization": %.4f,
  "per_domain_busy_seconds": [%s]
}
|}
    (json_escape "corpus-generation (build_naming: testgen + filter + trace + encode)")
    (json_escape rev) (json_escape date) n_methods jobs seq_dt par_dt speedup
    (float_of_int n_methods /. seq_dt)
    (float_of_int n_methods /. par_dt)
    deterministic pool_tasks pool_batches pool_wall utilization busy;
  close_out oc;
  say "wrote BENCH_parallel.json\n%!";
  {
    B.benchmark = "parallel-corpus";
    rev;
    date;
    jobs;
    metrics =
      [
        ("methods", float_of_int n_methods);
        ("seq_seconds", seq_dt);
        ("par_seconds", par_dt);
        ("speedup", speedup);
        ("seq_methods_per_second", float_of_int n_methods /. seq_dt);
        ("par_methods_per_second", float_of_int n_methods /. par_dt);
        ("pool_utilization", utilization);
        ("deterministic", if deterministic then 1.0 else 0.0);
      ];
  }

(* the largest relative throughput drop the history gates accept *)
let regression_threshold = 0.3

(* ------------------------------------------------------------------ *)
(* Serve loopback benchmark (serve --qps N --duration S)                *)
(* ------------------------------------------------------------------ *)

(* Closed-loop paced load against a real [liger serve] stack — sockets,
   parser, gate, coalescer, cache, batched forward — over the loopback
   interface.  A warm-up pass fills the embedding cache first: the steady
   state being measured is the serving design's steady state (AST-hash
   cache hits + coalesced misses), not repeated cold trace generation. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let run_serve_bench ~qps ~duration =
  let module Serve = Liger_serve in
  if Obs.Recorder.enabled () then
    Obs.Recorder.note ~detail:(Printf.sprintf "qps %.0f duration %.0fs" qps duration)
      "bench.serve";
  say "\nServe loopback benchmark: target %.0f QPS for %.0fs\n" qps duration;
  say "%s\n%!" (String.make 72 '-');
  (* seed-scale model over the same fixture corpus the microbenches use *)
  let enc =
    { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  let corpus =
    Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 777)
      ~name:"servebench" ~n:40
  in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let _, model = Zoo.liger ~vocab Liger_model.Naming in
  Liger_obs.Metrics.enable ();
  Liger_obs.Metrics.reset_prefix "serve.";
  let engine = Serve.Engine.create ~model ~vocab () in
  let server =
    Serve.Server.start
      ~config:{ Serve.Server.default_config with Serve.Server.max_inflight = 64 }
      ~handler:(Serve.Engine.handle engine) ()
  in
  let port = Serve.Server.port server in
  let bodies =
    corpus.Liger_dataset.Pipeline.train
    |> List.filteri (fun i _ -> i < 8)
    |> List.map (fun (ex : Common.enc_example) ->
           Liger_lang.Pretty.meth_to_string ex.Common.meth)
    |> Array.of_list
  in
  if Array.length bodies = 0 then failwith "serve bench: empty fixture corpus";
  let post body =
    Serve.Client.request ~meth:"POST" ~body ~port "/embed"
  in
  Array.iter (fun b -> ignore (post b)) bodies (* warm-up: fill the cache *);
  let workers = 4 in
  (* pace 2% above the target: a loop paced at exactly [qps] completes
     qps*duration requests in slightly MORE than [duration] (the last
     tick lands on the boundary), so sustained throughput would sit just
     under the target and a ">= target" floor could never pass *)
  let interval = float_of_int workers /. (qps *. 1.02) in
  let completed = Atomic.make 0 and errors = Atomic.make 0 in
  let lat_lock = Mutex.create () in
  let lats = ref [] in
  let t_start = Unix.gettimeofday () in
  let t_end = t_start +. duration in
  let worker w =
    (* stagger worker phases so the aggregate arrival process is even *)
    let next = ref (t_start +. (interval *. float_of_int w /. float_of_int workers)) in
    let i = ref w in
    while Unix.gettimeofday () < t_end do
      let now = Unix.gettimeofday () in
      if now < !next then Unix.sleepf (min (!next -. now) (t_end -. now));
      if Unix.gettimeofday () < t_end then begin
        let body = bodies.(!i mod Array.length bodies) in
        i := !i + workers;
        let t0 = Unix.gettimeofday () in
        (match post body with
        | resp ->
            let dt = Unix.gettimeofday () -. t0 in
            if resp.Serve.Client.status = 200 then begin
              Atomic.incr completed;
              Mutex.lock lat_lock;
              lats := dt :: !lats;
              Mutex.unlock lat_lock
            end
            else Atomic.incr errors
        | exception _ -> Atomic.incr errors);
        next := !next +. interval
      end
    done
  in
  let threads = List.init workers (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t_start in
  Serve.Server.stop server;
  Serve.Engine.stop engine;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let completed = Atomic.get completed and errors = Atomic.get errors in
  let sustained = float_of_int completed /. wall in
  let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
  let snap = Liger_obs.Metrics.snapshot () in
  let cache_hits = float_of_int (Liger_obs.Metrics.counter_value snap "serve.cache_hits") in
  say "  target                       %12.1f qps\n" qps;
  say "  completed                    %12d ok, %d errors in %.2f s\n" completed errors wall;
  say "  sustained                    %12.1f qps\n" sustained;
  say "  latency p50                  %12.2f ms\n" (1000.0 *. p50);
  say "  latency p99                  %12.2f ms\n" (1000.0 *. p99);
  say "  cache hits                   %12.0f\n" cache_hits;
  say "%s\n%!" (String.make 72 '-');
  {
    B.benchmark = "serve.loopback";
    rev = B.git_rev ();
    date = B.iso8601 (Unix.gettimeofday ());
    jobs = Liger_parallel.Parallel.jobs ();
    metrics =
      [
        ("qps_target", qps);
        ("duration_s", wall);
        ("completed", float_of_int completed);
        ("errors", float_of_int errors);
        ("sustained_qps", sustained);
        ("p50_s", p50);
        ("p99_s", p99);
        ("cache_hits", cache_hits);
      ];
  }

(* Serve gates: the acceptance floor is absolute (sustain the target with a
   sane tail), the history gate is relative (no silent throughput slide). *)
let serve_regression_failures ~history (r : B.record) =
  let failures = ref [] in
  let metric name = List.assoc_opt name r.B.metrics in
  (match (metric "qps_target", metric "sustained_qps") with
  | Some target, Some sustained when target >= 50.0 && sustained < 50.0 ->
      failures :=
        Printf.sprintf "sustained %.1f qps < 50 qps floor (target %.0f)" sustained target
        :: !failures
  | _ -> ());
  (match metric "p99_s" with
  | Some p99 when p99 >= 0.25 ->
      failures := Printf.sprintf "p99 latency %.1f ms >= 250 ms" (1000.0 *. p99) :: !failures
  | _ -> ());
  (match history with
  | Some path when Sys.file_exists path -> (
      match B.load path with
      | Error msg ->
          Printf.eprintf "warning: cannot read %s for regression check: %s\n" path msg
      | Ok records -> (
          match B.last_matching ~jobs:r.B.jobs ~benchmark:r.B.benchmark records with
          | None -> ()
          | Some prev -> (
              match
                ( List.assoc_opt "sustained_qps" prev.B.metrics,
                  List.assoc_opt "sustained_qps" r.B.metrics )
              with
              | Some before, Some after when before > 0.0 ->
                  let drop = (before -. after) /. before in
                  if drop > regression_threshold then
                    failures :=
                      Printf.sprintf
                        "sustained_qps dropped %.0f%% vs %s@%s (%.2f -> %.2f, \
                         threshold %.0f%%)"
                        (100.0 *. drop) prev.B.date prev.B.rev before after
                        (100.0 *. regression_threshold)
                      :: !failures
              | _ -> ())))
  | _ -> ());
  List.rev !failures

(* --check-regression: compare the fresh record against the most recent
   history record with the same benchmark and job count.  Two gates:
   speedup below 1 with jobs > 1 (parallelism actively hurting — on a
   single-core host the bench runs with jobs=1 and this gate is moot), and
   parallel throughput dropping by more than [regression_threshold]
   (30%) versus the previous run. *)

let regression_failures ~history (r : B.record) =
  let failures = ref [] in
  let speedup = try List.assoc "speedup" r.B.metrics with Not_found -> 1.0 in
  (* A jobs<=1 record can never trip the speedup gate, so a run configured
     that way silently waives the check it claims to enforce.  Fail loudly
     instead of letting the gate rot (the CI bench must pass --jobs 2). *)
  if r.B.jobs <= 1 then
    failures :=
      Printf.sprintf
        "parallel benchmark recorded at jobs=%d: the speedup >= 1 gate cannot engage; \
         run with --jobs 2 (or more) so --check-regression checks what it claims to"
        r.B.jobs
      :: !failures
  else if speedup < 1.0 then
    if r.B.jobs > Domain.recommended_domain_count () then
      (* oversubscribed host (e.g. a 1-core CI runner asked for 2 domains):
         a speedup below 1 is expected there and not a code regression, so
         warn — the throughput-drop gate below still applies *)
      Printf.eprintf
        "warning: speedup %.2fx < 1.00x with %d jobs on %d core(s) — oversubscribed \
         host, speedup gate waived (throughput gate still active)\n%!"
        speedup r.B.jobs
        (Domain.recommended_domain_count ())
    else
      failures :=
        Printf.sprintf "speedup %.2fx < 1.00x with %d jobs (parallelism is hurting)" speedup
          r.B.jobs
        :: !failures;
  (match history with
  | Some path when Sys.file_exists path -> (
      match B.load path with
      | Error msg -> Printf.eprintf "warning: cannot read %s for regression check: %s\n" path msg
      | Ok records -> (
          match B.last_matching ~jobs:r.B.jobs ~benchmark:r.B.benchmark records with
          | None -> ()
          | Some prev -> (
              match
                ( List.assoc_opt "par_methods_per_second" prev.B.metrics,
                  List.assoc_opt "par_methods_per_second" r.B.metrics )
              with
              | Some before, Some after when before > 0.0 ->
                  let drop = (before -. after) /. before in
                  if drop > regression_threshold then
                    failures :=
                      Printf.sprintf
                        "par_methods_per_second dropped %.0f%% vs %s@%s (%.2f -> %.2f, \
                         threshold %.0f%%)"
                        (100.0 *. drop) prev.B.date prev.B.rev before after
                        (100.0 *. regression_threshold)
                      :: !failures
              | _ -> ())))
  | _ -> ());
  List.rev !failures

(* --check-train-regression: gate on the training-throughput records that
   [liger train --history] appends.  For each train.* benchmark key
   (benchmark, jobs, batch_size — older records without a batch_size count
   as 1), the newest record's examples_per_second must not drop more than
   the threshold below the previous matching record.  An empty history is a
   defeated gate, not a pass. *)

let train_regression_failures ~history =
  let failures = ref [] in
  (match history with
  | None ->
      failures :=
        "--check-train-regression needs --history FILE (no history, nothing checked)"
        :: !failures
  | Some path when not (Sys.file_exists path) ->
      failures := Printf.sprintf "history %s does not exist: train gate cannot engage" path :: !failures
  | Some path -> (
      match B.load path with
      | Error msg -> failures := Printf.sprintf "cannot read %s: %s" path msg :: !failures
      | Ok records ->
          let train = List.filter (fun r -> String.length r.B.benchmark >= 6
                                            && String.sub r.B.benchmark 0 6 = "train.") records in
          if train = [] then
            failures :=
              Printf.sprintf "no train.* records in %s: train gate cannot engage" path
              :: !failures
          else begin
            let metric_int name default r =
              match List.assoc_opt name r.B.metrics with
              | Some v -> int_of_float v
              | None -> default
            in
            (* throughput is only comparable between runs of the same shape:
               same benchmark, pool size, batch size, and training scale
               (epochs × corpus size); legacy records missing a field get a
               sentinel so they only ever match each other *)
            let key r =
              ( r.B.benchmark,
                r.B.jobs,
                metric_int "batch_size" 1 r,
                metric_int "epochs" (-1) r,
                metric_int "corpus_n" (-1) r )
            in
            let keys = List.sort_uniq compare (List.map key train) in
            List.iter
              (fun k ->
                match List.rev (List.filter (fun r -> key r = k) train) with
                | latest :: prev :: _ -> (
                    match
                      ( List.assoc_opt "examples_per_second" prev.B.metrics,
                        List.assoc_opt "examples_per_second" latest.B.metrics )
                    with
                    | Some before, Some after when before > 0.0 ->
                        let drop = (before -. after) /. before in
                        let bench, jobs, bs, _, _ = k in
                        if drop > regression_threshold then
                          failures :=
                            Printf.sprintf
                              "%s (jobs=%d, batch=%d): examples_per_second dropped \
                               %.0f%% vs %s@%s (%.2f -> %.2f, threshold %.0f%%)"
                              bench jobs bs (100.0 *. drop) prev.B.date prev.B.rev before
                              after (100.0 *. regression_threshold)
                            :: !failures
                    | _ -> ())
                | _ -> ())
              keys
          end));
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Argument parsing: unknown or contradictory flags are an error        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench/main.exe [--no-micro | --micro-only] [--jobs N] [--trace FILE] \
     [--metrics-out FILE] [--profile] [--history FILE] [--check-regression]";
  prerr_endline
    "       bench/main.exe serve [--qps N] [--duration S] [--history FILE] \
     [--check-regression]";
  prerr_endline "  serve             loopback load benchmark against a real liger serve stack:";
  prerr_endline "                    paced POST /embed at --qps (default 50) for --duration";
  prerr_endline "                    seconds (default 10); records serve.loopback (sustained";
  prerr_endline "                    qps, p50/p99) and, under --check-regression, gates on the";
  prerr_endline "                    50 qps / 250 ms p99 floors and the history threshold";
  prerr_endline "  --no-micro        run the experiments without the Bechamel microbenches";
  prerr_endline "  --micro-only      run only the Bechamel microbenches";
  prerr_endline "  --jobs N          run the parallel corpus-generation benchmark on N domains";
  prerr_endline "                    (alone: only that benchmark; with other flags: those too)";
  prerr_endline "  --trace FILE      write a Chrome trace_event JSON (chrome://tracing / Perfetto)";
  prerr_endline "  --metrics-out FILE  write a metrics snapshot JSON on exit";
  prerr_endline "  --profile         enable the model profiler (per-op FLOPs, per-layer timings)";
  prerr_endline "  --history FILE    append the parallel benchmark's record to a JSONL history";
  prerr_endline "                    (diff runs with 'liger stats --diff FILE')";
  prerr_endline "  --check-regression  exit 1 if the parallel benchmark regressed (speedup < 1";
  prerr_endline "                    with jobs > 1, or throughput down > 30% vs the previous";
  prerr_endline "                    matching history record).";
  prerr_endline "                    Recording at jobs <= 1 fails loudly: it defeats the gate";
  prerr_endline "  --check-train-regression  exit 1 if the newest train.* record in --history FILE";
  prerr_endline "                    has examples_per_second down > the threshold vs the previous";
  prerr_endline "                    record with the same benchmark, jobs, and batch_size";
  exit 2

type opts = {
  no_micro : bool;
  micro_only : bool;
  jobs : int option;
  trace_out : string option;
  metrics_out : string option;
  profile : bool;
  history : string option;
  check_regression : bool;
  check_train_regression : bool;
  serve_mode : bool;
  qps : float;
  duration : float;
}

let () =
  let rec parse o = function
    | [] -> o
    | "serve" :: rest -> parse { o with serve_mode = true } rest
    | "--no-micro" :: rest -> parse { o with no_micro = true } rest
    | "--micro-only" :: rest -> parse { o with micro_only = true } rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> parse { o with jobs = Some n } rest
        | _ ->
            Printf.eprintf "error: --jobs expects a positive integer, got %S\n" n;
            usage ())
    | "--qps" :: n :: rest -> (
        match float_of_string_opt n with
        | Some q when q > 0.0 -> parse { o with qps = q } rest
        | _ ->
            Printf.eprintf "error: --qps expects a positive number, got %S\n" n;
            usage ())
    | "--duration" :: n :: rest -> (
        match float_of_string_opt n with
        | Some d when d > 0.0 -> parse { o with duration = d } rest
        | _ ->
            Printf.eprintf "error: --duration expects a positive number, got %S\n" n;
            usage ())
    | "--trace" :: path :: rest -> parse { o with trace_out = Some path } rest
    | "--metrics-out" :: path :: rest -> parse { o with metrics_out = Some path } rest
    | "--profile" :: rest -> parse { o with profile = true } rest
    | "--history" :: path :: rest -> parse { o with history = Some path } rest
    | "--check-regression" :: rest -> parse { o with check_regression = true } rest
    | "--check-train-regression" :: rest ->
        parse { o with check_train_regression = true } rest
    | [ (("--jobs" | "--qps" | "--duration" | "--trace" | "--metrics-out" | "--history")
        as flag) ] ->
        Printf.eprintf "error: %s expects an argument\n" flag;
        usage ()
    | arg :: _ ->
        Printf.eprintf "error: unknown argument %S\n" arg;
        usage ()
  in
  let o =
    parse
      { no_micro = false; micro_only = false; jobs = None; trace_out = None;
        metrics_out = None; profile = false; history = None; check_regression = false;
        check_train_regression = false; serve_mode = false; qps = 50.0; duration = 10.0 }
      (List.tl (Array.to_list Sys.argv))
  in
  if o.no_micro && o.micro_only then begin
    prerr_endline "error: --no-micro and --micro-only together would run nothing";
    usage ()
  end;
  Obs.init_logging ();
  Obs.init ?metrics_out:o.metrics_out ?trace_out:o.trace_out ~profile:o.profile ();
  (match o.jobs with Some n -> Liger_parallel.Parallel.set_jobs n | None -> ());
  if o.serve_mode then begin
    let record = run_serve_bench ~qps:o.qps ~duration:o.duration in
    let failures =
      if o.check_regression then serve_regression_failures ~history:o.history record
      else []
    in
    (match o.history with
    | Some path ->
        B.append ~path record;
        say "benchmark record appended to %s\n%!" path
    | None -> ());
    Obs.print_report ();
    if failures <> [] then begin
      prerr_endline "REGRESSION CHECK FAILED:";
      List.iter (fun f -> Printf.eprintf "  - %s\n" f) failures;
      exit 1
    end;
    exit 0
  end;
  if o.check_regression && o.jobs = None then begin
    (* without --jobs no parallel record is produced, so the "check" would
       vacuously pass — refuse rather than pretend the gate ran *)
    prerr_endline "error: --check-regression requires --jobs N (nothing would be checked)";
    usage ()
  end;
  (* --jobs alone means: only the parallel benchmark; --check-train-regression
     alone is a pure history check and runs no benchmark at all *)
  let only_parbench = o.jobs <> None && (not o.no_micro) && not o.micro_only in
  let only_traincheck =
    o.check_train_regression && o.jobs = None && (not o.no_micro) && not o.micro_only
  in
  if (not o.micro_only) && (not only_parbench) && not only_traincheck then run_experiments ();
  if (not o.no_micro) && (not only_parbench) && not only_traincheck then run_micro ();
  let failures =
    match o.jobs with
    | None -> []
    | Some n ->
        let record = run_parallel_bench ~jobs:n in
        (* gate against the PREVIOUS matching record, then append this run *)
        let failures =
          if o.check_regression then regression_failures ~history:o.history record else []
        in
        (match o.history with
        | Some path ->
            B.append ~path record;
            say "benchmark record appended to %s\n%!" path
        | None -> ());
        failures
  in
  let failures =
    failures
    @ (if o.check_train_regression then train_regression_failures ~history:o.history else [])
  in
  if not only_traincheck then Obs.print_report ();
  if failures <> [] then begin
    prerr_endline "REGRESSION CHECK FAILED:";
    List.iter (fun f -> Printf.eprintf "  - %s\n" f) failures;
    exit 1
  end;
  if o.check_train_regression then say "train regression check passed\n%!"
