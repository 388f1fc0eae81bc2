(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section, and runs the serve loopback benchmark with its
   absolute throughput and tail-latency floors.

   Usage:
     dune exec bench/main.exe                 # quick scale (default)
     LIGER_SCALE=full dune exec bench/main.exe
     dune exec bench/main.exe -- --trace t.json --metrics-out m.json
                                              # Chrome trace + metrics snapshot
     dune exec bench/main.exe -- serve --qps 50 --duration 10 --check-regression
                                              # loopback load against liger serve

   Timing of corpus generation, training and serving is perfbench's job
   (perfbench/run.py); CI gates those paths on counted work.  Unknown or
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

open Liger_tensor
open Liger_core
open Liger_eval
module Obs = Liger_obs.Obs

let say fmt = Printf.printf fmt

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
  (* seed-scale model over a 40-method fixture corpus *)
  let enc =
    { Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
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
  (sustained, p99)

(* The serve acceptance floors are absolute: sustain the target (when it
   is at least 50 qps) with a p99 under 250 ms. *)
let serve_floor_failures ~qps (sustained, p99) =
  (if qps >= 50.0 && sustained < 50.0 then
     [ Printf.sprintf "sustained %.1f qps < 50 qps floor (target %.0f)" sustained qps ]
   else [])
  @ if p99 >= 0.25 then [ Printf.sprintf "p99 latency %.1f ms >= 250 ms" (1000.0 *. p99) ] else []

(* ------------------------------------------------------------------ *)
(* Argument parsing: unknown or contradictory flags are an error        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline "usage: bench/main.exe [--trace FILE] [--metrics-out FILE] [--profile]";
  prerr_endline
    "       bench/main.exe serve [--qps N] [--duration S] [--check-regression]";
  prerr_endline "  serve             loopback load benchmark against a real liger serve stack:";
  prerr_endline "                    paced POST /embed at --qps (default 50) for --duration";
  prerr_endline "                    seconds (default 10); prints sustained qps and p50/p99";
  prerr_endline "  --check-regression  (serve) exit 1 below the 50 qps floor or at p99 >= 250 ms";
  prerr_endline "  --trace FILE      write a Chrome trace_event JSON (chrome://tracing / Perfetto)";
  prerr_endline "  --metrics-out FILE  write a metrics snapshot JSON on exit";
  prerr_endline "  --profile         enable the model profiler (per-op FLOPs, per-layer timings)";
  exit 2

type opts = {
  trace_out : string option;
  metrics_out : string option;
  profile : bool;
  check_regression : bool;
  serve_mode : bool;
  qps : float;
  duration : float;
}

let () =
  let rec parse o = function
    | [] -> o
    | "serve" :: rest -> parse { o with serve_mode = true } rest
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
    | "--check-regression" :: rest -> parse { o with check_regression = true } rest
    | [ (("--qps" | "--duration" | "--trace" | "--metrics-out") as flag) ] ->
        Printf.eprintf "error: %s expects an argument\n" flag;
        usage ()
    | arg :: _ ->
        Printf.eprintf "error: unknown argument %S\n" arg;
        usage ()
  in
  let o =
    parse
      { trace_out = None; metrics_out = None; profile = false; check_regression = false;
        serve_mode = false; qps = 50.0; duration = 10.0 }
      (List.tl (Array.to_list Sys.argv))
  in
  if o.check_regression && not o.serve_mode then begin
    (* the experiments have no floor to check: refuse rather than pretend
       a gate ran *)
    prerr_endline "error: --check-regression applies to serve only (nothing would be checked)";
    usage ()
  end;
  Obs.init_logging ();
  Obs.init ?metrics_out:o.metrics_out ?trace_out:o.trace_out ~profile:o.profile ();
  if o.serve_mode then begin
    let result = run_serve_bench ~qps:o.qps ~duration:o.duration in
    let failures = if o.check_regression then serve_floor_failures ~qps:o.qps result else [] in
    Obs.print_report ();
    if failures <> [] then begin
      prerr_endline "REGRESSION CHECK FAILED:";
      List.iter (fun f -> Printf.eprintf "  - %s\n" f) failures;
      exit 1
    end
  end
  else begin
    run_experiments ();
    Obs.print_report ()
  end
