(** The observability front door: logging setup, the wiring of the
    {!Metrics} registry and {!Span} tracer to their outputs, crash dumps,
    and the human-readable end-of-run report.  The readers of the files
    these write ([liger stats], [top], [report]) are not here: they live
    in the [liger.obs_view] library, which only the CLI and the tests
    link, so instrumented code carries none of them.

    Conventions used across the pipeline (all optional — a metric that was
    never recorded simply doesn't appear in the snapshot):

    - [parallel.*] — pool telemetry (tasks, batches, wall and per-domain
      busy seconds), recorded by {!Liger_parallel.Parallel}.
    - [filter.kept] / [filter.dropped{reason=...}] — Table-1 verdicts.
    - [testgen.*] — Randoop-analogue attempts/crashes/timeouts.
    - [encode.*], [pipeline.*], [coset.*] — corpus construction.
    - [train.*] — per-epoch training telemetry (loss, valid score,
      grad-norm histogram, skipped steps, epoch seconds).
    - [experiments.cache_hits/misses] — sweep cache effectiveness. *)

module Config = Config
module Json = Json
module Metrics = Metrics
module Span = Span
module Profile = Profile
module Recorder = Recorder
module Timeseries = Timeseries
module Openmetrics = Openmetrics
module Dynamics = Dynamics
module Health = Health

(* ---------------- logging ---------------- *)

let reporter ppf =
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags fmt ->
    ignore header;
    ignore tags;
    let t = Unix.gettimeofday () in
    let tm = Unix.localtime t in
    let ms = int_of_float (Float.rem t 1.0 *. 1000.0) in
    Format.kfprintf k ppf
      ("[%02d:%02d:%02d.%03d] [%a] [%s] @[" ^^ fmt ^^ "@]@.")
      tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec ms Logs.pp_level level
      (Logs.Src.name src)
  in
  { Logs.report }

(** Install a [Logs] reporter (timestamps + level + source prefix) writing
    to [out] (stderr by default), at [level] (default: the configured
    [LIGER_LOG], see {!Config}; [None] silences logging).  Without this
    call the [Logs.info]/[Logs.warn] sprinkled through the pipeline go
    nowhere. *)
let init_logging ?(out = Format.err_formatter) ?level () =
  let level = match level with Some l -> l | None -> (Config.get ()).Config.log in
  Logs.set_level ~all:true level;
  Logs.set_reporter (reporter out)

(* ---------------- the run directory ---------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** This process's run id: [LIGER_RUN_ID] when set (pin it for
    deterministic CI paths), otherwise timestamp + pid. *)
let run_id =
  lazy
    (match (Config.get ()).Config.run_id with
    | Some id -> id
    | None ->
        let t = Unix.gettimeofday () in
        let tm = Unix.localtime t in
        Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
          (Unix.getpid ()))

(** Root under which run directories are created: [LIGER_RUNS_DIR],
    default ["runs"]. *)
let runs_root () = (Config.get ()).Config.runs_dir

(** The per-run telemetry directory [runs/<run-id>/], created on first
    use.  Default telemetry outputs land here instead of strewing the
    repository root; a run that configures no telemetry never creates
    it. *)
let run_dir () =
  let dir = Filename.concat (runs_root ()) (Lazy.force run_id) in
  mkdir_p dir;
  dir

let in_run_dir name = Filename.concat (run_dir ()) name

(* ---------------- failpoints (crash injection) ---------------- *)

exception Injected_failure of string

(* [LIGER_FAILPOINT=site[:n]] arms one failpoint: the [n]-th time
   execution passes [failpoint site] (default: the first), it raises
   {!Injected_failure} — CI uses this to prove a mid-train crash leaves
   a postmortem artifact. *)
let failpoint_spec : (string * int) option ref = ref None
let failpoint_armed = ref false
let failpoint_hits : (string, int ref) Hashtbl.t = Hashtbl.create 4

(** Arm ([Some (site, n)]) or disarm ([None]) the failpoint, overriding
    the environment (tests). *)
let set_failpoint spec =
  failpoint_armed := true;
  Hashtbl.reset failpoint_hits;
  failpoint_spec := spec

let failpoint site =
  if not !failpoint_armed then begin
    failpoint_armed := true;
    failpoint_spec := (Config.get ()).Config.failpoint
  end;
  match !failpoint_spec with
  | Some (s, n) when s = site ->
      let hits =
        match Hashtbl.find_opt failpoint_hits site with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add failpoint_hits site r;
            r
      in
      incr hits;
      if !hits = n then begin
        Logs.err (fun m -> m "failpoint %s fired (hit %d)" site n);
        raise (Injected_failure site)
      end
  | _ -> ()

(* ---------------- enabling + exit dumps ---------------- *)

let metrics_path = ref None
let trace_path = ref None
let exit_hook = ref false
let trace_drops_published = ref false

(** Write whatever outputs were configured (also runs automatically on
    exit).  When profiling is on, the profiler's per-op/per-layer totals are
    published into the registry first so they land in the snapshot; the
    run-ledger emitter is stopped with one final enriched snapshot, and
    any span events lost to the trace cap are published as
    [obs.trace_events_dropped]. *)
let flush () =
  if Profile.enabled () then Profile.publish ();
  (let d = Span.dropped_events () in
   if d > 0 && not !trace_drops_published then begin
     trace_drops_published := true;
     Metrics.add "obs.trace_events_dropped" d
   end);
  Timeseries.enrich ();
  Timeseries.stop ();
  (match !metrics_path with Some p -> Metrics.write p | None -> ());
  match !trace_path with Some p -> Span.write p | None -> ()

(* ---------------- postmortem dumps ---------------- *)

let postmortem_path = ref None
let crash_dumped = ref false

(** Dump the flight recorder (last-N events plus a final metrics
    snapshot) to the run directory — called on uncaught exceptions,
    fatal signals, and training aborts.  Idempotent per process (the
    first reason wins); a no-op when the recorder is off. *)
let crash_dump ~reason () =
  if Recorder.enabled () && not !crash_dumped then begin
    crash_dumped := true;
    try
      if Profile.enabled () then Profile.publish ();
      Timeseries.enrich ();
      let path =
        match !postmortem_path with Some p -> p | None -> in_run_dir "postmortem.json"
      in
      Recorder.write ~run_id:(Lazy.force run_id) ~reason path;
      Printf.eprintf "liger: flight recorder dumped to %s (%s)\n%!" path reason
    with e -> Printf.eprintf "liger: postmortem dump failed: %s\n%!" (Printexc.to_string e)
  end

let handlers_installed = ref false

(* An uncaught exception or fatal signal dumps the recorder before the
   default handling proceeds; [at_exit] still runs on uncaught
   exceptions, so the configured metrics/trace files are written too. *)
let install_crash_handlers () =
  if not !handlers_installed then begin
    handlers_installed := true;
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        crash_dump ~reason:("uncaught exception: " ^ Printexc.to_string exn) ();
        Printexc.default_uncaught_exception_handler exn bt);
    List.iter
      (fun (signal, code, name) ->
        try
          Sys.set_signal signal
            (Sys.Signal_handle
               (fun _ ->
                 crash_dump ~reason:("fatal signal " ^ name) ();
                 exit code))
        with Invalid_argument _ | Sys_error _ -> ())
      [ (Sys.sigterm, 143, "SIGTERM"); (Sys.sigint, 130, "SIGINT") ]
  end

(** Resolve the telemetry outputs — explicit arguments (CLI flags) win over
    the environment ({!Config}) — enable the corresponding subsystems, and
    arrange for the files to be written on exit.  Call it once per process.

    - [metrics_out] and [trace_out] name explicit output files;
      [LIGER_METRICS=1] / [LIGER_TRACE=1] enable the same subsystems with
      default paths under {!run_dir} ([metrics.json], [trace.json]).
    - [profile] turns on the model profiler, which implies the metrics
      registry (that is where its totals are published); without an
      explicit metrics path the snapshot lands in the run directory.
    - [metrics_every] (or [LIGER_METRICS_EVERY], seconds) starts the
      {!Timeseries} run-ledger emitter appending to
      [runs/<run-id>/metrics.jsonl].
    - [dynamics] turns on the {!Dynamics} training-dynamics streams
      (per-layer gradient flow, saturation, attention entropy, embedding
      drift), which imply the metrics registry.
    - The {!Recorder} flight ring turns on whenever any of the above is
      configured.  With the recorder on, crash handlers arrange a
      postmortem dump into the run directory.

    With nothing configured this is a no-op and the whole telemetry layer
    stays disabled. *)
let init ?metrics_out ?trace_out ?metrics_every ?(profile = false) ?(dynamics = false) () =
  let cfg = Config.get () in
  (if dynamics then begin
     Dynamics.enable ();
     Metrics.enable ();
     if !metrics_path = None then metrics_path := Some (in_run_dir "metrics.json")
   end);
  (match metrics_out with
  | Some p ->
      metrics_path := Some p;
      Metrics.enable ()
  | None -> ());
  (match trace_out with
  | Some p ->
      trace_path := Some p;
      Span.enable ()
  | None -> ());
  (if cfg.Config.metrics then begin
     Metrics.enable ();
     if !metrics_path = None then metrics_path := Some (in_run_dir "metrics.json")
   end);
  (if cfg.Config.trace then begin
     Span.enable ();
     if !trace_path = None then trace_path := Some (in_run_dir "trace.json")
   end);
  (if profile then begin
     Profile.enable ();
     Metrics.enable ();
     if !metrics_path = None then metrics_path := Some (in_run_dir "metrics.json")
   end);
  (match if metrics_every = None then cfg.Config.metrics_every else metrics_every with
  | Some e when e > 0.0 ->
      Metrics.enable ();
      if !metrics_path = None then metrics_path := Some (in_run_dir "metrics.json");
      Timeseries.start ~every:e ~path:(in_run_dir "metrics.jsonl")
  | _ -> ());
  if !metrics_path <> None || !trace_path <> None || Metrics.enabled () || Span.enabled ()
     || Profile.enabled ()
  then Recorder.enable ();
  if Recorder.enabled () then install_crash_handlers ();
  if (!metrics_path <> None || !trace_path <> None) && not !exit_hook then begin
    exit_hook := true;
    at_exit flush
  end

let enabled () = Metrics.enabled () || Span.enabled () || Profile.enabled ()

(* ---------------- the end-of-run report ---------------- *)

let buf_table buf rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w cell -> max w (String.length cell)) ws row)
      (List.map String.length (List.hd rows))
      rows
  in
  List.iter
    (fun row ->
      Buffer.add_string buf "  ";
      List.iteri
        (fun i cell ->
          let w = List.nth widths i in
          Buffer.add_string buf (if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "  %*s" w cell))
        row;
      Buffer.add_char buf '\n')
    rows

(** The human-readable end-of-run report: top spans by self time, pool
    utilization, and the Table-1 drop-reason tally — each section only when
    its data was recorded. *)
let report () =
  let buf = Buffer.create 1024 in
  let snap = Metrics.snapshot () in
  Buffer.add_string buf "== observability report ==\n";
  (let d = Span.dropped_events () in
   if d > 0 then
     Buffer.add_string buf
       (Printf.sprintf
          "WARNING: %d span events dropped at the trace buffer cap (%d per domain; see Span.default_capacity)\n"
          d (Span.capacity ())));
  (* top spans by self time *)
  (match Span.aggregate () with
  | [] -> ()
  | aggs ->
      Buffer.add_string buf "top spans by self time:\n";
      let top = List.filteri (fun i _ -> i < 12) aggs in
      buf_table buf
        ([ "span"; "count"; "total s"; "self s" ]
        :: List.map
             (fun (a : Span.agg) ->
               [ a.Span.agg_name; string_of_int a.Span.agg_count;
                 Printf.sprintf "%.3f" a.Span.total_s; Printf.sprintf "%.3f" a.Span.self_s ])
             top));
  (* pool utilization *)
  let busy = Metrics.entries_with snap "parallel.busy_seconds" in
  let wall = Metrics.fcounter_value snap "parallel.wall_seconds" in
  (if busy <> [] && wall > 0.0 then begin
     let lanes = List.length busy in
     let total_busy =
       List.fold_left
         (fun acc (e : Metrics.entry) ->
           match e.Metrics.e_value with Metrics.F x -> acc +. x | _ -> acc)
         0.0 busy
     in
     Buffer.add_string buf
       (Printf.sprintf "pool utilization: %.1f%% (%.2fs busy / %.2fs wall x %d lanes; %d tasks in %d batches)\n"
          (100.0 *. total_busy /. (wall *. float_of_int lanes))
          total_busy wall lanes
          (Metrics.counter_value snap "parallel.tasks")
          (Metrics.counter_value snap "parallel.batches"))
   end);
  (* drop reasons *)
  let dropped = Metrics.entries_with snap "filter.dropped" in
  (if dropped <> [] then begin
     Buffer.add_string buf "filter verdicts:\n";
     let rows =
       [ "kept"; string_of_int (Metrics.counter_value snap "filter.kept") ]
       :: List.map
            (fun (e : Metrics.entry) ->
              let reason =
                match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "(unlabeled)"
              in
              let n = match e.Metrics.e_value with Metrics.C n -> n | _ -> 0 in
              [ "dropped: " ^ reason; string_of_int n ])
            dropped
     in
     buf_table buf ([ "verdict"; "methods" ] :: rows)
   end);
  (* training *)
  (match Metrics.hist_view snap "train.grad_norm" with
  | Some h when h.Metrics.count > 0 ->
      Buffer.add_string buf
        (Printf.sprintf "training: %d steps (%d skipped), grad-norm p50 %.3f p95 %.3f\n"
           h.Metrics.count
           (Metrics.counter_value snap "train.skipped_steps")
           (Metrics.quantile h 0.5) (Metrics.quantile h 0.95))
  | _ -> ());
  (* training-dynamics health verdicts (point-in-time rules) *)
  (if Dynamics.on () then
     match Health.check_snapshot snap with
     | [] -> Buffer.add_string buf "health: all rules passed\n"
     | findings ->
         List.iter
           (fun f -> Buffer.add_string buf (Health.render_finding f ^ "\n"))
           findings);
  let hits = Metrics.counter_value snap "experiments.cache_hits" in
  let misses = Metrics.counter_value snap "experiments.cache_misses" in
  if hits + misses > 0 then
    Buffer.add_string buf
      (Printf.sprintf "experiment cache: %d hits / %d misses\n" hits misses);
  (* training throughput (recorded per-model by Train.fit when metrics are on) *)
  List.iter
    (fun (e : Metrics.entry) ->
      let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
      let eps = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
      let labels = e.Metrics.e_labels in
      let sps =
        Option.value ~default:0.0
          (Metrics.gauge_value ~labels snap "train.subtokens_per_second")
      in
      Buffer.add_string buf
        (Printf.sprintf "throughput[%s]: %.1f examples/s, %.1f sub-tokens/s%s\n" model eps sps
           (match Metrics.gauge_value ~labels snap "train.eta_seconds" with
           | Some eta when eta > 0.0 -> Printf.sprintf " (eta %.1fs)" eta
           | _ -> "")))
    (Metrics.entries_with snap "train.examples_per_second");
  (* model profile *)
  (if Profile.enabled () then begin
     let p = Profile.snapshot () in
     (if p.Profile.layers <> [] then begin
        let step_total =
          List.fold_left
            (fun acc (l : Profile.layer_stat) -> acc +. l.Profile.fwd_self_s +. l.Profile.bwd_s)
            p.Profile.untagged_bwd_s p.Profile.layers
        in
        let pct x = if step_total > 0.0 then 100.0 *. x /. step_total else 0.0 in
        Buffer.add_string buf "profile: per-layer time (self = children excluded):\n";
        let rows =
          List.map
            (fun (l : Profile.layer_stat) ->
              [ l.Profile.layer_name;
                string_of_int l.Profile.calls;
                Printf.sprintf "%.3f" l.Profile.fwd_total_s;
                Printf.sprintf "%.3f" l.Profile.fwd_self_s;
                Printf.sprintf "%.3f" l.Profile.bwd_s;
                Printf.sprintf "%.1f%%" (pct (l.Profile.fwd_self_s +. l.Profile.bwd_s)) ])
            p.Profile.layers
          @
          if p.Profile.untagged_bwd_s > 0.0 then
            [ [ "(untagged)"; "-"; "-"; "-";
                Printf.sprintf "%.3f" p.Profile.untagged_bwd_s;
                Printf.sprintf "%.1f%%" (pct p.Profile.untagged_bwd_s) ] ]
          else []
        in
        buf_table buf ([ "layer"; "calls"; "fwd s"; "fwd self s"; "bwd s"; "% step" ] :: rows)
      end);
     (if p.Profile.ops <> [] then begin
        Buffer.add_string buf "profile: top ops by FLOPs:\n";
        let by_flops =
          List.sort
            (fun (a : Profile.op_stat) b -> compare (b.Profile.flops, a.Profile.op_name) (a.Profile.flops, b.Profile.op_name))
            p.Profile.ops
          |> List.filteri (fun i _ -> i < 16)
        in
        buf_table buf
          ([ "op"; "count"; "Mflop"; "MB"; "s" ]
          :: List.map
               (fun (o : Profile.op_stat) ->
                 [ o.Profile.op_name;
                   string_of_int o.Profile.count;
                   Printf.sprintf "%.2f" (o.Profile.flops /. 1e6);
                   Printf.sprintf "%.2f" (o.Profile.bytes /. 1e6);
                   (if o.Profile.seconds > 0.0 then Printf.sprintf "%.3f" o.Profile.seconds
                    else "-") ])
               by_flops);
        Buffer.add_string buf
          (Printf.sprintf "profile: %.2f Mflop total; tensor memory peak %.2f MB, live %.2f MB\n"
             (Profile.total_flops p /. 1e6)
             (float_of_int p.Profile.snap_peak_bytes /. 1e6)
             (float_of_int p.Profile.snap_live_bytes /. 1e6))
      end)
   end);
  Buffer.contents buf

let print_report () = if enabled () then prerr_string (report ())
