(** The observability front door: logging setup, env-var wiring for the
    {!Metrics} registry and {!Span} tracer, the human-readable end-of-run
    report, and the readers behind [liger stats].

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
module Report_html = Report_html

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

(* ---------------- readers for [liger stats] ---------------- *)

let is_trace json = Json.member "traceEvents" json <> None
let is_postmortem json = Json.member "postmortem" json = Some (Json.Bool true)

(** Structural validation of a telemetry file: well-formed JSON, and for
    traces every event must be a complete "X" event with a duration (or a
    matched "B"/"E" pair).  Returns a one-line summary. *)
let rec validate_json json =
  if is_postmortem json then begin
    let reason =
      Option.value ~default:"?" (Option.bind (Json.member "reason" json) Json.to_string)
    in
    match Option.bind (Json.member "events" json) Json.to_list with
    | None -> Error "postmortem without an events array"
    | Some events -> (
        let bad_event ev =
          let has name f = Option.bind (Json.member name ev) f <> None in
          not
            (has "seq" Json.to_float && has "ts" Json.to_float && has "kind" Json.to_string
            && has "name" Json.to_string)
        in
        if List.exists bad_event events then
          Error "postmortem event missing seq/ts/kind/name"
        else
          match Json.member "metrics" json with
          | None -> Error "postmortem without a final metrics snapshot"
          | Some m -> (
              match validate_json m with
              | Error msg -> Error ("postmortem metrics: " ^ msg)
              | Ok _ ->
                  Ok
                    (Printf.sprintf "postmortem with %d events (reason: %s)"
                       (List.length events) reason)))
  end
  else if is_trace json then begin
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | None -> Error "traceEvents is not an array"
    | Some events ->
        let begins : (string * float, int) Hashtbl.t = Hashtbl.create 16 in
        let bump key d =
          Hashtbl.replace begins key (d + Option.value ~default:0 (Hashtbl.find_opt begins key))
        in
        let check ev =
          let str name = Option.bind (Json.member name ev) Json.to_string in
          let num name = Option.bind (Json.member name ev) Json.to_float in
          match (str "ph", str "name", num "ts", num "tid") with
          | Some "X", Some _, Some _, _ ->
              if num "dur" = None then Error "X event without dur" else Ok ()
          | Some "B", Some name, Some _, Some tid ->
              bump (name, tid) 1;
              Ok ()
          | Some "E", Some name, Some _, Some tid ->
              bump (name, tid) (-1);
              Ok ()
          | Some ("M" | "I" | "C"), _, _, _ -> Ok ()
          | Some ph, _, _, _ -> Error (Printf.sprintf "unsupported event ph %S" ph)
          | None, _, _, _ -> Error "event without ph"
        in
        let rec go = function
          | [] ->
              if Hashtbl.fold (fun _ d acc -> acc || d <> 0) begins false then
                Error "unmatched B/E events"
              else Ok (Printf.sprintf "trace with %d events" (List.length events))
          | ev :: rest -> ( match check ev with Ok () -> go rest | Error _ as e -> e)
        in
        go events
  end
  else
    match Json.member "counters" json with
    | Some _ -> (
        let keys section =
          match Json.member section json with
          | Some (Json.Obj kvs) -> List.map fst kvs
          | _ -> []
        in
        let count section = List.length (keys section) in
        let counters = keys "counters" and fcounters = keys "fcounters" in
        (* profile cross-check: every profile.op_count{op=X} needs matching
           profile.op_flops{op=X}, every profile.layer_calls{layer=X} needs
           forward and backward seconds — a snapshot that fails this was not
           produced by Profile.publish *)
        let with_prefix prefix l =
          List.filter_map
            (fun k ->
              let lp = String.length prefix in
              if String.length k > lp && String.sub k 0 lp = prefix then
                Some (String.sub k lp (String.length k - lp))
              else None)
            l
        in
        let op_suffixes = with_prefix "profile.op_count" counters in
        let layer_suffixes = with_prefix "profile.layer_calls" counters in
        let missing =
          List.filter_map
            (fun sfx ->
              if List.mem ("profile.op_flops" ^ sfx) fcounters then None
              else Some ("profile.op_flops" ^ sfx))
            op_suffixes
          @ List.concat_map
              (fun sfx ->
                List.filter_map
                  (fun name ->
                    if List.mem (name ^ sfx) fcounters then None else Some (name ^ sfx))
                  [ "profile.layer_forward_seconds"; "profile.layer_backward_seconds" ])
              layer_suffixes
        in
        match missing with
        | m :: _ -> Error (Printf.sprintf "profile section incomplete: missing %s" m)
        | [] ->
            let profile =
              if op_suffixes = [] && layer_suffixes = [] then ""
              else
                Printf.sprintf ", profile section (%d ops, %d layers)"
                  (List.length op_suffixes) (List.length layer_suffixes)
            in
            Ok
              (Printf.sprintf
                 "metrics snapshot with %d counters, %d fcounters, %d gauges, %d histograms%s"
                 (count "counters") (count "fcounters") (count "gauges") (count "histograms")
                 profile))
    | None -> Ok "well-formed JSON (unrecognized schema)"

(* ---------------- run-ledger (JSONL) readers ---------------- *)

(** Parse every non-empty line of a JSONL file. *)
let jsonl_lines path : (Json.t list, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" -> go (i + 1) acc rest
        | l :: rest -> (
            match Json.parse l with
            | Ok j -> go (i + 1) (j :: acc) rest
            | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
      in
      go 1 [] (List.rev !lines)

let validate_ledger path =
  match jsonl_lines path with
  | Error msg -> Error msg
  | Ok [] -> Error "empty run ledger"
  | Ok lines ->
      if
        List.for_all
          (fun l -> Json.member "ts" l <> None && Json.member "counters" l <> None)
          lines
      then Ok (Printf.sprintf "run ledger with %d snapshots" (List.length lines))
      else Error "ledger line missing ts/counters"

let validate_file path =
  match Json.parse_file path with
  | Error msg -> (
      (* not one JSON document — maybe a JSONL run ledger *)
      match validate_ledger path with
      | Ok summary -> Ok summary
      | Error _ -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg))
  | Ok json -> (
      match validate_json json with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok summary -> Ok summary)

(** The last snapshot of [path] — a metrics JSON file, or the final line
    of a JSONL run ledger. *)
let last_snapshot_json path : (Json.t, string) result =
  match Json.parse_file path with
  | Ok json -> Ok json
  | Error msg -> (
      match jsonl_lines path with
      | Ok (_ :: _ as lines) -> Ok (List.nth lines (List.length lines - 1))
      | Ok [] -> Error (Printf.sprintf "%s: empty run ledger" path)
      | Error _ -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg))

(** [path] rendered in OpenMetrics exposition format ([liger stats
    --openmetrics]); for a run ledger the last snapshot is rendered. *)
let openmetrics_file path : (string, string) result =
  match last_snapshot_json path with
  | Error _ as e -> e
  | Ok json -> (
      let json =
        if is_postmortem json then Option.value ~default:json (Json.member "metrics" json)
        else json
      in
      match Openmetrics.render_json json with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let buf_metric_sections buf json =
  let section title kind render =
    match Json.member kind json with
    | Some (Json.Obj kvs) when kvs <> [] ->
        Buffer.add_string buf (title ^ ":\n");
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-48s %s\n" k (render v)))
          kvs
    | _ -> ()
  in
  let scalar = function
    | Json.Num f -> if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f
    | _ -> "?"
  in
  let hist = function
    | Json.Obj _ as h -> (
        match
          ( Option.bind (Json.member "count" h) Json.to_float,
            Option.bind (Json.member "sum" h) Json.to_float )
        with
        | Some c, Some s -> Printf.sprintf "count=%.0f sum=%g" c s
        | _ -> "?")
    | _ -> "?"
  in
  section "counters" "counters" scalar;
  section "fcounters" "fcounters" scalar;
  section "gauges" "gauges" scalar;
  section "histograms" "histograms" hist

(** Pretty-print a metrics snapshot, run ledger, postmortem dump, or
    trace file. *)
let summarize_file path =
  match last_snapshot_json path with
  | Error msg -> Error msg
  | Ok json when is_postmortem json ->
      let buf = Buffer.create 1024 in
      let reason =
        Option.value ~default:"?" (Option.bind (Json.member "reason" json) Json.to_string)
      in
      let events = Option.value ~default:[] (Option.bind (Json.member "events" json) Json.to_list) in
      Buffer.add_string buf
        (Printf.sprintf "%s: postmortem (%s), %d surviving events\n" path reason
           (List.length events));
      let tail = List.filteri (fun i _ -> i >= List.length events - 15) events in
      List.iter
        (fun ev ->
          let str name = Option.value ~default:"?" (Option.bind (Json.member name ev) Json.to_string) in
          let num name = Option.value ~default:0.0 (Option.bind (Json.member name ev) Json.to_float) in
          let detail = str "detail" in
          Buffer.add_string buf
            (Printf.sprintf "  #%-6.0f d%d %-5s %s%s\n" (num "seq")
               (int_of_float (num "domain")) (str "kind") (str "name")
               (if detail = "" || detail = "?" then "" else " — " ^ detail)))
        tail;
      (match Json.member "metrics" json with
      | Some m ->
          Buffer.add_string buf "final snapshot:\n";
          buf_metric_sections buf m
      | None -> ());
      Ok (Buffer.contents buf)
  | Ok json ->
      let buf = Buffer.create 1024 in
      if is_trace json then begin
        let events =
          Option.value ~default:[] (Option.bind (Json.member "traceEvents" json) Json.to_list)
        in
        let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
        List.iter
          (fun ev ->
            match
              ( Option.bind (Json.member "name" ev) Json.to_string,
                Option.bind (Json.member "dur" ev) Json.to_float )
            with
            | Some name, Some dur ->
                let count, total =
                  match Hashtbl.find_opt tbl name with
                  | Some cell -> cell
                  | None ->
                      let cell = (ref 0, ref 0.0) in
                      Hashtbl.add tbl name cell;
                      cell
                in
                incr count;
                total := !total +. dur
            | _ -> ())
          events;
        Buffer.add_string buf
          (Printf.sprintf "%s: %d span events (open in chrome://tracing or ui.perfetto.dev)\n"
             path (List.length events));
        let rows =
          Hashtbl.fold (fun name (c, t) acc -> (name, !c, !t /. 1e6) :: acc) tbl []
          |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
          |> List.filteri (fun i _ -> i < 15)
        in
        buf_table buf
          ([ "span"; "count"; "total s" ]
          :: List.map
               (fun (name, c, t) -> [ name; string_of_int c; Printf.sprintf "%.3f" t ])
               rows)
      end
      else begin
        (if Json.member "ts" json <> None then
           Buffer.add_string buf (Printf.sprintf "%s: run ledger (last snapshot)\n" path)
         else Buffer.add_string buf (Printf.sprintf "%s: metrics snapshot\n" path));
        buf_metric_sections buf json
      end;
      Ok (Buffer.contents buf)

(* ---------------- flat views + diffing ([liger stats --diff]) ---------------- *)

(** A metrics snapshot as one flat name→number map, the common currency
    of {!diff}.  Histograms contribute [name.sum] and [name.count]. *)
let flatten_json (json : Json.t) : ((string * float) list, string) result =
  if is_trace json then Error "trace files cannot be diffed (no scalar metrics)"
  else if Json.member "counters" json = None then Error "not a metrics snapshot"
  else begin
    let nums section suffixes =
      match Json.member section json with
      | Some (Json.Obj kvs) ->
          List.concat_map
            (fun (k, v) ->
              match suffixes with
              | [] -> ( match Json.to_float v with Some f -> [ (k, f) ] | None -> [])
              | sfx ->
                  List.filter_map
                    (fun s ->
                      Option.map (fun f -> (k ^ "." ^ s, f)) (Option.bind (Json.member s v) Json.to_float))
                    sfx)
            kvs
      | _ -> []
    in
    Ok
      (nums "counters" [] @ nums "fcounters" [] @ nums "gauges" []
      @ nums "histograms" [ "sum"; "count" ]
      |> List.sort compare)
  end

(** Load [path], a metrics snapshot, as a flat metric map. *)
let load_flat path : ((string * float) list, string) result =
  match Json.parse_file path with
  | Ok json -> Result.map_error (Printf.sprintf "%s: %s" path) (flatten_json json)
  | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)

type delta = {
  metric : string;
  before : float;
  after : float;
  change : float;   (* relative change; infinity when before = 0 <> after *)
  flagged : bool;   (* |change| > threshold *)
}

let relative_change ~before ~after =
  if before = after then 0.0
  else if before = 0.0 then (if after > 0.0 then infinity else neg_infinity)
  else (after -. before) /. Float.abs before

(** Compare two flat metric maps over the union of their names (sorted);
    a metric missing on one side is reported with [nan] there and always
    flagged. *)
let diff ?(threshold = 0.1) (a : (string * float) list) (b : (string * float) list) : delta list =
  let names =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun name ->
      match (List.assoc_opt name a, List.assoc_opt name b) with
      | Some before, Some after ->
          let change = relative_change ~before ~after in
          { metric = name; before; after; change; flagged = Float.abs change > threshold }
      | Some before, None ->
          { metric = name; before; after = Float.nan; change = Float.nan; flagged = true }
      | None, Some after ->
          { metric = name; before = Float.nan; after; change = Float.nan; flagged = true }
      | None, None -> assert false)
    names

let pct change =
  if Float.is_nan change then "-"
  else if Float.is_integer (change *. 100.0) && Float.abs change < 100.0 then
    Printf.sprintf "%+.0f%%" (change *. 100.0)
  else if Float.abs change = infinity then (if change > 0.0 then "+inf%" else "-inf%")
  else Printf.sprintf "%+.1f%%" (change *. 100.0)

let fmt_val x = if Float.is_nan x then "-" else Printf.sprintf "%.6g" x

(** Render a diff as an aligned text table (deterministic; goldens depend on
    it).  Flagged rows get a trailing [!]. *)
let render_diff ?threshold a b =
  let deltas = diff ?threshold a b in
  if deltas = [] then "no metrics to compare\n"
  else begin
    let rows =
      ("metric", "before", "after", "change", "")
      :: List.map
           (fun d ->
             (d.metric, fmt_val d.before, fmt_val d.after, pct d.change,
              if d.flagged then "!" else ""))
           deltas
    in
    let w f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 rows in
    let w1 = w (fun (a, _, _, _, _) -> a)
    and w2 = w (fun (_, b, _, _, _) -> b)
    and w3 = w (fun (_, _, c, _, _) -> c)
    and w4 = w (fun (_, _, _, d, _) -> d) in
    let buf = Buffer.create 256 in
    List.iter
      (fun (a, b, c, d, fl) ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %*s  %*s  %*s%s\n" w1 a w2 b w3 c w4 d
             (if fl = "" then "" else "  " ^ fl)))
      rows;
    Buffer.contents buf
  end

(** [diff_files a b] renders the threshold-flagged delta table between two
    metrics snapshots — [liger stats A B --diff]. *)
let diff_files ?threshold a b =
  match (load_flat a, load_flat b) with
  | Ok fa, Ok fb -> Ok (Printf.sprintf "diff: %s -> %s\n%s" a b (render_diff ?threshold fa fb))
  | (Error _ as e), _ | _, (Error _ as e) -> e

(* ---------------- [liger top] ---------------- *)

(** The most recently updated run ledger under {!runs_root} (what
    [liger top] tails when no run is named). *)
let latest_run_ledger () =
  match Sys.readdir (runs_root ()) with
  | exception Sys_error _ -> None
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             let ledger =
               Filename.concat (Filename.concat (runs_root ()) name) "metrics.jsonl"
             in
             match Unix.stat ledger with
             | st -> Some ((st.Unix.st_mtime, ledger), ledger)
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> function [] -> None | (_, ledger) :: _ -> Some ledger

(** Render one frame of the [liger top] live view from the latest ledger
    snapshot [cur], with per-interval deltas against [prev] and, when the
    caller evaluated the ledger, the {!Health} verdicts at the bottom. *)
let render_top ?prev ?health ~source cur : (string, string) result =
  match Openmetrics.snapshot_of_json cur with
  | Error _ as e -> e
  | Ok snap ->
      let prev_snap =
        Option.bind prev (fun p -> Result.to_option (Openmetrics.snapshot_of_json p))
      in
      let ts j = Option.bind (Json.member "ts" j) Json.to_float in
      let dt =
        match (ts cur, Option.bind prev ts) with
        | Some a, Some b when a > b -> Printf.sprintf "  (+%.1fs)" (a -. b)
        | _ -> ""
      in
      let seq =
        match Option.bind (Json.member "seq" cur) Json.to_float with
        | Some s -> Printf.sprintf "  snapshot #%.0f" s
        | None -> ""
      in
      let buf = Buffer.create 1024 in
      let line fmt =
        Printf.ksprintf
          (fun s ->
            Buffer.add_string buf s;
            Buffer.add_char buf '\n')
          fmt
      in
      line "liger top — %s%s%s" source seq dt;
      let g ?labels name = Metrics.gauge_value ?labels snap name in
      let pgauge name = Option.bind prev_snap (fun ps -> Metrics.gauge_value ps name) in
      let with_delta name cur =
        match pgauge name with
        | Some p when cur >= p -> Printf.sprintf "%.0f (+%.0f)" cur (cur -. p)
        | _ -> Printf.sprintf "%.0f" cur
      in
      (* training throughput / loss / validation, per model *)
      List.iter
        (fun (e : Metrics.entry) ->
          let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
          let labels = e.Metrics.e_labels in
          let eps = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
          line "train[%s]: %.1f ex/s, loss %s, valid %s%s" model eps
            (match g ~labels "train.loss" with Some l -> Printf.sprintf "%.4f" l | None -> "-")
            (match g ~labels "train.valid_score" with
            | Some v -> Printf.sprintf "%.3f" v
            | None -> "-")
            (match g ~labels "train.eta_seconds" with
            | Some eta when eta > 0.0 -> Printf.sprintf ", eta %.0fs" eta
            | _ -> ""))
        (Metrics.entries_with snap "train.examples_per_second");
      (* grad-norm quantiles with per-interval step delta *)
      List.iter
        (fun (e : Metrics.entry) ->
          match e.Metrics.e_value with
          | Metrics.H h when h.Metrics.count > 0 ->
              let fresh =
                match
                  Option.bind prev_snap (fun ps ->
                      Metrics.hist_view ~labels:e.Metrics.e_labels ps "train.grad_norm")
                with
                | Some ph -> h.Metrics.count - ph.Metrics.count
                | None -> h.Metrics.count
              in
              line "grad-norm: p50 %.3f  p90 %.3f  p99 %.3f  (%d steps, +%d this interval)"
                (Metrics.quantile h 0.5) (Metrics.quantile h 0.9) (Metrics.quantile h 0.99)
                h.Metrics.count fresh
          | _ -> ())
        (Metrics.entries_with snap "train.grad_norm");
      (* pool utilization *)
      let fsum name =
        List.fold_left
          (fun acc (e : Metrics.entry) ->
            match e.Metrics.e_value with Metrics.F x -> acc +. x | _ -> acc)
          0.0
          (Metrics.entries_with snap name)
      in
      let busy_lanes = List.length (Metrics.entries_with snap "parallel.busy_seconds") in
      let wall = Metrics.fcounter_value snap "parallel.wall_seconds" in
      (if busy_lanes > 0 && wall > 0.0 then
         line "pool: %.1f%% utilization (%d lanes, %d tasks in %d batches)"
           (100.0 *. fsum "parallel.busy_seconds" /. (wall *. float_of_int busy_lanes))
           busy_lanes
           (Metrics.counter_value snap "parallel.tasks")
           (Metrics.counter_value snap "parallel.batches"));
      (* GC pressure *)
      (match g "gc.minor_collections" with
      | Some minor ->
          line "gc: minor %s, major %s, heap %.1f MB (top %.1f MB)"
            (with_delta "gc.minor_collections" minor)
            (match g "gc.major_collections" with
            | Some x -> with_delta "gc.major_collections" x
            | None -> "-")
            (Option.value ~default:0.0 (g "gc.heap_words") *. 8.0 /. 1e6)
            (Option.value ~default:0.0 (g "gc.top_heap_words") *. 8.0 /. 1e6)
      | None -> ());
      (* bufpool occupancy (gauges are per-domain; sum the lanes) *)
      let gsum name =
        List.fold_left
          (fun acc (e : Metrics.entry) ->
            match e.Metrics.e_value with Metrics.G x -> acc +. x | _ -> acc)
          0.0
          (Metrics.entries_with snap name)
      in
      let hits = gsum "bufpool.hits" and misses = gsum "bufpool.misses" in
      (if hits +. misses > 0.0 then
         line "bufpool: %.0f leased (hw %.0f), %.0f pooled (%.1f MB), %.1f%% hit rate"
           (gsum "bufpool.leased") (gsum "bufpool.hw_leased") (gsum "bufpool.pooled_buffers")
           (gsum "bufpool.pooled_elements" *. 8.0 /. 1e6)
           (100.0 *. hits /. (hits +. misses)));
      (match g "train.tape_nodes" with
      | Some n -> line "tape: %.0f nodes on the last batched tape" n
      | None -> ());
      (* serving endpoints (when a liger serve process is exporting):
         request counts, latency quantiles and per-interval QPS *)
      List.iter
        (fun (e : Metrics.entry) ->
          match e.Metrics.e_value with
          | Metrics.H h when h.Metrics.count > 0 ->
              let endpoint =
                match List.assoc_opt "endpoint" e.Metrics.e_labels with
                | Some ep -> ep
                | None -> "?"
              in
              let qps =
                match
                  ( Option.bind prev_snap (fun ps ->
                        Metrics.hist_view ~labels:e.Metrics.e_labels ps
                          "serve.latency_seconds"),
                    ts cur,
                    Option.bind prev ts )
                with
                | Some ph, Some t1, Some t0 when t1 > t0 ->
                    Printf.sprintf ", %.1f qps"
                      (float_of_int (h.Metrics.count - ph.Metrics.count) /. (t1 -. t0))
                | _ -> ""
              in
              line "serve[%s]: %d reqs, p50 %.1f ms, p99 %.1f ms%s" endpoint
                h.Metrics.count
                (1000.0 *. Metrics.quantile h 0.5)
                (1000.0 *. Metrics.quantile h 0.99)
                qps
          | _ -> ())
        (Metrics.entries_with snap "serve.latency_seconds");
      (match g "serve.cache_entries" with
      | Some entries ->
          let c name = Metrics.counter_value snap name in
          line "serve cache: %.0f entries, %d hits / %d misses, %d evicted" entries
            (c "serve.cache_hits") (c "serve.cache_misses") (c "serve.cache_evictions")
      | None -> ());
      (* embedding drift (when the dynamics streams are recording) *)
      List.iter
        (fun (e : Metrics.entry) ->
          let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
          let drift = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
          line "drift[%s]: %.4f cosine/epoch%s" model drift
            (match g ~labels:e.Metrics.e_labels "dynamics.nn_churn" with
            | Some c -> Printf.sprintf ", nn-churn %.2f" c
            | None -> ""))
        (Metrics.entries_with snap "dynamics.embed_drift");
      (* health verdicts over the whole ledger *)
      (match health with
      | None -> ()
      | Some [] -> line "health: all rules passed"
      | Some findings ->
          List.iter (fun f -> line "%s" (Health.render_finding f)) findings);
      Ok (Buffer.contents buf)

(** How to get a ledger when autodiscovery comes up empty — shared by
    [liger top] and [liger report]. *)
let no_ledger_hint () =
  Printf.sprintf
    "expected layout: %s/<run-id>/metrics.jsonl (one JSON snapshot per line)\n\
     start an instrumented run with --metrics-every SECONDS (or \
     LIGER_METRICS_EVERY=SECONDS), e.g.\n\
    \  liger train -n 60 --epochs 8 --batch 16 --metrics-every 1 --dynamics"
    (runs_root ())

let empty_ledger_hint path =
  Printf.sprintf
    "%s exists but holds no snapshots yet: the emitter appends the first line one \
     interval after startup and a final line when the run exits.  Use a smaller \
     --metrics-every, or wait for the run to finish."
    path

(** One [liger top] frame for the ledger at [path]. *)
let top_frame path : (string, string) result =
  match jsonl_lines path with
  | Error msg -> Error (Printf.sprintf "%s: %s\n%s" path msg (no_ledger_hint ()))
  | Ok [] -> Error (Printf.sprintf "%s: empty run ledger\n%s" path (empty_ledger_hint path))
  | Ok lines ->
      let n = List.length lines in
      let cur = List.nth lines (n - 1) in
      let prev = if n >= 2 then Some (List.nth lines (n - 2)) else None in
      render_top ?prev ~health:(Health.evaluate lines) ~source:path cur

(* ---------------- [liger report] ---------------- *)

let read_file_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception End_of_file -> None)

(** Resolve a [liger report]/[liger top] run argument to a run directory:
    an explicit path, a run id under {!runs_root}, or — when absent — the
    directory of the most recently updated ledger. *)
let resolve_run_dir arg : (string, string) result =
  match arg with
  | Some arg ->
      if Sys.file_exists arg && Sys.is_directory arg then Ok arg
      else
        let candidate = Filename.concat (runs_root ()) arg in
        if Sys.file_exists candidate && Sys.is_directory candidate then Ok candidate
        else
          Error
            (Printf.sprintf "no run directory %s (nor %s)\n%s" arg candidate
               (no_ledger_hint ()))
  | None -> (
      match latest_run_ledger () with
      | Some ledger -> Ok (Filename.dirname ledger)
      | None ->
          Error
            (Printf.sprintf "no run ledger found under %s/\n%s" (runs_root ())
               (no_ledger_hint ())))

(** Load everything [liger report] renders for one run directory: the
    ledger, the final metrics snapshot, the probe table, and a postmortem
    if the run crashed. *)
let load_report_run dir : (Report_html.run, string) result =
  let ledger = Filename.concat dir "metrics.jsonl" in
  let lines = match jsonl_lines ledger with Ok ls -> ls | Error _ -> [] in
  let final =
    match Json.parse_file (Filename.concat dir "metrics.json") with
    | Ok j -> Some j
    | Error _ -> None
  in
  if lines = [] && final = None then
    Error
      (if Sys.file_exists ledger then
         Printf.sprintf "%s: empty run ledger\n%s" ledger (empty_ledger_hint ledger)
       else
         Printf.sprintf "%s has neither metrics.jsonl nor metrics.json\n%s" dir
           (no_ledger_hint ()))
  else
    let postmortem =
      match Json.parse_file (Filename.concat dir "postmortem.json") with
      | Ok j when is_postmortem j -> Some j
      | _ -> None
    in
    Ok
      {
        Report_html.label = Filename.basename dir;
        lines;
        final;
        probe = read_file_opt (Filename.concat dir "probe_accuracy.txt");
        postmortem;
      }
