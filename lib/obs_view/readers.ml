(** The readers behind [liger stats], [liger top] and [liger report]: they
    summarize, validate, diff and render the telemetry files that
    {!Liger_obs} writes (metrics snapshots, JSONL run ledgers, postmortem
    dumps, Chrome traces).  Every metrics section is read through
    {!Metrics.of_json}, the one parser of the snapshot format. *)

open Liger_obs

let is_trace json = Json.member "traceEvents" json <> None
let is_postmortem json = Json.member "postmortem" json = Some (Json.Bool true)

(* a ledger line or file that is not a snapshot reads as an empty one *)
let snapshot_or_empty json = Result.value ~default:[] (Metrics.of_json json)

(* Profile cross-check: every profile.op_count{op=X} needs a matching
   profile.op_flops{op=X}, every profile.layer_calls{layer=X} needs
   forward and backward seconds.  A snapshot that fails this was not
   produced by Profile.publish.  Returns the op and layer label sets and
   the first missing metric. *)
let profile_check (snap : Metrics.snapshot) =
  let counted name =
    List.filter_map
      (fun (e : Metrics.entry) ->
        match e.Metrics.e_value with
        | Metrics.C _ when e.Metrics.e_name = name && e.Metrics.e_labels <> [] ->
            Some e.Metrics.e_labels
        | _ -> None)
      snap
  in
  let ops = counted "profile.op_count" and layers = counted "profile.layer_calls" in
  let needed =
    List.map (fun l -> ("profile.op_flops", l)) ops
    @ List.concat_map
        (fun l -> [ ("profile.layer_forward_seconds", l); ("profile.layer_backward_seconds", l) ])
        layers
  in
  let missing =
    List.filter_map
      (fun (name, labels) ->
        match Metrics.find ~labels snap name with
        | Some (Metrics.F _) -> None
        | _ -> Some (Metrics.render_key name labels))
      needed
  in
  (ops, layers, missing)

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
    match Metrics.of_json json with
    | Error _ -> Ok "well-formed JSON (unrecognized schema)"
    | Ok snap -> (
        match profile_check snap with
        | _, _, m :: _ -> Error (Printf.sprintf "profile section incomplete: missing %s" m)
        | ops, layers, [] ->
            let profile =
              if ops = [] && layers = [] then ""
              else
                Printf.sprintf ", profile section (%d ops, %d layers)" (List.length ops)
                  (List.length layers)
            in
            let count section = List.length (Metrics.section_entries snap section) in
            Ok
              (Printf.sprintf "metrics snapshot with %s%s"
                 (String.concat ", "
                    (List.map (fun s -> Printf.sprintf "%d %s" (count s) s) Metrics.sections))
                 profile))

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
          (fun l -> Json.member "ts" l <> None && Result.is_ok (Metrics.of_json l))
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
      match Metrics.of_json json with
      | Ok snap -> Ok (Openmetrics.render snap)
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let buf_metric_sections buf (snap : Metrics.snapshot) =
  let scalar f = if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f in
  let render = function
    | Metrics.C n -> scalar (float_of_int n)
    | Metrics.F x | Metrics.G x -> scalar x
    | Metrics.H h ->
        Printf.sprintf "count=%.0f sum=%g" (float_of_int h.Metrics.count) h.Metrics.sum
  in
  List.iter
    (fun section ->
      match Metrics.section_entries snap section with
      | [] -> ()
      | entries ->
          Buffer.add_string buf (section ^ ":\n");
          List.iter
            (fun (e : Metrics.entry) ->
              Buffer.add_string buf
                (Printf.sprintf "  %-48s %s\n"
                   (Metrics.render_key e.Metrics.e_name e.Metrics.e_labels)
                   (render e.Metrics.e_value)))
            entries)
    Metrics.sections

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
          buf_metric_sections buf (snapshot_or_empty m)
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
        Obs.buf_table buf
          ([ "span"; "count"; "total s" ]
          :: List.map
               (fun (name, c, t) -> [ name; string_of_int c; Printf.sprintf "%.3f" t ])
               rows)
      end
      else begin
        (if Json.member "ts" json <> None then
           Buffer.add_string buf (Printf.sprintf "%s: run ledger (last snapshot)\n" path)
         else Buffer.add_string buf (Printf.sprintf "%s: metrics snapshot\n" path));
        buf_metric_sections buf (snapshot_or_empty json)
      end;
      Ok (Buffer.contents buf)

(* ---------------- flat views + diffing ([liger stats --diff]) ---------------- *)

(** A metrics snapshot as one flat name→number map, the common currency
    of {!diff}.  Histograms contribute [name.sum] and [name.count]. *)
let flatten_json (json : Json.t) : ((string * float) list, string) result =
  if is_trace json then Error "trace files cannot be diffed (no scalar metrics)"
  else
    match Metrics.of_json json with
    | Error _ -> Error "not a metrics snapshot"
    | Ok snap ->
        Ok
          (List.concat_map
             (fun (e : Metrics.entry) ->
               let key = Metrics.render_key e.Metrics.e_name e.Metrics.e_labels in
               match e.Metrics.e_value with
               | Metrics.C n -> [ (key, float_of_int n) ]
               | Metrics.F x | Metrics.G x -> [ (key, x) ]
               | Metrics.H h ->
                   [ (key ^ ".sum", h.Metrics.sum); (key ^ ".count", float_of_int h.Metrics.count) ])
             snap
          |> List.sort compare)

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

(** The most recently updated run ledger under {!Obs.runs_root} (what
    [liger top] tails when no run is named). *)
let latest_run_ledger () =
  match Sys.readdir (Obs.runs_root ()) with
  | exception Sys_error _ -> None
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             let ledger =
               Filename.concat (Filename.concat (Obs.runs_root ()) name) "metrics.jsonl"
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
  match Metrics.of_json cur with
  | Error _ as e -> e
  | Ok snap ->
      let prev_snap =
        Option.bind prev (fun p -> Result.to_option (Metrics.of_json p))
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
    (Obs.runs_root ())

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
      render_top ?prev
        ~health:(Health.evaluate (List.map snapshot_or_empty lines))
        ~source:path cur

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
    an explicit path, a run id under {!Obs.runs_root}, or — when absent — the
    directory of the most recently updated ledger. *)
let resolve_run_dir arg : (string, string) result =
  match arg with
  | Some arg ->
      if Sys.file_exists arg && Sys.is_directory arg then Ok arg
      else
        let candidate = Filename.concat (Obs.runs_root ()) arg in
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
            (Printf.sprintf "no run ledger found under %s/\n%s" (Obs.runs_root ())
               (no_ledger_hint ())))

(** Load everything [liger report] renders for one run directory: the
    ledger, the final metrics snapshot, the probe table, and a postmortem
    if the run crashed. *)
let load_report_run dir : (Report_html.run, string) result =
  let ledger = Filename.concat dir "metrics.jsonl" in
  let lines =
    match jsonl_lines ledger with Ok ls -> List.map snapshot_or_empty ls | Error _ -> []
  in
  let final =
    match Json.parse_file (Filename.concat dir "metrics.json") with
    | Ok j -> Some (snapshot_or_empty j)
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
