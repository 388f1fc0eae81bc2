(** OpenMetrics / Prometheus text exposition for {!Metrics} snapshots.

    [render] turns a snapshot (a live one, or one that {!Metrics.of_json}
    read back from a metrics file or a run-ledger line) into the exposition
    format: [# HELP] / [# TYPE] lines per metric family, one sample per
    label set, histograms as cumulative [_bucket{le=...}] series plus
    [_sum] / [_count].  Output is deterministic (the snapshot is already
    sorted by name, then labels), so rendering is golden-testable and a
    scrape diff is a real diff.

    [liger serve]'s [/metrics] endpoint returns
    [Openmetrics.render (Metrics.snapshot ())].  The structural linter that
    checks an exposition ([liger stats --openmetrics --validate], [liger
    fetch --lint-openmetrics]) is a reader, so it lives with the other
    readers in [Liger_obs_view.Openmetrics_lint]. *)

(* ---------------- naming ---------------- *)

(** Map a registry name like ["train.grad_norm"] onto the OpenMetrics
    charset: [[a-zA-Z0-9_:]], dots and other separators become ['_']. *)
let sanitize_name name =
  let b = Bytes.create (String.length name) in
  String.iteri
    (fun i c ->
      Bytes.set b i
        (match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_'))
    name;
  let s = Bytes.to_string b in
  if s = "" then "_" else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label_value v)) labels)
      ^ "}"

(* help text for the well-known families; anything unlisted gets a
   generic line so the exposition is still self-describing *)
let help_table =
  [
    ("parallel.tasks", "Tasks executed by the domain pool");
    ("parallel.batches", "Task batches submitted to the domain pool");
    ("parallel.wall_seconds", "Wall-clock seconds spent inside pool batches");
    ("parallel.busy_seconds", "Per-domain busy seconds inside pool batches");
    ("parallel.jobs", "Size of the domain pool");
    ("train.loss", "Mean training loss of the last epoch");
    ("train.valid_score", "Validation score of the last epoch");
    ("train.grad_norm", "Per-step global gradient norm");
    ("train.skipped_steps", "Optimizer steps skipped on non-finite gradients");
    ("train.examples_per_second", "Training throughput in examples per second");
    ("train.subtokens_per_second", "Training throughput in target sub-tokens per second");
    ("train.eta_seconds", "Estimated seconds until training completes");
    ("train.epoch_seconds", "Duration of the last epoch");
    ("train.tape_nodes", "Nodes on the last batched autodiff tape");
    ("gc.minor_collections", "OCaml GC minor collections");
    ("gc.major_collections", "OCaml GC major collection cycles");
    ("gc.compactions", "OCaml GC heap compactions");
    ("gc.minor_words", "Words allocated in the OCaml minor heap");
    ("gc.promoted_words", "Words promoted from the minor to the major heap");
    ("gc.major_words", "Words allocated in the OCaml major heap");
    ("gc.heap_words", "Current OCaml major heap size in words");
    ("gc.top_heap_words", "Largest OCaml major heap size in words");
    ("bufpool.leased", "Buffers currently leased from the bufpool, per domain");
    ("bufpool.hw_leased", "High-water mark of concurrently leased buffers, per domain");
    ("bufpool.pooled_buffers", "Buffers parked in bufpool freelists, per domain");
    ("bufpool.pooled_elements", "Float elements parked in bufpool freelists, per domain");
    ("bufpool.hits", "Bufpool leases served from a freelist, per domain");
    ("bufpool.misses", "Bufpool leases that had to allocate, per domain");
    ("bufpool.returns", "Buffers returned to the bufpool, per domain");
    ("obs.trace_events_dropped", "Span events dropped at the trace buffer cap");
    ("fuzz.runs", "Differential fuzzing iterations executed");
    ("fuzz.failures", "Differential fuzzing oracle failures");
    ("serve.requests", "HTTP requests served, by endpoint and status");
    ("serve.latency_seconds", "Request latency in seconds, by endpoint");
    ("serve.inflight", "Application requests currently inside the admission gate");
    ("serve.rejected_busy", "Requests refused with 429 at the inflight cap");
    ("serve.deadline_expired", "Requests answered 408 before occupying a batch lane");
    ("serve.batches", "Coalesced batched forwards run by the serving engine");
    ("serve.batch_lanes", "Total lanes across coalesced batched forwards");
    ("serve.cache_entries", "Entries currently in the embedding LRU cache");
    ("serve.cache_hits", "Embedding cache lookups that hit (AST-hash keyed)");
    ("serve.cache_misses", "Embedding cache lookups that missed");
    ("serve.cache_evictions", "Embedding cache entries evicted at capacity");
  ]

let help_for name =
  match List.assoc_opt name help_table with
  | Some h -> h
  | None -> "LiGer metric " ^ name

(* ---------------- rendering ---------------- *)

(* OpenMetrics spells the non-finite values out; finite ones render as
   in JSON *)
let fmt_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Json.of_float x

(** Render a snapshot in OpenMetrics text format, terminated by
    [# EOF]. *)
let render (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  (* group consecutive entries by family name (snapshot is sorted) *)
  let families =
    List.fold_left
      (fun acc (e : Metrics.entry) ->
        match acc with
        | (name, es) :: rest when name = e.Metrics.e_name -> (name, e :: es) :: rest
        | _ -> (e.Metrics.e_name, [ e ]) :: acc)
      [] snap
    |> List.rev_map (fun (name, es) -> (name, List.rev es))
  in
  List.iter
    (fun (name, entries) ->
      let om = sanitize_name name in
      let kind =
        match (List.hd entries).Metrics.e_value with
        | Metrics.C _ | Metrics.F _ -> `Counter
        | Metrics.G _ -> `Gauge
        | Metrics.H _ -> `Histogram
      in
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" om (help_for name));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" om
           (match kind with `Counter -> "counter" | `Gauge -> "gauge" | `Histogram -> "histogram"));
      List.iter
        (fun (e : Metrics.entry) ->
          let labels = render_labels e.Metrics.e_labels in
          match e.Metrics.e_value with
          | Metrics.C n -> Buffer.add_string buf (Printf.sprintf "%s_total%s %d\n" om labels n)
          | Metrics.F x ->
              Buffer.add_string buf (Printf.sprintf "%s_total%s %s\n" om labels (fmt_float x))
          | Metrics.G x -> Buffer.add_string buf (Printf.sprintf "%s%s %s\n" om labels (fmt_float x))
          | Metrics.H h ->
              let with_le le =
                render_labels (e.Metrics.e_labels @ [ ("le", le) ])
              in
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.Metrics.counts.(i);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" om (with_le (fmt_float bound)) !cum))
                h.Metrics.buckets;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" om (with_le "+Inf") h.Metrics.count);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" om labels (fmt_float h.Metrics.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" om labels h.Metrics.count))
        entries)
    families;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
