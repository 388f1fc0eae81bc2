(** Workload [serve_hot]: the real [liger serve] binary, with a model
    trained and saved during set-up and an index, under a closed loop of
    two keep-alive connections whose every request is an [/embed] or
    [/search] cache hit, driven over loopback by {!Perfbench.Loadgen}.

    The set-up's warm-up sends the warm set cold, so every run also checks
    the cold path: those answers must equal the in-process pipeline's byte
    for byte, and the server's cache counts must show exactly the designed
    misses.  A traced run adds a cold phase after the timed loop: one
    never-seen method per template of a fixed half of the templates, sent
    on an open-loop schedule to [/embed], [/search] and [/suggest], which
    gives the cold-path latencies and the per-layer figures of test
    generation and inference. *)

open Liger_tensor
open Perfbench
module Pipeline = Liger_dataset.Pipeline
module Train = Liger_eval.Train
module Zoo = Liger_eval.Zoo
module Common = Liger_core.Common
module Liger_model = Liger_core.Liger_model
module Vocab = Liger_trace.Vocab
module Serve = Liger_serve
module Json = Liger_obs.Json

let conns = 2  (* no more than the cores of the machine the numbers were taken on *)
let search_k = 5

(* Template strata (see {!Inputs}): the model is trained on every third
   template, the warm set is sixteen templates spread over the list, and
   the cold set is one new method of every other template.  Fixed strata
   keep set-up cost and the cold work the same whatever the seed. *)
let model_templates = Inputs.every 3 0
let warm_templates = List.init 16 (fun i -> i * Inputs.n_templates / 16)
let cold_templates = Inputs.every 2 1
let model_epochs = 6

(* warm requests answered within this count towards [serve.slo_frac] *)
let warm_limit_s = 0.1

(* the traced run replays this many of the timed loop's requests *)
let replayed = 15000

(* the traced run's cold phase sends a cold request this often *)
let cold_interval_s = 0.25

(* ---------------- model, index, server process ---------------- *)

(** A saved model in the directory layout [liger serve --model] reads. *)
let save_model dir (model : Liger_model.t) vocab =
  Unix.mkdir dir 0o755;
  Serialize.save_store (Liger_model.store model) (Filename.concat dir "params.txt");
  Vocab.save vocab (Filename.concat dir "vocab.txt");
  let oc = open_out (Filename.concat dir "meta") in
  Printf.fprintf oc "dim %d\n" model.Liger_model.config.Liger_model.dim;
  close_out oc

(** The model as [liger serve] loads it, for the in-process reference. *)
let load_model dir =
  let vocab = Vocab.load (Filename.concat dir "vocab.txt") in
  let ic = open_in (Filename.concat dir "meta") in
  let dim = Scanf.sscanf (input_line ic) "dim %d" Fun.id in
  close_in ic;
  let model =
    Liger_model.create ~config:{ Liger_model.default_config with Liger_model.dim } vocab
      Liger_model.Naming
  in
  Serialize.load_store (Liger_model.store model) (Filename.concat dir "params.txt");
  (model, vocab)

type server = { pid : int; port : int; log : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let healthy port =
  match Serve.Client.request ~port "/healthz" with
  | r -> r.Serve.Client.status = 200
  | exception _ -> false

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* The server and the load generator each get a core of their own, so
   that where the scheduler happens to put them does not move the figures. *)
let server_cpu = "0"
let client_cpu = "1"

(** Move every thread of this process onto {!client_cpu}. *)
let pin_client () =
  let pid =
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; client_cpu; string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "taskset could not pin the load generator"

(** Start [liger serve] on an ephemeral port with its metrics on (the
    [/metrics] scrapes need them), and wait until it answers [/healthz]. *)
let start_server ~liger ~dir ~model ~index =
  let port_file = Filename.concat dir "port" and log = Filename.concat dir "serve.log" in
  let env =
    Array.append (Unix.environment ())
      [| "LIGER_METRICS=1"; "LIGER_RUNS_DIR=" ^ Filename.concat dir "runs"; "LIGER_RUN_ID=serve" |]
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env "taskset"
      [| "taskset"; "-c"; server_cpu; liger; "serve"; "--model"; model; "--index"; index; "--port"; "0";
         "--port-file"; port_file |]
      env Unix.stdin out out
  in
  Unix.close out;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_port () =
    let port =
      if Sys.file_exists port_file then int_of_string_opt (String.trim (read_file port_file)) else None
    in
    match port with
    | Some port when healthy port -> { pid; port; log }
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("liger serve exited during start-up; see " ^ log));
        if Unix.gettimeofday () > deadline then begin
          stop_server { pid; port = 0; log };
          failwith "liger serve did not come up within 30 s"
        end;
        Unix.sleepf 0.01;
        wait_port ()
  in
  wait_port ()

(* ---------------- set-up ---------------- *)

type fixture = {
  server : server;
  dir : string;
  warm : Inputs.served array;
  cold : Inputs.served array;
  warm_up : Loadgen.outcome array;  (* the server's first, uncached answers for [warm] *)
  warm_up_cache : float * float;  (* cache hits and misses the warm-up added *)
}

let scrape port =
  let r = Serve.Client.request ~port "/metrics" in
  if r.Serve.Client.status <> 200 then failwith "GET /metrics failed";
  Scrape.parse r.Serve.Client.body

let cache_counts ~before ~after =
  (Scrape.delta ~before ~after "serve_cache_hits", Scrape.delta ~before ~after "serve_cache_misses")

(** Everything before the load: build a corpus, train LiGer, save it, index
    the corpus, start the server, and embed the warm set through it. *)
let setup ~liger ~seed ~dir =
  let rng = Rng.create seed in
  Liger_parallel.Parallel.set_jobs 2;
  let round =
    Corpus_wl.build_round rng (Inputs.stratum rng ~tpls:model_templates ~broken:0 ~tiny:0 ~external_:0)
  in
  if round.Corpus_wl.problems <> [] then failwith (String.concat "; " round.Corpus_wl.problems);
  let corpus = round.Corpus_wl.corpus in
  let vocab = corpus.Pipeline.vocab in
  let wrap, model = Zoo.liger ~vocab Liger_model.Naming in
  ignore
    (Train.fit
       ~options:{ Train.default_options with Train.epochs = model_epochs; batch_size = 16;
                  eval_every = model_epochs }
       (Rng.create (seed + 1)) wrap ~train:corpus.Pipeline.train ~valid:corpus.Pipeline.valid);
  let model_dir = Filename.concat dir "model" and index_dir = Filename.concat dir "index" in
  save_model model_dir model vocab;
  let seen = Hashtbl.create 256 in
  let items =
    List.filter_map
      (fun (ex : Common.enc_example) ->
        let hash = Serve.Ast_hash.of_meth ex.Common.meth in
        if Hashtbl.mem seen hash then None
        else begin
          Hashtbl.replace seen hash ();
          Some (ex.Common.meth.Liger_lang.Ast.mname, hash, ex)
        end)
      (corpus.Pipeline.train @ corpus.Pipeline.valid @ corpus.Pipeline.test)
  in
  let index, _ =
    Serve.Index.build ~dim:model.Liger_model.config.Liger_model.dim
      ~embed_batch:(Liger_model.embed_programs model) items
  in
  Serve.Index.save index ~dir:index_dir;
  let warm = Array.of_list (Inputs.served_set rng ~seen warm_templates) in
  let cold = Array.of_list (Inputs.served_set rng ~seen cold_templates) in
  let server = start_server ~liger ~dir ~model:model_dir ~index:index_dir in
  let reqs =
    Array.map (fun (s : Inputs.served) -> { Loadgen.due = 0.0; path = "/embed"; body = s.Inputs.body }) warm
  in
  (* the answers are checked after set-up (see [warm_up_checks]) *)
  match
    let before = scrape server.port in
    let outs = Loadgen.run_open ~port:server.port ~conns:1 ~drain_s:120.0 reqs in
    (outs, cache_counts ~before ~after:(scrape server.port))
  with
  | warm_up, warm_up_cache -> { server; dir; warm; cold; warm_up; warm_up_cache }
  | exception e ->
      stop_server server;
      raise e

(* ---------------- requests and their checks ---------------- *)

type cls = Warm | Cold

type spec = { cls : cls; endpoint : string; served : Inputs.served }

let path_of endpoint = if endpoint = "/search" then Printf.sprintf "/search?k=%d" search_k else endpoint

(** The traced run's cold requests: each cold method once, to [/embed],
    [/search] and [/suggest] in turn. *)
let cold_specs (fx : fixture) =
  Array.mapi
    (fun j served -> { cls = Cold; endpoint = [| "/embed"; "/search"; "/suggest" |].(j mod 3); served })
    fx.cold

(** Why an answer is wrong, if it is: the status, the JSON, the fields
    the endpoint promises, and whether it came from the cache exactly
    when the design says it must. *)
let check_answer ~dim spec (o : Loadgen.outcome) =
  if o.Loadgen.status <> 200 then Some (Printf.sprintf "status %d" o.Loadgen.status)
  else
    match Json.parse o.Loadgen.resp_body with
    | Error e -> Some ("unparsable body: " ^ e)
    | Ok j -> (
        let list name = Option.bind (Json.member name j) Json.to_list in
        match spec.endpoint with
        | "/embed" -> (
            match (list "vector", Json.member "cached" j) with
            | Some v, Some (Json.Bool cached) ->
                if List.length v <> dim then Some "vector of the wrong dimension"
                else if cached <> (spec.cls = Warm) then Some "cache use differs from the design"
                else None
            | _ -> Some "embed answer without vector/cached")
        | "/search" -> (
            match list "neighbors" with
            | Some (_ :: _) -> None
            | _ -> Some "search answer without neighbors")
        | _ -> (
            match list "subtokens" with Some _ -> None | None -> Some "suggest answer without subtokens"))

(** Served [/embed] answers must equal, byte for byte, the body the
    in-process pipeline renders on the same saved model from the same
    source: [Engine.prepare], [Engine.encode_method], then
    [Liger_model.embed_programs].  One verdict per sample. *)
let reference_checks ~dir samples =
  let model, vocab = load_model (Filename.concat dir "model") in
  List.map
    (fun ((s : Inputs.served), body) ->
      (* from the source text, as the server sees it *)
      match Serve.Engine.prepare s.Inputs.body with
      | Error (_, msg) -> Some ("reference parse failed: " ^ msg)
      | Ok (meth, hash) -> (
          match Serve.Engine.encode_method ~vocab meth hash with
          | Error (_, msg) -> Some ("reference encode failed: " ^ msg)
          | Ok ex ->
              let v = (Liger_model.embed_programs model [| ex |]).(0) in
              if Serve.Engine.embed_body hash ~cached:false v = body then None
              else Some ("served vector differs from the in-process one for " ^ hash)))
    samples

(* ---------------- the traced replay ---------------- *)

(** The server's per-request work, replayed in-process on the same saved
    model, index and request bodies, one call per layer:
    [Http.parse], [Engine.prepare], [Lru.find], [Engine.encode_method],
    [Liger_model.embed_programs] / [predict_name_ids_batch],
    [Index.nearest] and the JSON body.  With [traced], each call is a
    span.  Returns the replay's wall time. *)
let replay (fx : fixture) ~traced (specs : spec array) =
  let model, vocab = load_model (Filename.concat fx.dir "model") in
  let index = Serve.Index.load_exn ~dir:(Filename.concat fx.dir "index") in
  let warm_vectors =
    Array.map
      (fun (s : Inputs.served) ->
        match Serve.Engine.encode_method ~vocab s.Inputs.meth s.Inputs.hash with
        | Ok ex -> (s.Inputs.hash, (Liger_model.embed_programs model [| ex |]).(0))
        | Error (_, msg) -> failwith msg)
      fx.warm
  in
  let cache = Serve.Lru.create ~capacity:Serve.Engine.default_config.Serve.Engine.cache_capacity in
  Array.iter (fun (h, v) -> Serve.Lru.put cache h v) warm_vectors;
  let span name f = if traced then Tracing.span name f else f () in
  let encode meth hash =
    match span "testgen.encode_method" (fun () -> Serve.Engine.encode_method ~vocab meth hash) with
    | Ok ex -> ex
    | Error (_, msg) -> failwith msg
  in
  let one spec =
    let raw = Loadgen.encode_request ~path:(path_of spec.endpoint) ~body:spec.served.Inputs.body in
    let req =
      match span "serve.http_parse" (fun () -> Serve.Http.parse raw) with
      | Serve.Http.Complete (req, _) -> req
      | _ -> failwith "replay: request did not parse"
    in
    let meth, hash =
      match span "lang.prepare" (fun () -> Serve.Engine.prepare req.Serve.Http.body) with
      | Ok mh -> mh
      | Error (_, msg) -> failwith msg
    in
    let vector () =
      match span "serve.lru_find" (fun () -> Serve.Lru.find cache hash) with
      | Some v -> v
      | None ->
          let ex = encode meth hash in
          let v = span "core.embed_forward" (fun () -> (Liger_model.embed_programs model [| ex |]).(0)) in
          Serve.Lru.put cache hash v;
          v
    in
    match spec.endpoint with
    | "/embed" ->
        let v = vector () in
        ignore (span "serve.json" (fun () -> Serve.Engine.embed_body hash ~cached:true v))
    | "/search" ->
        let v = vector () in
        let nb = span "serve.index_nearest" (fun () -> Serve.Index.nearest index ~k:search_k v) in
        ignore (span "serve.json" (fun () -> Serve.Engine.search_body hash nb))
    | _ ->
        let ex = encode meth hash in
        let ids = span "core.suggest_forward" (fun () -> Liger_model.predict_name_ids_batch model [| ex |]) in
        let subtokens = List.map (Vocab.name vocab) ids.(0) in
        ignore (span "serve.json" (fun () -> Serve.Engine.suggest_body hash subtokens))
  in
  let t0 = Outcome.now () in
  Array.iter one specs;
  Outcome.now () -. t0

let replay_spans =
  [ "serve.http_parse"; "lang.prepare"; "serve.lru_find"; "testgen.encode_method"; "core.embed_forward";
    "core.suggest_forward"; "serve.index_nearest"; "serve.json" ]

(** Per-layer metrics of traced replays.  The timed loop's requests
    [warm] give the cache-hit path, the tracing overhead (against an
    untraced replay of the same requests) and the share of the server's
    own handling time per request, [server_mean_s], the replay's spans
    do not cover; the cold requests [cold] give test generation and
    inference. *)
let replay_layers fx ~warm ~cold ~server_mean_s =
  let traced specs =
    Tracing.start ();
    let wall = replay fx ~traced:true specs in
    let agg = Tracing.aggregate () in
    Tracing.stop ();
    (wall, agg)
  in
  let plain = replay fx ~traced:false warm in
  let wall, agg = traced warm in
  let _, cold_agg = traced cold in
  let med agg name scale =
    let d = (agg name).Tracing.durations_s in
    if Array.length d = 0 then 0.0 else scale *. Stats.median d
  in
  (* calls of a few microseconds, below the clock's resolution: a mean
     over many calls instead of a median *)
  let mean_us name =
    let a = agg name in
    if a.Tracing.count = 0 then 0.0 else 1e6 *. a.Tracing.total_s /. float_of_int a.Tracing.count
  in
  let encode = Stats.summarize (cold_agg "testgen.encode_method").Tracing.durations_s in
  let accounted =
    List.fold_left (fun a n -> a +. (agg n).Tracing.total_s) 0.0 replay_spans
    /. float_of_int (max 1 (Array.length warm))
  in
  [
    ("serve.http_parse_us", mean_us "serve.http_parse");
    ("lang.prepare_ms", med agg "lang.prepare" 1e3);
    ("serve.lru_find_us", mean_us "serve.lru_find");
    ("serve.index_nearest_us", mean_us "serve.index_nearest");
    ("serve.json_us", mean_us "serve.json");
    ("testgen.encode_method_p50_ms", Outcome.ms encode.Stats.p50);
    ("testgen.encode_method_tail_ms", Outcome.ms encode.Stats.tail);
    ("core.embed_forward_ms", med cold_agg "core.embed_forward" 1e3);
    ("core.suggest_forward_ms", med cold_agg "core.suggest_forward" 1e3);
    ("trace_overhead_frac", (wall /. plain) -. 1.0);
    ("trace.unaccounted_frac", if server_mean_s > 0.0 then 1.0 -. (accounted /. server_mean_s) else 0.0);
  ]

(* ---------------- the workload ---------------- *)

let with_fixture ~liger ~seed ~dir ~setups f =
  let n = ref 0 in
  let setup_s, fx =
    Outcome.repeated_setup ~k:setups
      ~teardown:(fun fx -> stop_server fx.server)
      (fun () ->
        incr n;
        let d = Filename.concat dir (string_of_int !n) in
        Unix.mkdir d 0o755;
        setup ~liger ~seed ~dir:d)
  in
  Fun.protect ~finally:(fun () -> stop_server fx.server) (fun () -> f setup_s fx)

let check ok msg = if ok then None else Some msg

(** The server's median handling time for [endpoint] between two scrapes,
    at the resolution of its latency histogram's buckets. *)
let server_p50_ms ~before ~after endpoint =
  match Scrape.hist_quantile ~labels:[ ("endpoint", endpoint) ] ~before ~after "serve_latency_seconds" 0.5 with
  | Some b when Float.is_finite b -> 1000.0 *. b
  | _ -> 0.0

let latency_layers prefix (s : Stats.summary) =
  [
    (prefix ^ "_p50_ms", Outcome.ms s.Stats.p50);
    (prefix ^ "_tail_ms", Outcome.ms s.Stats.tail);
    (prefix ^ "_tail_pct", 100.0 *. s.Stats.tail_q);
    (prefix ^ "_n", float_of_int s.Stats.n);
  ]

(** Checks on the set-up's warm-up, which sent every warm method cold:
    every answer is right and uncached, the server counted exactly one
    cache miss and no hit per method, and every answer equals the
    in-process pipeline's byte for byte.  One verdict per check. *)
let warm_up_checks ~dim (fx : fixture) =
  let n = Array.length fx.warm in
  let answers =
    List.init n (fun i ->
        check_answer ~dim { cls = Cold; endpoint = "/embed"; served = fx.warm.(i) } fx.warm_up.(i)
        |> Option.map (Printf.sprintf "warm-up request %d: %s" i))
  in
  let hits, misses = fx.warm_up_cache in
  answers
  @ [
      check (Float.to_int misses = n && hits = 0.0)
        (Printf.sprintf "warm-up cache: designed %d misses and 0 hits, observed %.0f and %.0f" n misses hits);
    ]
  @ reference_checks ~dir:fx.dir
      (List.init n (fun i -> (fx.warm.(i), fx.warm_up.(i).Loadgen.resp_body)))

(** The traced run's cold phase: every cold request (see {!cold_specs}),
    one every {!cold_interval_s} on an open-loop schedule, latency from
    its scheduled send.  Returns the checks' verdicts (every answer right,
    [/metrics] cache misses over the phase exactly the designed number,
    no hit) and the cold-path metrics. *)
let cold_phase ~dim port (specs : spec array) =
  let reqs =
    Array.mapi
      (fun i spec ->
        { Loadgen.due = float_of_int i *. cold_interval_s; path = path_of spec.endpoint;
          body = spec.served.Inputs.body })
      specs
  in
  let before = scrape port in
  let outs = Loadgen.run_open ~port ~conns ~drain_s:60.0 reqs in
  let after = scrape port in
  let verdicts =
    Array.to_list
      (Array.mapi
         (fun i spec ->
           check_answer ~dim spec outs.(i) |> Option.map (Printf.sprintf "cold request %d (%s): %s" i spec.endpoint))
         specs)
  in
  let lats =
    List.concat
      (List.mapi (fun i v -> if v = None then [ Loadgen.latency_from_due reqs.(i) outs.(i) ] else []) verdicts)
  in
  (* a miss per cold /embed or /search; /suggest never touches the cache *)
  let designed = Array.fold_left (fun n s -> if s.endpoint <> "/suggest" then n + 1 else n) 0 specs in
  let hits, misses = cache_counts ~before ~after in
  let lag_p99, late = Loadgen.lag_summary reqs outs in
  let lanes =
    let b = Scrape.delta ~before ~after "serve_batches" in
    if b > 0.0 then Scrape.delta ~before ~after "serve_batch_lanes" /. b else 0.0
  in
  ( verdicts
    @ [
        check (Float.to_int misses = designed && hits = 0.0)
          (Printf.sprintf "cold cache: designed %d misses and 0 hits, observed %.0f and %.0f" designed misses hits);
      ],
    latency_layers "serve.cold" (Stats.summarize (Array.of_list lats))
    @ [
        ("serve.misses_designed", float_of_int designed);
        ("serve.misses_observed", misses);
        ("serve.batch_lanes_mean", lanes);
        ("serve.server_p50_ms_suggest", server_p50_ms ~before ~after "/suggest");
        ("loadgen.lag_p99_ms", lag_p99);
        ("loadgen.late_frac", late);
      ] )

let run ~liger ~seed ~seconds ~trace ~dir =
  with_fixture ~liger ~seed ~dir ~setups:(if trace then 1 else 3) @@ fun setup_s fx ->
  pin_client ();
  let port = fx.server.port in
  let dim = (fst (load_model (Filename.concat fx.dir "model"))).Liger_model.config.Liger_model.dim in
  let rng = Rng.create (seed + 3) in
  let table =
    Array.init 4096 (fun _ ->
        { cls = Warm; endpoint = (if Rng.int rng 2 = 0 then "/embed" else "/search");
          served = fx.warm.(Rng.int rng (Array.length fx.warm)) })
  in
  let spec i = table.(i mod Array.length table) in
  let before = scrape port in
  let results =
    Loadgen.run_closed ~port ~conns ~seconds ~drain_s:30.0 (fun i ->
        let s = spec i in
        (path_of s.endpoint, s.served.Inputs.body))
  in
  let after = scrape port in
  let problems = ref [] in
  let good =
    List.filter
      (fun (i, o) ->
        match check_answer ~dim (spec i) o with
        | None -> true
        | Some why ->
            if List.length !problems < 20 then
              problems := Printf.sprintf "request %d: %s" i why :: !problems;
            false)
      results
  in
  let n = List.length results and ok = List.length good in
  let lats = Array.of_list (List.map (fun (_, o) -> o.Loadgen.done_ -. o.Loadgen.sent) good) in
  let hits, misses = cache_counts ~before ~after in
  let cold_checks, cold_layers =
    if trace then cold_phase ~dim port (cold_specs fx) else ([], [])
  in
  let checks =
    [
      check (misses = 0.0) (Printf.sprintf "cache misses: designed 0, observed %.0f" misses);
      check (Float.to_int hits = n) (Printf.sprintf "cache hits: designed %d, observed %.0f" n hits);
    ]
    @ warm_up_checks ~dim fx @ cold_checks
  in
  let failed_checks = List.filter_map Fun.id checks in
  let attempted = n + List.length checks and failed = n - ok + List.length failed_checks in
  let within = Array.fold_left (fun a l -> if l <= warm_limit_s then a + 1 else a) 0 lats in
  let layers () =
    let d name = Scrape.delta ~before ~after name in
    let lat_n = d "serve_latency_seconds_count" in
    latency_layers "serve.warm" (Stats.summarize lats)
    @ cold_layers
    @ [
        ("serve.cache_hit_frac", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
        ("serve.server_p50_ms_embed", server_p50_ms ~before ~after "/embed");
        ("serve.server_p50_ms_search", server_p50_ms ~before ~after "/search");
        ("serve.rejected_busy", d "serve_rejected_busy");
        ("serve.deadline_expired", d "serve_deadline_expired");
        ("serve.slo_frac", float_of_int within /. float_of_int (max 1 n));
        ("loadgen.sent", float_of_int n);
        ("mem.peak_rss_mb", Outcome.peak_rss_mb (string_of_int fx.server.pid));
      ]
    @ replay_layers fx
        ~warm:(Array.of_list (List.filteri (fun k _ -> k < replayed) (List.map (fun (i, _) -> spec i) results)))
        ~cold:(cold_specs fx)
        ~server_mean_s:(if lat_n > 0.0 then d "serve_latency_seconds_sum" /. lat_n else 0.0)
  in
  {
    Outcome.problems = List.rev !problems @ failed_checks;
    attempted;
    failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput_per_s", Loadgen.median_cycle_rate ~conns (List.map snd good));
        ("latency_p50_ms", if ok = 0 then 0.0 else Outcome.ms (Stats.median lats));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
      ];
    layers = (if trace then layers () else []);
  }
