(* The benchmark executable: one workload, one seed, one run, one JSON line.

     main.exe --workload corpus|train|serve_hot --seed N
              --seconds S --trace 0|1 --liger PATH

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is a separate run that measures the per-layer metrics and the tracing
   overhead.  Progress and a readable summary go to stderr; the last line
   of stdout is the result (see Result_json).  perfbench/run.py builds
   this program and the liger binary from source and runs it. *)

open Perfbench

(* name, unit: the end-to-end metrics every workload reports *)
let e2e =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("ok_frac", "frac");
  ]

(* name, unit: the per-layer metrics of a traced run; a layer the
   workload does not exercise reads 0 *)
let per_layer =
  let cfgs = List.map (fun (c : Train_wl.config) -> c.Train_wl.label) Train_wl.configs in
  [
    ("trace_overhead_frac", "frac");
    ("trace.unaccounted_frac", "frac");
    ("mem.peak_rss_mb", "MB");
    (* lib/testgen + lib/symexec *)
    ("testgen.generate_s", "s");
    ("testgen.generate_p50_ms", "ms");
    ("testgen.generate_tail_ms", "ms");
    ("testgen.generate_tail_pct", "pct");
    ("testgen.attempts", "count");
    ("testgen.crashes", "count");
    ("testgen.timeouts", "count");
    ("testgen.gave_up", "count");
    ("testgen.useful_frac", "frac");
    ("symexec.self_s", "s");
    ("testgen.exec_self_s", "s");
    ("testgen.encode_method_p50_ms", "ms");
    ("testgen.encode_method_tail_ms", "ms");
    (* lib/lang + lib/analysis *)
    ("lang.typecheck_s", "s");
    ("analysis.lint_s", "s");
    ("analysis.dropped", "count");
    ("lang.prepare_ms", "ms");
    (* lib/trace + lib/dataset *)
    ("trace.blend_s", "s");
    ("trace.vocab_s", "s");
    ("trace.encode_s", "s");
    ("trace.traces", "count");
    ("dataset.generate_s", "s");
    (* lib/parallel *)
    ("parallel.busy_s_d0", "s");
    ("parallel.busy_s_d1", "s");
    ("parallel.utilization", "frac");
    ("parallel.speedup", "x");
  ]
  @ List.concat_map
      (fun c ->
        [
          (Printf.sprintf "train.%s.examples_per_s" c, "examples/s");
          (Printf.sprintf "core.%s.forward_s" c, "s");
          (Printf.sprintf "tensor.%s.backward_s" c, "s");
          (Printf.sprintf "tensor.%s.optimizer_s" c, "s");
          (Printf.sprintf "tensor.%s.tape_nodes_per_step" c, "count");
          (Printf.sprintf "eval.%s.validate_s" c, "s");
        ])
      cfgs
  @ List.map (fun l -> (Printf.sprintf "nn.%s.self_s" l, "s")) Train_wl.profile_layers
  @ [
      ("tensor.flops", "flops");
      ("tensor.bytes", "bytes");
      ("tensor.bufpool_hit_frac", "frac");
      ("gc.minor_words_per_example", "words/example");
      ("gc.major_collections", "count");
      ("quality.loss_ratio", "frac");
      (* lib/core inference *)
      ("core.embed_forward_ms", "ms");
      ("core.suggest_forward_ms", "ms");
      (* lib/serve *)
      ("serve.cold_p50_ms", "ms");
      ("serve.cold_tail_ms", "ms");
      ("serve.cold_tail_pct", "pct");
      ("serve.cold_n", "count");
      ("serve.warm_p50_ms", "ms");
      ("serve.warm_tail_ms", "ms");
      ("serve.warm_tail_pct", "pct");
      ("serve.warm_n", "count");
      ("serve.slo_frac", "frac");
      ("serve.cache_hit_frac", "frac");
      ("serve.misses_designed", "count");
      ("serve.misses_observed", "count");
      ("serve.batch_lanes_mean", "lanes");
      ("serve.server_p50_ms_embed", "ms");
      ("serve.server_p50_ms_search", "ms");
      ("serve.server_p50_ms_suggest", "ms");
      ("serve.rejected_busy", "count");
      ("serve.deadline_expired", "count");
      ("serve.http_parse_us", "us");
      ("serve.lru_find_us", "us");
      ("serve.index_nearest_us", "us");
      ("serve.json_us", "us");
      (* the load generator itself *)
      ("loadgen.sent", "count");
      ("loadgen.lag_p99_ms", "ms");
      ("loadgen.late_frac", "frac");
    ]

let workloads = [ "corpus"; "train"; "serve_hot" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload corpus|train|serve_hot --seed N --seconds S \
     --trace 0|1 [--liger PATH]";
  exit 2

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let liger = ref "_build/default/bin/liger_cli.exe" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: t :: rest -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None); parse rest
    | "--liger" :: p :: rest -> liger := p; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some n, Some s, Some t when List.mem !workload workloads && s > 0.0 -> (n, s, t)
    | _ -> usage ()
  in
  (* a server that dies mid-write must show up as a failed request, not
     kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = Filename.concat (Sys.getcwd ()) ".perfbench_work" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let liger = if Filename.is_relative !liger then Filename.concat (Sys.getcwd ()) !liger else !liger in
  let o =
    Fun.protect
      ~finally:(fun () ->
        rm_rf dir;
        try Unix.rmdir root with Unix.Unix_error _ -> () (* still in use by another run *))
      (fun () ->
        match !workload with
        | "corpus" -> Corpus_wl.run ~seed ~seconds ~trace
        | "train" -> Train_wl.run ~seed ~seconds ~trace
        | _ -> Serve_wl.run ~liger ~seed ~seconds ~trace ~dir)
  in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) o.Outcome.problems;
  let table, values =
    if trace then
      ( per_layer,
        List.map (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n o.Outcome.layers))) per_layer )
    else (e2e, List.map (fun (n, _) -> (n, List.assoc n o.Outcome.e2e)) e2e)
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n table) then failwith ("metric missing from the table: " ^ n))
    (if trace then o.Outcome.layers else o.Outcome.e2e);
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  if not finite then prerr_endline "check failed: a metric is not a finite number";
  List.iter (fun (n, v) -> Printf.eprintf "  %-40s %14.6g %s\n" n v (List.assoc n table)) values;
  let metrics =
    List.map
      (fun (n, v) ->
        { Result_json.name = n; value = (if Float.is_finite v then v else 0.0); unit_ = List.assoc n table })
      values
  in
  print_endline
    (Result_json.line ~correct:(o.Outcome.problems = [] && finite) ~attempted:o.Outcome.attempted
       ~failed:(o.Outcome.failed + if finite then 0 else 1)
       metrics)
