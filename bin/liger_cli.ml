(* The liger command-line tool.

   Subcommands:
     trace    FILE   - run a MiniJava method on generated inputs and print
                       Figure 2-style execution traces
     analyze  FILE   - static analysis: CFG, dataflow facts, abstract
                       interpretation, dominators, interprocedural summary,
                       lint verdicts and the return-value slice of every method
     probe           - train linear readouts on frozen embeddings against
                       exact per-statement semantic labels
     paths    FILE   - bounded symbolic execution: enumerate paths, solve
                       their conditions, print the discovered inputs
     dataset         - generate a corpus and print Table 1-style statistics
     train           - train a model on a generated corpus and report metrics
     experiments     - run the paper's tables/figures (same as bench/main.exe)
     stats    FILE   - summarize or validate a telemetry file written via
                       --metrics-out/--trace (or LIGER_METRICS/LIGER_TRACE);
                       --openmetrics renders Prometheus text exposition
     top     [RUN]   - live view of a training run's ledger (throughput, loss,
                       grad norms, pool, GC, bufpool; see --metrics-every)
     serve           - long-running embedding server: POST /embed /search
                       /suggest, GET /healthz /metrics, with request
                       coalescing, an AST-hash LRU cache and backpressure
     index           - build/refresh a content-addressed embedding index for
                       /search (unchanged methods reuse their stored vectors)
     fetch   URL     - tiny loopback HTTP client for scripting against serve
*)

open Cmdliner
open Liger_lang
open Liger_analysis
open Liger_trace
open Liger_tensor
open Liger_testgen
open Liger_symexec
open Liger_core
open Liger_dataset
open Liger_eval
module Obs = Liger_obs.Obs
module View = Liger_obs_view.Readers
module Report_html = Liger_obs_view.Report_html
module Serve = Liger_serve

(* Telemetry flags shared by the long-running subcommands.  The term's
   side-effect configures the registry/tracer before the command body runs;
   explicit flags win over the environment. *)
let obs_term =
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write a metrics snapshot (JSON) to $(docv) on exit.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON to $(docv) on exit (open in \
                   chrome://tracing or ui.perfetto.dev).")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Enable the model profiler: per-op FLOP/byte counters, \
                   per-layer forward/backward timings and tensor-memory peak \
                   (implies metrics).  The end-of-run \
                   report gains per-layer and per-op tables.")
  in
  let metrics_every =
    Arg.(value & opt (some float) None
         & info [ "metrics-every" ] ~docv:"SECONDS"
             ~doc:"Append an enriched metrics snapshot to the run ledger \
                   $(i,runs/<run-id>/metrics.jsonl) every $(docv) seconds (also \
                   LIGER_METRICS_EVERY; implies metrics).  Watch it live with \
                   $(b,liger top).")
  in
  let dynamics =
    Arg.(value & flag
         & info [ "dynamics" ]
             ~doc:"Enable the training-dynamics streams: per-layer gradient \
                   norms and update-to-weight ratios, activation saturation, \
                   attention entropy, and embedding drift vs a frozen probe \
                   set (implies metrics).  Feeds the \
                   ledger, $(b,liger top) and $(b,liger report).")
  in
  let setup metrics_out trace_out metrics_every profile dynamics =
    Obs.init ?metrics_out ?trace_out ?metrics_every ~profile ~dynamics ()
  in
  Term.(const setup $ metrics_out $ trace_out $ metrics_every $ profile $ dynamics)

(* The other working subcommands take the telemetry environment
   (LIGER_METRICS, LIGER_TRACE, LIGER_METRICS_EVERY) without flags.  The
   readers -- stats, top, report, fetch -- take none: under the run id of
   the run they read, their own exit snapshot would overwrite its files. *)
let obs_env = Term.(const (fun () -> Obs.init ()) $ const ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_method path =
  match Parser.methods_of_string (read_file path) with
  | [ m ] -> m
  | m :: _ ->
      Printf.eprintf "note: %s contains several methods; using '%s'\n" path m.Ast.mname;
      m
  | [] -> failwith "no method found"

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run () file n seed =
    let meth = load_method file in
    (match Typecheck.check meth with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "type error at line %d: %s" e.Typecheck.line e.Typecheck.msg));
    let rng = Rng.create seed in
    let result = Feedback.generate rng meth in
    let traces = List.filteri (fun i _ -> i < n) result.Feedback.traces in
    List.iter
      (fun tr ->
        Printf.printf "--- input: %s ---\n%s\n"
          (String.concat ", " (List.map Value.to_display tr.Exec_trace.input))
          (Exec_trace.to_display meth tr))
      traces;
    let blended = Feedback.blended meth result in
    Printf.printf "%d distinct paths over %d executions\n" (List.length blended)
      (Blended.total_executions blended)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of traces to print.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Execute a MiniJava method and print execution traces")
    Term.(const run $ obs_env $ file $ n $ seed)

(* ---------------- analyze ---------------- *)

let analyze_method (m : Ast.meth) =
  Printf.printf "== method %s ==\n" m.Ast.mname;
  match Typecheck.check m with
  | Error e ->
      Printf.printf "  does not typecheck (line %d): %s\n" e.Typecheck.line e.Typecheck.msg;
      false
  | Ok () ->
      let cfg = Cfg.build m in
      Printf.printf "-- control-flow graph (%d nodes, %d blocks) --\n%s\n"
        (Cfg.n_nodes cfg) (Array.length cfg.Cfg.blocks)
        (Fmt.str "%a" Cfg.pp cfg);
      let reach = Reaching.analyze ~cfg m in
      Printf.printf "-- reaching definitions at exit --\n  %s\n"
        (Fmt.str "%a" Reaching.pp_fact reach.Reaching.before.(Cfg.exit_));
      let live = Liveness.analyze ~cfg m in
      Printf.printf "-- live at entry (should be the parameters actually read) --\n  %s\n"
        (Fmt.str "%a" Dataflow.pp_varset live.Liveness.live_out.(Cfg.entry));
      let consts = Constprop.analyze ~cfg m in
      Printf.printf "-- constants at exit --\n  %s\n"
        (Fmt.str "%a" Constprop.pp_env consts.Constprop.before.(Cfg.exit_));
      (match Constprop.constant_guards consts with
      | [] -> ()
      | gs ->
          Printf.printf "-- constant branch guards --\n";
          List.iter (fun (sid, b) -> Printf.printf "  #%d always %b\n" sid b) gs);
      let relevant = Slice.relevant_vars ~cfg m in
      let pruned =
        List.filter
          (fun x -> not (Dataflow.VarSet.mem x relevant))
          (Ast.declared_vars m)
      in
      Printf.printf "-- return-value slice --\n  relevant: {%s}\n  prunable: {%s}\n"
        (String.concat ", " (Dataflow.VarSet.elements relevant))
        (String.concat ", " pruned);
      let absint = Absint.analyze ~cfg m in
      Printf.printf "-- abstract interpretation (%d iterations) --\n"
        absint.Absint.iterations;
      Printf.printf "  at exit: %s\n  returns %s\n"
        (Fmt.str "%a" Absint.pp_env absint.Absint.after.(Cfg.exit_))
        (Absint.aval_to_string absint.Absint.ret);
      let dom = Dominator.dominators cfg in
      let always =
        Array.to_list cfg.Cfg.nodes
        |> List.mapi (fun i n -> (i, n))
        |> List.filter_map (fun (i, n) ->
               match n with
               | Cfg.Stmt s when Dominator.dominates dom i Cfg.exit_ ->
                   Some (string_of_int s.Ast.sid)
               | _ -> None)
      in
      Printf.printf "-- dominators --\n  statements on every terminating run: {%s}\n"
        (String.concat ", " always);
      let summary = Summary.summarize m in
      let rendered_summary =
        String.concat "\n  "
          (String.split_on_char '\n' (String.trim (Fmt.str "%a" Summary.pp summary)))
      in
      Printf.printf "-- summary --\n  %s\n" rendered_summary;
      let verdict = Lint.check m in
      let rendered =
        String.concat "\n  "
          (String.split_on_char '\n' (String.trim (Fmt.str "%a" Lint.pp verdict)))
      in
      Printf.printf "-- lint --\n  %s\n" rendered;
      Lint.ok verdict

let analyze_cmd =
  let run () file strict =
    let methods = Parser.methods_of_string (read_file file) in
    if methods = [] then failwith "no method found";
    let all_clean = List.fold_left (fun acc m -> analyze_method m && acc) true methods in
    if strict && not all_clean then exit 1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero if any method fails to typecheck or has lint findings.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the CFG, dataflow facts, lint verdicts and slice of each method")
    Term.(const run $ obs_env $ file $ strict)

(* ---------------- paths ---------------- *)

let paths_cmd =
  let run () file seed =
    let meth = load_method file in
    let shape = Symexec.shape_of_params meth.Ast.params in
    let results = Symexec.explore meth ~shape in
    let rng = Rng.create seed in
    Printf.printf "%d bounded symbolic paths:\n" (List.length results);
    List.iteri
      (fun i (r : Symexec.path_result) ->
        match r.Symexec.outcome with
        | Symexec.Sym_returned v ->
            let solved =
              match Symexec.concretize rng meth ~shape r with
              | Some args ->
                  Printf.sprintf "inputs: %s"
                    (String.concat ", " (List.map Value.to_display args))
              | None -> "condition not solved"
            in
            Printf.printf "  #%d returns %s | pc: %s | %s\n" i (Symval.to_string v)
              (Path.to_string r.Symexec.pc) solved
        | Symexec.Sym_aborted msg -> Printf.printf "  #%d aborted: %s\n" i msg)
      results
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "paths" ~doc:"Enumerate and solve bounded symbolic paths")
    Term.(const run $ obs_env $ file $ seed)

(* ---------------- dataset ---------------- *)

let dataset_cmd =
  let run () n seed coset =
    let rng = Rng.create seed in
    if coset then begin
      let corpus = Pipeline.build_coset rng ~n in
      Fmt.pr "%a@." Stats.pp corpus.Pipeline.stats
    end
    else begin
      let corpus = Pipeline.build_naming rng ~name:"generated" ~n in
      Fmt.pr "%a@." Stats.pp corpus.Pipeline.stats
    end;
    Obs.print_report ()
  in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Corpus size to generate.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let coset =
    Arg.(value & flag & info [ "coset" ] ~doc:"Generate the COSET analogue instead.")
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate a corpus and print its statistics")
    Term.(const run $ obs_term $ n $ seed $ coset)

(* ---------------- model persistence ---------------- *)

(* A saved model directory holds params.txt, vocab.txt and meta (dim). *)
let save_model dir (model : Liger_model.t) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Serialize.save_store (Liger_model.store model) (Filename.concat dir "params.txt");
  Vocab.save (Liger_model.vocab model) (Filename.concat dir "vocab.txt");
  let oc = open_out (Filename.concat dir "meta") in
  Printf.fprintf oc "dim %d\n" model.Liger_model.config.Liger_model.dim;
  close_out oc

let load_model dir =
  let vocab = Vocab.load (Filename.concat dir "vocab.txt") in
  let ic = open_in (Filename.concat dir "meta") in
  let dim =
    match String.split_on_char ' ' (input_line ic) with
    | [ "dim"; d ] -> int_of_string d
    | _ -> failwith "bad meta file"
  in
  close_in ic;
  let model =
    Liger_model.create
      ~config:{ Liger_model.default_config with Liger_model.dim }
      vocab Liger_model.Naming
  in
  Serialize.load_store (Liger_model.store model) (Filename.concat dir "params.txt");
  (model, vocab)

(* ---------------- train ---------------- *)

let train_cmd =
  let run () model_name n epochs dim seed batch save =
    let rng = Rng.create seed in
    Printf.printf "building corpus (n=%d)...\n%!" n;
    let corpus = Pipeline.build_naming rng ~name:"cli" ~n in
    let n_train, n_valid, n_test = Pipeline.sizes corpus in
    Printf.printf "corpus: %d/%d/%d\n%!" n_train n_valid n_test;
    let task = Liger_model.Naming in
    let wrapper, liger_model =
      match model_name with
      | "liger" ->
          let w, m =
            Zoo.liger
              ~config:{ Liger_model.default_config with Liger_model.dim }
              ~vocab:corpus.Pipeline.vocab task
          in
          (w, Some m)
      | "dypro" -> (fst (Zoo.dypro ~dim ~vocab:corpus.Pipeline.vocab task), None)
      | "code2vec" -> (Zoo.code2vec ~dim ~train:corpus.Pipeline.train task, None)
      | "code2seq" -> (Zoo.code2seq ~dim ~train:corpus.Pipeline.train task, None)
      | other -> failwith ("unknown model " ^ other)
    in
    Printf.printf "training %s (%d params, %d epochs)...\n%!" wrapper.Train.name
      (Param.num_params wrapper.Train.store) epochs;
    let history =
      Train.fit
        ~options:{ Train.default_options with Train.epochs; Train.batch_size = batch }
        (Rng.create (seed + 1)) wrapper ~train:corpus.Pipeline.train
        ~valid:corpus.Pipeline.valid
    in
    if history.Train.vacuous_best then
      Printf.printf "best epoch: %d (validation split empty; selection vacuous)\n"
        history.Train.best_epoch
    else Printf.printf "best epoch: %d\n" history.Train.best_epoch;
    let r = Train.eval_naming ~batch wrapper corpus.Pipeline.test in
    Fmt.pr "test: %a@." Metrics.pp_prf r.Train.prf;
    Obs.print_report ();
    match (save, liger_model) with
    | Some dir, Some m ->
        save_model dir m;
        Printf.printf "model saved to %s\n" dir
    | Some _, None -> Printf.eprintf "--save currently supports --model liger only\n"
    | None, _ -> ()
  in
  let model =
    Arg.(value & opt string "liger"
         & info [ "model" ] ~doc:"Model: liger, dypro, code2vec or code2seq.")
  in
  let n = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Corpus size.") in
  let epochs = Arg.(value & opt int 10 & info [ "epochs" ] ~doc:"Training epochs.") in
  let dim = Arg.(value & opt int 16 & info [ "dim" ] ~doc:"Hidden size.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let batch =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Mini-batch size: one optimizer step per $(docv) examples. Every \
                   size trains and evaluates on the batched engine; 1 runs a \
                   one-lane tape per example.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Directory to save the trained model (liger only).")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a model on a generated corpus")
    Term.(const run $ obs_term $ model $ n $ epochs $ dim $ seed $ batch $ save)

(* ---------------- predict ---------------- *)

let predict_cmd =
  let run () file model_dir seed =
    let meth = load_method file in
    let model, vocab = load_model model_dir in
    let rng = Rng.create seed in
    let result = Feedback.generate rng meth in
    if result.Feedback.gave_up then failwith "could not generate executions for this method";
    let blended = Feedback.blended meth result in
    let enc = Common.default_enc_config in
    let ex = Common.encode_example enc vocab meth blended (Common.Name meth.Ast.mname) in
    let ids = (Liger_model.predict_name_ids_batch model [| ex |]).(0) in
    let toks = List.map (Vocab.name vocab) ids in
    Printf.printf "method is named: %s\npredicted name:  %s (%s)\n" meth.Ast.mname
      (Subtoken.join toks)
      (String.concat " " toks)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let model_dir =
    Arg.(required & opt (some dir) None & info [ "model" ] ~doc:"Saved model directory.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "predict" ~doc:"Predict a method's name with a saved LiGer model")
    Term.(const run $ obs_env $ file $ model_dir $ seed)

(* ---------------- similar ---------------- *)

let similar_cmd =
  let run () file n k seed =
    let meth = load_method file in
    let rng = Rng.create seed in
    Printf.printf "building a small corpus to search against (n=%d)...\n%!" n;
    let corpus = Pipeline.build_naming rng ~name:"search" ~n in
    let wrapper, model =
      Zoo.liger ~vocab:corpus.Pipeline.vocab Liger_model.Naming
    in
    Printf.printf "training the encoder briefly...\n%!";
    let (_ : Train.history) =
      Train.fit
        ~options:{ Train.default_options with Train.epochs = 6 }
        (Rng.create (seed + 1)) wrapper ~train:corpus.Pipeline.train
        ~valid:corpus.Pipeline.valid
    in
    let idx, _ =
      Serve.Index.build ~dim:model.Liger_model.config.Liger_model.dim
        ~embed_batch:(Liger_model.embed_programs model)
        (List.map
           (fun (ex : Common.enc_example) ->
             let m = ex.Common.meth in
             (m.Ast.mname, Serve.Ast_hash.of_meth m, ex))
           corpus.Pipeline.train)
    in
    let result = Feedback.generate rng meth in
    if result.Feedback.gave_up then failwith "could not generate executions";
    let blended = Feedback.blended meth result in
    let ex =
      Common.encode_example Common.default_enc_config corpus.Pipeline.vocab meth blended
        (Common.Name meth.Ast.mname)
    in
    Printf.printf "\nmethods semantically nearest to '%s':\n" meth.Ast.mname;
    List.iter
      (fun (score, key) -> Printf.printf "  %.3f  %s\n" score key)
      (Serve.Index.nearest idx ~k (Liger_model.embed_programs model [| ex |]).(0))
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let n = Arg.(value & opt int 120 & info [ "n" ] ~doc:"Corpus size to index.") in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Neighbours to report.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "similar" ~doc:"Semantic code search: nearest programs by embedding")
    Term.(const run $ obs_env $ file $ n $ k $ seed)

(* ---------------- probe ---------------- *)

let probe_cmd =
  let run () n seed epochs probe_epochs dim out =
    let rng = Rng.create seed in
    Printf.printf "building corpus (n=%d)...\n%!" n;
    let corpus = Pipeline.build_naming rng ~name:"probe" ~n in
    let n_train, n_valid, n_test = Pipeline.sizes corpus in
    Printf.printf "corpus: %d/%d/%d\n%!" n_train n_valid n_test;
    let task = Liger_model.Naming in
    let liger_wrap, liger_model =
      Zoo.liger
        ~config:{ Liger_model.default_config with Liger_model.dim }
        ~vocab:corpus.Pipeline.vocab task
    in
    let dypro_wrap, dypro_model = Zoo.dypro ~dim ~vocab:corpus.Pipeline.vocab task in
    let train_encoder (wrap : Train.model) =
      Printf.printf "training %s encoder (%d epochs)...\n%!" wrap.Train.name epochs;
      ignore
        (Train.fit
           ~options:{ Train.default_options with Train.epochs }
           (Rng.create (seed + 1)) wrap ~train:corpus.Pipeline.train
           ~valid:corpus.Pipeline.valid)
    in
    train_encoder liger_wrap;
    train_encoder dypro_wrap;
    let probe_one emb =
      Printf.printf "probing %s (%d readout epochs per task)...\n%!" emb.Probe.e_name
        probe_epochs;
      Probe.probe ~epochs:probe_epochs (Rng.create (seed + 2)) emb
        ~train:corpus.Pipeline.train ~test:corpus.Pipeline.test
    in
    let liger_report = probe_one (Probe.of_liger liger_model) in
    let dypro_report = probe_one (Probe.of_dypro dypro_model) in
    let reports = [ liger_report; dypro_report ] in
    let table = Probe.render reports in
    print_string table;
    (* default the artifact into the per-run directory instead of the repo
       root; --out "" suppresses the file entirely *)
    (match (match out with Some p -> p | None -> Filename.concat (Obs.run_dir ()) "probe_accuracy.txt") with
    | "" -> ()
    | path ->
        let oc = open_out path in
        output_string oc table;
        close_out oc;
        Printf.printf "probe accuracy table written to %s\n" path);
    Obs.print_report ()
  in
  let n = Arg.(value & opt int 80 & info [ "n" ] ~doc:"Corpus size.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let epochs =
    Arg.(value & opt int 4 & info [ "epochs" ] ~doc:"Encoder training epochs.")
  in
  let probe_epochs =
    Arg.(value & opt int 40
         & info [ "probe-epochs" ] ~doc:"Linear-readout training epochs per task.")
  in
  let dim = Arg.(value & opt int 16 & info [ "dim" ] ~doc:"Hidden size.") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the accuracy table to $(docv) (default \
                   $(i,runs/<run-id>/probe_accuracy.txt); pass an empty string \
                   to skip the file).")
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Train linear readouts on frozen LiGer/DYPRO embeddings against exact \
             per-statement semantic labels (liveness, dominators, reachability, \
             abstract sign) and report per-task accuracy")
    Term.(const run $ obs_term $ n $ seed $ epochs $ probe_epochs $ dim $ out)

(* ---------------- experiments ---------------- *)

let experiments_cmd =
  let run () which =
    let ctx = Experiments.create_ctx () in
    ctx.Experiments.progress <- (fun s -> Printf.eprintf "  %s\n%!" s);
    let all = which = [] in
    let want x = all || List.mem x which in
    if want "table1" then Report.print_table1 (Experiments.table1 ctx);
    if want "table2" then Report.print_table2 (Experiments.table2 ctx);
    if want "table3" then Report.print_table3 (Experiments.table3 ctx);
    if want "fig6" then Report.print_fig6 (Experiments.fig6 ctx);
    if want "fig7" then Report.print_fig7 (Experiments.fig7 ctx);
    if want "fig8" then Report.print_fig8 (Experiments.fig8 ctx);
    if want "fig9" then Report.print_fig9 (Experiments.fig9 ctx);
    if want "fig10" then Report.print_fig10 (Experiments.fig10 ctx);
    if want "fig11" then Report.print_fig11 (Experiments.fig11 ctx);
    if want "attn" then Report.print_attention (Experiments.attention_report ctx);
    Obs.print_report ()
  in
  let which =
    Arg.(value & pos_all string []
         & info [] ~docv:"EXPERIMENT"
             ~doc:"Subset to run (table1 table2 table3 fig6..fig11 attn); all if empty.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the paper's evaluation (LIGER_SCALE=quick|full)")
    Term.(const run $ obs_term $ which)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let module Fuzz = Liger_fuzz.Fuzz in
  let module Oracle = Liger_fuzz.Oracle in
  let run () seed iters budget_s oracle_names replay out_dir =
    match replay with
    | Some path -> (
        match Fuzz.replay path with
        | Error msg ->
            Printf.eprintf "replay: %s\n" msg;
            exit 2
        | Ok r ->
            (match r.Fuzz.r_verdict with
            | Oracle.Fail msg ->
                Printf.printf "%s: reproduced — %s\n" r.Fuzz.r_oracle msg
            | Oracle.Pass -> Printf.printf "%s: NOT reproduced (passes)\n" r.Fuzz.r_oracle
            | Oracle.Skip msg ->
                Printf.printf "%s: NOT reproduced (skipped: %s)\n" r.Fuzz.r_oracle msg);
            Obs.print_report ();
            exit (if r.Fuzz.reproduced then 0 else 1))
    | None ->
        let oracles =
          match oracle_names with
          | [] -> Oracle.all
          | names ->
              List.map
                (fun n ->
                  match Oracle.find n with
                  | Some o -> o
                  | None ->
                      Printf.eprintf "unknown oracle %S; available: %s\n" n
                        (String.concat ", " (List.map (fun o -> o.Oracle.name) Oracle.all));
                      exit 2)
                names
        in
        let s = Fuzz.run ~oracles ~iters ?budget_s ~out_dir ~seed () in
        Printf.printf "fuzz: seed %d, %d programs, %d checks in %.1fs\n" s.Fuzz.seed
          s.Fuzz.programs s.Fuzz.checks s.Fuzz.elapsed_s;
        List.iter
          (fun (name, t) ->
            Printf.printf "  %-12s %5d pass  %3d fail  %3d skip\n" name t.Fuzz.passed
              t.Fuzz.failed t.Fuzz.skipped)
          s.Fuzz.tallies;
        List.iter
          (fun (f : Fuzz.failure) ->
            Printf.printf "FAIL %s iter %d (shrunk %d steps): %s\n  %s\n" f.Fuzz.oracle
              f.Fuzz.iter f.Fuzz.shrink_steps f.Fuzz.message
              (match f.Fuzz.artifact with Some p -> p | None -> "(not persisted)"))
          s.Fuzz.failures;
        Obs.print_report ();
        exit (if s.Fuzz.failures = [] then 0 else 1)
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master random seed.") in
  let iters =
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc:"Programs to generate.")
  in
  let budget_s =
    Arg.(value & opt (some float) None
         & info [ "budget-s" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget; stop starting new batches past it.")
  in
  let oracle_names =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:"Run only this oracle (repeatable); all seven by default.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-run the failure persisted in a corpus $(i,.json) descriptor \
                   and exit 0 iff it still fails.")
  in
  let out_dir =
    Arg.(value & opt string (Filename.concat "fuzz" "corpus")
         & info [ "out" ] ~docv:"DIR" ~doc:"Directory for failure artifacts.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generated well-typed programs vs. seven oracles \
             (roundtrip, soundness, symexec, analysis, autodiff, absint, \
             determinism)")
    Term.(const run $ obs_term $ seed $ iters $ budget_s $ oracle_names $ replay $ out_dir)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let run file file2 validate diff openmetrics threshold =
    let fail msg =
      Printf.eprintf "%s\n" msg;
      exit 1
    in
    if openmetrics then begin
      match View.openmetrics_file file with
      | Error msg -> fail msg
      | Ok text ->
          if validate then (
            match Liger_obs_view.Openmetrics_lint.lint text with
            | Ok samples -> Printf.printf "%s: OK (openmetrics, %d samples)\n" file samples
            | Error msg -> fail (Printf.sprintf "%s: %s" file msg))
          else print_string text
    end
    else if diff || file2 <> None then begin
      match file2 with
      | None -> fail "--diff needs two files: liger stats A B --diff"
      | Some b -> (
          match View.diff_files ?threshold file b with
          | Ok text -> print_string text
          | Error msg -> fail msg)
    end
    else if validate then
      match View.validate_file file with
      | Ok summary -> Printf.printf "%s: OK (%s)\n" file summary
      | Error msg -> fail msg
    else
      match View.summarize_file file with
      | Ok text -> print_string text
      | Error msg -> fail msg
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let file2 =
    Arg.(value & pos 1 (some file) None
         & info [] ~docv:"FILE2"
             ~doc:"Second file for $(b,--diff).")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Check structure only (trace events matched, metrics sections \
                   present, profile counters consistent); exit non-zero on \
                   malformed input.")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"Compare two metrics snapshots and print a delta table.  Rows \
                   whose relative change exceeds the threshold are flagged with '!'.")
  in
  let openmetrics =
    Arg.(value & flag
         & info [ "openmetrics" ]
             ~doc:"Render the snapshot (or the last line of a run ledger) in \
                   OpenMetrics/Prometheus text exposition format; with \
                   $(b,--validate), lint the exposition instead of printing it.")
  in
  let threshold =
    Arg.(value & opt (some float) None
         & info [ "threshold" ] ~docv:"FRAC"
             ~doc:"Relative-change flagging threshold for $(b,--diff) \
                   (default 0.1).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Summarize, validate or diff telemetry files (metrics snapshots, \
             run ledgers, postmortems, Chrome traces)")
    Term.(const run $ file $ file2 $ validate $ diff $ openmetrics $ threshold)

(* ---------------- top ---------------- *)

let top_cmd =
  let run target interval once =
    let resolve () =
      match target with
      | Some t when Sys.is_directory t -> Some (Filename.concat t "metrics.jsonl")
      | Some t -> Some t
      | None -> View.latest_run_ledger ()
    in
    let ledger =
      match resolve () with
      | Some l -> l
      | None ->
          Printf.eprintf "liger top: no run ledger found under %s/\n%s\n"
            (Obs.runs_root ()) (View.no_ledger_hint ());
          exit 1
    in
    let frame () =
      match View.top_frame ledger with
      | Ok text -> Some text
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          None
    in
    if once then (match frame () with Some t -> print_string t | None -> exit 1)
    else begin
      let stop = ref false in
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
      let misses = ref 0 in
      while not !stop do
        (match frame () with
        | Some t ->
            misses := 0;
            (* clear screen + home, then the frame *)
            print_string "\027[2J\027[H";
            print_string t;
            print_string (Printf.sprintf "\n(refreshing every %.1fs; ctrl-c to quit)\n" interval);
            flush stdout
        | None ->
            incr misses;
            if !misses > 5 then stop := true);
        Unix.sleepf interval
      done
    end
  in
  let target =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"RUN"
             ~doc:"Run directory or ledger file to tail; default: the most \
                   recently updated ledger under $(i,runs/).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Render a single frame and exit (no screen clearing).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live view of a training run: tail its ledger and render throughput, \
             loss, grad-norm quantiles, pool utilization, GC and bufpool \
             occupancy with per-interval deltas")
    Term.(const run $ target $ interval $ once)

(* ---------------- report ---------------- *)

let report_cmd =
  let run target compare out check =
    let load arg =
      match View.resolve_run_dir arg with
      | Error msg ->
          Printf.eprintf "liger report: %s\n" msg;
          exit 1
      | Ok dir -> (
          match View.load_report_run dir with
          | Error msg ->
              Printf.eprintf "liger report: %s\n" msg;
              exit 1
          | Ok run -> run)
    in
    let main = load target in
    let other = Option.map (fun r -> load (Some r)) compare in
    let html = Report_html.render ?other main in
    let out = match out with Some p -> p | None -> "report.html" in
    let oc = open_out_bin out in
    output_string oc html;
    close_out oc;
    Printf.printf "wrote %s (%d bytes, run %s%s)\n" out (String.length html)
      main.Report_html.label
      (match other with
      | Some o -> " vs " ^ o.Report_html.label
      | None -> "");
    if check then begin
      let findings = Obs.Health.evaluate main.Report_html.lines in
      List.iter (fun f -> print_endline (Obs.Health.render_finding f)) findings;
      if Obs.Health.healthy findings then print_endline "health: no failing rules"
      else exit 2
    end
  in
  let target =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"RUN"
             ~doc:"Run directory or run id under $(i,runs/) to render; default: \
                   the most recently updated run.")
  in
  let compare =
    Arg.(value & opt (some string) None
         & info [ "compare" ] ~docv:"RUN2"
             ~doc:"Second run to diff against: series are overlaid and the \
                   report gains a final-gauges delta table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Output file (default $(i,report.html)).")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"After writing the report, evaluate the health rules over the \
                   ledger and exit 2 if any FAIL-level finding fires (WARN \
                   findings are printed but do not fail).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a run directory (ledger, training-dynamics streams, \
             profile snapshot, probe table, postmortem) \
             into one self-contained HTML dashboard with inline SVG \
             sparklines; $(b,--compare) overlays a second run")
    Term.(const run $ target $ compare $ out $ check)

(* ---------------- serve / index / fetch ---------------- *)

(* an int flag that must be at least [lo]: a smaller value is a usage
   error, not an exception from the library it reaches *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let serve_cmd =
  let run () model_dir index_dir port port_file max_inflight batch_window_ms
      cache_capacity deadline_ms =
    let model, vocab = load_model model_dir in
    let index =
      Option.map
        (fun dir ->
          match Serve.Index.load ~dir with
          | Ok idx ->
              Printf.printf "loaded index: %d entries, dim %d\n%!"
                (Serve.Index.size idx) (Serve.Index.dim idx);
              idx
          | Error msg -> failwith (Printf.sprintf "--index %s: %s" dir msg))
        index_dir
    in
    let engine =
      Serve.Engine.create
        ~config:
          {
            Serve.Engine.default_config with
            Serve.Engine.batch_window_s = batch_window_ms /. 1000.0;
            cache_capacity;
          }
        ?index ~model ~vocab ()
    in
    let server =
      Serve.Server.start
        ~config:
          {
            Serve.Server.default_config with
            Serve.Server.port;
            max_inflight;
            default_deadline_s = deadline_ms /. 1000.0;
          }
        ~handler:(Serve.Engine.handle engine) ()
    in
    let bound = Serve.Server.port server in
    (match port_file with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Printf.fprintf oc "%d\n" bound;
        close_out oc);
    Printf.printf
      "liger serve: listening on 127.0.0.1:%d (max-inflight %d, batch window %g ms)\n"
      bound max_inflight batch_window_ms;
    Printf.printf "endpoints: POST /embed /search /suggest; GET /healthz /metrics\n%!";
    let stopping = Atomic.make false in
    let request_stop _ = Atomic.set stopping true in
    (* override the flight recorder's postmortem handler installed by
       Obs.init: for a server, TERM/INT are a clean shutdown, not a crash *)
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    while not (Atomic.get stopping) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.printf "liger serve: shutting down\n%!";
    Serve.Server.stop server;
    Serve.Engine.stop engine
    (* normal return → at_exit → Obs.flush → the run ledger's final tick *)
  in
  let model_dir =
    Arg.(required & opt (some dir) None
         & info [ "model" ] ~docv:"DIR" ~doc:"Saved model directory (see train --save).")
  in
  let index_dir =
    Arg.(value & opt (some dir) None
         & info [ "index" ] ~docv:"DIR"
             ~doc:"Embedding index directory for /search (see $(b,liger index)); \
                   without it /search answers 503.")
  in
  let port =
    Arg.(value & opt int 8080
         & info [ "port" ] ~docv:"N"
             ~doc:"TCP port on 127.0.0.1; 0 asks the kernel for a free one \
                   (see --port-file).")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound port number to $(docv) once listening \
                   (for scripts using --port 0).")
  in
  let max_inflight =
    Arg.(value & opt (int_at_least 1) 8
         & info [ "max-inflight" ] ~docv:"K"
             ~doc:"Admission cap: over $(docv) concurrently handled requests, \
                   answer 429 with Retry-After instead of queueing.")
  in
  let batch_window_ms =
    Arg.(value & opt float 2.0
         & info [ "batch-window-ms" ] ~docv:"W"
             ~doc:"Coalescing window: concurrent embed/suggest requests arriving \
                   within $(docv) ms share one batched forward.")
  in
  let cache_capacity =
    Arg.(value & opt (int_at_least 1) 512
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"AST-hash-keyed LRU embedding cache entries.")
  in
  let deadline_ms =
    Arg.(value & opt float 30000.0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline (clients override per request \
                   with the X-Deadline-Ms header); expired requests answer 408.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve embeddings over HTTP: batched /embed, index-backed /search, \
             /suggest, /healthz and OpenMetrics /metrics, with request \
             coalescing, an AST-hash LRU cache, bounded-inflight backpressure \
             and per-request deadlines")
    Term.(const run $ obs_term $ model_dir $ index_dir $ port $ port_file
          $ max_inflight $ batch_window_ms $ cache_capacity $ deadline_ms)

let index_cmd =
  let run () model_dir out files generate seed =
    let model, vocab = load_model model_dir in
    let dim = model.Liger_model.config.Liger_model.dim in
    let from_files =
      List.concat_map (fun path -> Parser.methods_of_string (read_file path)) files
    in
    let generated =
      if generate = 0 then []
      else
        Javagen.generate (Rng.create seed) ~n:generate
        |> List.map (fun (it : Javagen.item) -> it.Javagen.candidate.Filter.meth)
    in
    let items =
      List.filter_map
        (fun (m : Ast.meth) ->
          match Typecheck.check m with
          | Error e ->
              Printf.eprintf "skipping %s: type error at line %d: %s\n" m.Ast.mname
                e.Typecheck.line e.Typecheck.msg;
              None
          | Ok () -> (
              let hash = Serve.Ast_hash.of_meth m in
              match Serve.Engine.encode_method ~vocab m hash with
              | Ok ex -> Some (m.Ast.mname, hash, ex)
              | Error (_, msg) ->
                  Printf.eprintf "skipping %s: %s\n" m.Ast.mname msg;
                  None))
        (from_files @ generated)
    in
    if items = [] then `Error (false, "nothing to index (no FILES and --generate 0?)")
    else begin
      (* content-addressing: an existing index under --out seeds vector reuse *)
      let previous =
        match Serve.Index.load ~dir:out with Ok t -> Some t | Error _ -> None
      in
      let idx, report =
        Serve.Index.build ~dim ?previous
          ~embed_batch:(fun exs -> Liger_model.embed_programs model exs)
          items
      in
      Serve.Index.save idx ~dir:out;
      Printf.printf "index %s: %d entries (embedded %d, reused %d)\n" out
        (Serve.Index.size idx) report.Serve.Index.embedded report.Serve.Index.reused;
      `Ok ()
    end
  in
  let model_dir =
    Arg.(required & opt (some dir) None
         & info [ "model" ] ~docv:"DIR" ~doc:"Saved model directory (see train --save).")
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Index directory; an existing index there seeds \
                   content-addressed reuse (unchanged methods keep their vectors).")
  in
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"MiniJava source files to index (all methods).")
  in
  let generate =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "generate" ] ~docv:"N"
             ~doc:"Also index $(docv) generated corpus methods (deterministic in \
                   --seed).")
  in
  let seed = Arg.(value & opt int 9 & info [ "seed" ] ~doc:"Generator seed.") in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Build or refresh the content-addressed embedding index behind \
             serve's /search: methods are keyed by AST hash, so rebuilding over \
             an edited corpus re-embeds only what changed")
    Term.(ret (const run $ obs_term $ model_dir $ out $ files $ generate $ seed))

let fetch_cmd =
  let run url data lint =
    let strip p s =
      if String.length s >= String.length p && String.sub s 0 (String.length p) = p
      then String.sub s (String.length p) (String.length s - String.length p)
      else s
    in
    let rest = strip "http://" url in
    let host_port, path =
      match String.index_opt rest '/' with
      | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "/")
    in
    (* the client only speaks loopback; the host part merely carries the port *)
    let port =
      match String.index_opt host_port ':' with
      | Some i ->
          int_of_string (String.sub host_port (i + 1) (String.length host_port - i - 1))
      | None -> 80
    in
    let body = Option.map read_file data in
    let meth = match body with Some _ -> "POST" | None -> "GET" in
    let resp = Serve.Client.request ~meth ?body ~port path in
    (if lint then
       match Liger_obs_view.Openmetrics_lint.lint resp.Serve.Client.body with
       | Ok samples -> Printf.printf "openmetrics: OK (%d samples)\n" samples
       | Error msg ->
           Printf.eprintf "openmetrics: %s\n" msg;
           exit 1
     else print_string resp.Serve.Client.body);
    if resp.Serve.Client.status >= 400 then begin
      Printf.eprintf "HTTP %d\n" resp.Serve.Client.status;
      exit 1
    end
  in
  let url = Arg.(required & pos 0 (some string) None & info [] ~docv:"URL") in
  let data =
    Arg.(value & opt (some file) None
         & info [ "data" ] ~docv:"FILE" ~doc:"POST the contents of $(docv) as the body.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint-openmetrics" ]
             ~doc:"Instead of printing the body, lint it as OpenMetrics text \
                   exposition and exit non-zero if malformed.")
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:"Minimal dependency-free HTTP client for 127.0.0.1 (scripting against \
             $(b,liger serve): exits non-zero on HTTP errors)")
    Term.(const run $ url $ data $ lint)

let () =
  Obs.init_logging ();
  let doc = "Blended, precise semantic program embeddings (LiGer, PLDI 2020)" in
  let info = Cmd.info "liger" ~version:"1.0.0" ~doc in
  (* ~catch:false: an uncaught exception must reach the flight recorder's
     uncaught-exception handler (postmortem dump) instead of cmdliner's
     catch-all pretty-printer *)
  exit
    (Cmd.eval ~catch:false
       (Cmd.group info
          [ trace_cmd; analyze_cmd; paths_cmd; dataset_cmd; train_cmd; predict_cmd;
            similar_cmd; probe_cmd; experiments_cmd; stats_cmd; top_cmd; report_cmd;
            fuzz_cmd; serve_cmd; index_cmd; fetch_cmd ]))
