(** Workload [train]: LiGer at batch 16 on the [Batched] engine for a
    fixed number of epochs, then LiGer, DYPRO, code2seq and code2vec for
    one epoch each on the batch-1 [Autodiff] path that [Experiments] and
    [liger train] use by default, all on one domain, over a corpus built
    during set-up. *)

open Liger_tensor
module Pipeline = Liger_dataset.Pipeline
module Train = Liger_eval.Train
module Zoo = Liger_eval.Zoo
module Common = Liger_core.Common
module Liger_model = Liger_core.Liger_model

type config = { label : string; batch : int; epochs : int; make : Pipeline.corpus -> Train.model }

let naming = Liger_model.Naming

let configs =
  [
    { label = "liger_b16"; batch = 16; epochs = 3;
      make = (fun c -> fst (Zoo.liger ~vocab:c.Pipeline.vocab naming)) };
    { label = "liger_b1"; batch = 1; epochs = 1;
      make = (fun c -> fst (Zoo.liger ~vocab:c.Pipeline.vocab naming)) };
    { label = "dypro_b1"; batch = 1; epochs = 1;
      make = (fun c -> fst (Zoo.dypro ~vocab:c.Pipeline.vocab naming)) };
    { label = "code2seq_b1"; batch = 1; epochs = 1;
      make = (fun c -> Zoo.code2seq ~train:c.Pipeline.train naming) };
    { label = "code2vec_b1"; batch = 1; epochs = 1;
      make = (fun c -> Zoo.code2vec ~train:c.Pipeline.train naming) };
  ]

type fit = {
  cfg : config;
  examples : int;  (* training examples processed: train split x epochs *)
  train_s : float;  (* the epochs' training time, validation excluded *)
  epoch_s : float list;  (* the same, per epoch *)
  losses : float list;
  model : Train.model;
}

(** Train one configuration from fresh parameters through [Train.fit],
    validating only after the last epoch.  [Error] carries why the fit
    failed: [Train.fit] raises on a non-finite epoch loss. *)
let fit ~seed (c : Pipeline.corpus) cfg =
  let model = cfg.make c in
  match
    Train.fit
      ~options:
        { Train.default_options with Train.epochs = cfg.epochs; batch_size = cfg.batch;
          eval_every = cfg.epochs }
      (Rng.create seed) model ~train:c.Pipeline.train ~valid:c.Pipeline.valid
  with
  | exception Failure msg -> Error (Printf.sprintf "%s: %s" cfg.label msg)
  | h ->
      Ok
        {
          cfg;
          examples = List.length c.Pipeline.train * cfg.epochs;
          train_s = List.fold_left ( +. ) 0.0 h.Train.epoch_times;
          epoch_s = h.Train.epoch_times;
          losses = h.Train.train_losses;
          model;
        }

(** Why a fit's output is wrong, if it is: every epoch has a finite
    training loss, and a configuration trained for several epochs ends
    with a lower training loss than its first epoch had. *)
let check_fit = function
  | Error msg -> [ msg ]
  | Ok f ->
      let label = f.cfg.label in
      if not (List.for_all Float.is_finite f.losses && List.length f.losses = f.cfg.epochs) then
        [ label ^ ": non-finite or missing epoch loss" ]
      else
        match (f.losses, List.rev f.losses) with
        | first :: _ :: _, last :: _ when not (last < first) ->
            [ Printf.sprintf "%s: training loss did not fall (epoch 1 %.4f, epoch %d %.4f)" label first
                f.cfg.epochs last ]
        | _ -> []

(** Warm-up: one short fit of every configuration, so the first timed
    fit does not pay first-use costs (the first fit in a process runs
    markedly slower than later ones). *)
let warm_up (c : Pipeline.corpus) =
  let small = { c with Pipeline.train = List.filteri (fun i _ -> i < 8) c.Pipeline.train;
                       valid = List.filteri (fun i _ -> i < 4) c.Pipeline.valid } in
  List.iter (fun cfg -> ignore (fit ~seed:1 small { cfg with epochs = 1 })) configs

(* ---------------- the traced step loop ---------------- *)

(** One configuration trained by the benchmark's own copy of the
    [Train.fit] step loop (shuffle, forward, backward, clip, Adam step),
    with a span around each stage, then validated once.  Returns the tape
    nodes recorded and the optimizer steps taken. *)
let traced_fit ~seed (c : Pipeline.corpus) cfg =
  let model = cfg.make c in
  let span stage f = Tracing.span (stage ^ "/" ^ cfg.label) f in
  let opt = Optimizer.adam ~lr:Train.default_options.Train.lr () in
  let clip_and_step () =
    span "tensor.optimizer" (fun () ->
        let norm = Optimizer.clip_grads model.Train.store ~max_norm:Train.default_options.Train.clip in
        if Float.is_finite norm then Optimizer.step opt model.Train.store)
  in
  let rng = Rng.create seed in
  let examples = Array.of_list c.Pipeline.train in
  let nodes = ref 0 and steps = ref 0 in
  for _ = 1 to cfg.epochs do
    Rng.shuffle rng examples;
    match model.Train.batched with
    | Some b when cfg.batch > 1 ->
        let n = Array.length examples in
        let off = ref 0 in
        while !off < n do
          let len = min cfg.batch (n - !off) in
          let chunk = Array.sub examples !off len in
          off := !off + len;
          let btape = Batched.tape () in
          let mean =
            span "core.forward" (fun () ->
                let per_ex = b.Train.train_loss_batch btape chunk in
                Batched.scale btape (1.0 /. float_of_int len) (Batched.sum_all btape per_ex))
          in
          nodes := !nodes + Batched.length btape;
          incr steps;
          span "tensor.backward" (fun () -> Batched.backward btape mean);
          clip_and_step ()
        done
    | _ ->
        Array.iter
          (fun ex ->
            let tape = Autodiff.tape () in
            let loss = span "core.forward" (fun () -> model.Train.train_loss tape ex) in
            nodes := !nodes + Autodiff.length tape;
            incr steps;
            span "tensor.backward" (fun () -> Autodiff.backward tape loss);
            clip_and_step ())
          examples
  done;
  ignore (span "eval.validate" (fun () -> Train.score ~batch:cfg.batch model c.Pipeline.valid));
  (!nodes, !steps)

(* ---------------- the workload ---------------- *)

let corpus_of ~seed =
  let rng = Rng.create seed in
  (* set-up, so the corpus build may use both cores *)
  Liger_parallel.Parallel.set_jobs 2;
  let r =
    Corpus_wl.build_round rng
      (Inputs.stratum ~project:Inputs.mostly_train rng ~tpls:(List.init Inputs.n_templates Fun.id)
         ~broken:Inputs.broken_per_round ~tiny:Inputs.tiny_per_round ~external_:Inputs.external_per_round)
  in
  if r.Corpus_wl.problems <> [] then failwith (String.concat "; " r.Corpus_wl.problems);
  let n_train, n_valid, n_test = Pipeline.sizes r.Corpus_wl.corpus in
  Printf.eprintf "train corpus: %d/%d/%d examples\n%!" n_train n_valid n_test;
  r.Corpus_wl.corpus

(** Cycles of every configuration, each from fresh parameters, until
    [seconds] have passed; one result per fit. *)
let cycles ~seed c ~seconds =
  let acc = ref [] and t0 = Outcome.now () in
  while Outcome.now () -. t0 < seconds do
    acc := List.map (fit ~seed c) configs :: !acc
  done;
  List.rev !acc

let median xs = if xs = [||] then Float.nan else Perfbench.Stats.median xs

(** Examples per second of one cycle of every configuration, each epoch
    taken at its configuration's median epoch time: a burst of
    interference from outside the program moves one epoch, not the
    figure. *)
let typical_rate fits =
  let by_cfg = List.map (fun cfg -> (cfg, List.filter (fun f -> f.cfg.label = cfg.label) fits)) configs in
  let examples, seconds =
    List.fold_left
      (fun (e, s) (cfg, fs) ->
        match fs with
        | [] -> (e, s)
        | f :: _ ->
            let epoch = median (Array.of_list (List.concat_map (fun f -> f.epoch_s) fs)) in
            (e + f.examples, s +. (float_of_int cfg.epochs *. epoch)))
      (0, 0.0) by_cfg
  in
  float_of_int examples /. seconds

(** Median time per training example of LiGer at batch 1, the path
    [liger train] takes by default. *)
let per_example_s fits =
  median
    (Array.of_list
       (List.concat_map
          (fun f ->
            let n = float_of_int (f.examples / f.cfg.epochs) in
            if f.cfg.label = "liger_b1" then List.map (fun e -> e /. n) f.epoch_s else [])
          fits))

(** Median over the LiGer batch-16 fits of the last epoch's training loss
    over the first's: lower means more learnt in the same epochs. *)
let loss_ratio fits =
  median
    (Array.of_list
       (List.filter_map
          (fun f ->
            match (f.cfg.label, f.losses, List.rev f.losses) with
            | "liger_b16", first :: _, last :: _ -> Some (last /. first)
            | _ -> None)
          fits))

(* the profiler's layers that the five models use *)
let profile_layers = [ "attention"; "decoder"; "embedding"; "linear"; "rnn_cell"; "treelstm" ]

(** Per-layer metrics: every configuration once through {!traced_fit}
    with spans off, then again with spans and the model profiler on (the
    difference is the tracing overhead). *)
let layers ~seed c ~untraced =
  let module P = Liger_obs.Profile in
  let t0 = Outcome.now () in
  List.iter (fun cfg -> ignore (traced_fit ~seed c cfg)) configs;
  let untraced_wall = Outcome.now () -. t0 in
  P.reset ();
  P.enable ();
  Tracing.start ();
  Liger_tensor.Bufpool.publish ();
  let snap0 = Liger_obs.Metrics.snapshot () in
  let gc0 = Gc.quick_stat () in
  let t0 = Outcome.now () in
  let per_cfg = List.map (fun cfg -> (cfg, traced_fit ~seed c cfg)) configs in
  let wall = Outcome.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  Liger_tensor.Bufpool.publish ();
  let snap = Liger_obs.Metrics.snapshot () in
  let agg = Tracing.aggregate () in
  let covered = Tracing.covered () in
  Tracing.stop ();
  let prof = P.snapshot () in
  P.disable ();
  let n_train = List.length c.Pipeline.train in
  let examples = List.fold_left (fun a (cfg, _) -> a + (cfg.epochs * n_train)) 0 per_cfg in
  (* bufpool publishes cumulative per-domain gauges *)
  let gauge_sum snap name =
    List.fold_left
      (fun a (e : Liger_obs.Metrics.entry) ->
        match e.Liger_obs.Metrics.e_value with Liger_obs.Metrics.G x -> a +. x | _ -> a)
      0.0 (Liger_obs.Metrics.entries_with snap name)
  in
  let hits = gauge_sum snap "bufpool.hits" -. gauge_sum snap0 "bufpool.hits"
  and misses = gauge_sum snap "bufpool.misses" -. gauge_sum snap0 "bufpool.misses" in
  (* stage spans never nest in one another, but the profiler samples
     layer spans inside them, so a stage's time is its spans' total *)
  let cfg_metrics =
    List.concat_map
      (fun (cfg, (nodes, steps)) ->
        let s stage = (agg (stage ^ "/" ^ cfg.label)).Tracing.total_s in
        let untraced_rate =
          typical_rate (List.filter (fun f -> f.cfg.label = cfg.label) (List.concat untraced))
        in
        [
          (Printf.sprintf "train.%s.examples_per_s" cfg.label, untraced_rate);
          (Printf.sprintf "core.%s.forward_s" cfg.label, s "core.forward");
          (Printf.sprintf "tensor.%s.backward_s" cfg.label, s "tensor.backward");
          (Printf.sprintf "tensor.%s.optimizer_s" cfg.label, s "tensor.optimizer");
          (Printf.sprintf "tensor.%s.tape_nodes_per_step" cfg.label,
            float_of_int nodes /. float_of_int (max 1 steps));
          (Printf.sprintf "eval.%s.validate_s" cfg.label, s "eval.validate");
        ])
      per_cfg
  in
  let nn =
    List.map
      (fun layer ->
        let st = List.find_opt (fun (l : P.layer_stat) -> l.P.layer_name = layer) prof.P.layers in
        ( Printf.sprintf "nn.%s.self_s" layer,
          match st with Some l -> l.P.fwd_self_s +. l.P.bwd_s | None -> 0.0 ))
      profile_layers
  in
  cfg_metrics @ nn
  @ [
      ("tensor.flops", P.total_flops prof);
      ("tensor.bytes", List.fold_left (fun a (o : P.op_stat) -> a +. o.P.bytes) 0.0 prof.P.ops);
      ("tensor.bufpool_hit_frac", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("gc.minor_words_per_example", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 examples));
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      (* sub-token F1 on the validation split reads 0 at this scale, so
         quality is followed through the training loss *)
      ("quality.loss_ratio", loss_ratio (List.concat untraced));
      ("trace_overhead_frac", (wall /. untraced_wall) -. 1.0);
      ("trace.unaccounted_frac", 1.0 -. (covered /. wall));
      ("mem.peak_rss_mb", Outcome.peak_rss_mb "self");
    ]

let run ~seed ~seconds ~trace =
  let setup_s, corpus =
    Outcome.repeated_setup ~k:(if trace then 1 else 3) ~teardown:ignore (fun () ->
        let c = corpus_of ~seed in
        Liger_parallel.Parallel.set_jobs 1;
        warm_up c;
        c)
  in
  let timed = cycles ~seed:(seed + 1) corpus ~seconds:(if trace then seconds /. 2.0 else seconds) in
  let results = List.concat timed in
  let problems = List.concat_map check_fit results in
  let failed = List.length (List.filter (fun r -> check_fit r <> []) results) in
  (* only fits that completed have times to report *)
  let fits = List.filter_map Result.to_option results in
  {
    Outcome.problems;
    attempted = List.length results;
    failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput_per_s", typical_rate fits);
        ("latency_p50_ms", Outcome.ms (per_example_s fits));
        ("ok_frac", float_of_int (List.length results - failed) /. float_of_int (List.length results));
      ];
    layers =
      (if trace then layers ~seed:(seed + 1) corpus ~untraced:(List.map (List.filter_map Result.to_option) timed)
       else []);
  }
