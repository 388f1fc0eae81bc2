(** The shared training loop.

    Every model (LiGer, its ablations, DYPRO, code2vec, code2seq) is wrapped
    in a {!model} record and trained identically: Adam, gradient clipping,
    shuffled epochs, validation after each epoch, and the best-validation
    parameters restored at the end — the standard protocol at this scale.
    The paper trains with Adam at default rates on V100s; we keep the
    optimizer family and shrink everything else. *)

open Liger_tensor
open Liger_core
module Obs = Liger_obs.Obs
module Dynamics = Liger_obs.Dynamics
module Health = Liger_obs.Health

type prediction = Subtokens of string list | Class of int

(** Mini-batch hooks on the {!Batched} engine.  {!fit} takes one
    optimizer step per chunk of [options.batch_size] examples on the
    averaged per-example losses, and {!predictions} runs one forward pass
    per chunk; batch size 1 is a one-lane tape.  Every model {!fit} and
    {!predictions} accept must have them. *)
type batched = {
  train_loss_batch : Batched.tape -> Common.enc_example array -> Batched.node;
      (* G examples -> G×1 per-example losses *)
  predict_batch : Common.enc_example array -> prediction array;
}

type model = {
  name : string;
  store : Param.store;
  train_loss : Batched.tape -> Common.enc_example -> Batched.node;
      (* one example's 1×1 loss: the one-lane [train_loss_batch]; [fit]
         does not use it *)
  batched : batched option;  (* required by [fit] and [predictions] *)
  embed : (Common.enc_example array -> float array array) option;
      (* program embeddings, one forward per call; enables the dynamics
         drift probe (models without a single-vector embedding leave it
         [None]) *)
}

(** The model record over its batched hooks. *)
let make ~name ~store ?embed hooks =
  {
    name;
    store;
    train_loss = (fun tape ex -> hooks.train_loss_batch tape [| ex |]);
    batched = Some hooks;
    embed;
  }

type options = {
  epochs : int;
  lr : float;
  clip : float;
  eval_every : int;  (* validate every k epochs (and always the last one) *)
  batch_size : int;  (* examples per optimizer step; 1 = one-lane tapes *)
}

let default_options =
  { epochs = 8; lr = 3e-3; clip = 5.0; eval_every = 1; batch_size = 1 }

(* snapshot / restore parameter values (best-epoch selection) *)
let snapshot store =
  Param.fold store ~init:[] (fun acc p ->
      (p.Param.name, Tensor.to_array p.Param.value) :: acc)

let restore store snap =
  List.iter
    (fun (name, data) ->
      let p = Param.find store name in
      Tensor.blit_from_array data p.Param.value)
    snap

let gold_of (ex : Common.enc_example) =
  match ex.Common.label with
  | Common.Name n -> Subtokens (Liger_lang.Subtoken.split n)
  | Common.Class c -> Class c

(* split [l] into arrays of at most [n] elements, preserving order *)
let chunk_list n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      let k = Stdlib.min n (len - off) in
      go (off + k) (Array.sub arr off k :: acc)
  in
  go 0 []

(* every model trains and predicts through its batched hooks *)
let batched_hooks model =
  match model.batched with
  | Some b -> b
  | None -> invalid_arg ("Train: model " ^ model.name ^ " has no batched hooks")

(** Prediction/gold pairs over a split, in input order.  Chunks of
    [?batch] examples (default 1: one-lane tapes) each run one forward
    pass, on the {!Liger_parallel.Parallel} pool. *)
let predictions ?(batch = 1) model examples =
  Obs.Span.with_ ~name:"train.predictions"
    ~args:(fun () ->
      [ ("model", model.name); ("n", string_of_int (List.length examples)) ])
  @@ fun () ->
  let b = batched_hooks model in
  chunk_list (Stdlib.max 1 batch) examples
  |> Liger_parallel.Parallel.map_list (fun chunk ->
         Array.to_list
           (Array.map2 (fun p ex -> (p, gold_of ex)) (b.predict_batch chunk) chunk))
  |> List.concat

(** The scalar score used for model selection: sub-token F1 for naming,
    accuracy for classification. *)
let score ?batch model examples =
  let pairs = predictions ?batch model examples in
  let names =
    List.filter_map
      (function Subtokens p, Subtokens a -> Some (p, a) | _ -> None)
      pairs
  in
  let classes =
    List.filter_map (function Class p, Class a -> Some (p, a) | _ -> None) pairs
  in
  match (names, classes) with
  | [], [] -> 0.0
  | [], cs -> Metrics.accuracy cs
  | ns, _ -> (Metrics.name_prf ns).Metrics.f1

type history = {
  train_losses : float list;  (* mean loss per epoch *)
  valid_scores : float list;
  epoch_times : float list;   (* wall-clock seconds per epoch *)
  best_epoch : int;
  skipped_steps : int;  (* updates skipped because gradients were non-finite *)
  vacuous_best : bool;  (* [valid] was empty: every epoch scored 0.0 and tied,
                           so best-epoch selection carried no information *)
}

(** Forward and backward of one optimizer step's chunk on a fresh tape:
    the gradient of the chunk's mean loss accumulates into the model's
    parameters.  Returns the per-example losses. *)
let backward_chunk hooks chunk =
  let btape = Batched.tape () in
  let per_ex = hooks.train_loss_batch btape chunk in
  Obs.Metrics.gauge "train.tape_nodes" (float_of_int (Batched.length btape));
  let losses = Array.init (Array.length chunk) (fun g -> Tensor.get (Batched.value per_ex) g 0) in
  let mean =
    Batched.scale btape (1.0 /. float_of_int (Array.length chunk)) (Batched.sum_all btape per_ex)
  in
  Batched.backward btape mean;
  losses

let fit_inner ~options ~hooks rng model ~train ~valid =
  Obs.Span.with_ ~name:"train.fit" ~args:(fun () -> [ ("model", model.name) ])
  @@ fun () ->
  let opt = Optimizer.adam ~lr:options.lr () in
  let examples = Array.of_list train in
  let vacuous = valid = [] in
  if vacuous then
    (* silently "selecting" among all-zero tied scores is exactly the
       failure mode worth hearing about *)
    Logs.warn (fun m ->
        m "[%s] validation set is empty; best-epoch selection is vacuous (the \
           last evaluated epoch is kept)"
          model.name);
  (* the untrained model's score is the selection baseline; with no
     validation data there is nothing to measure, so pin it to 0.0 rather
     than calling [score] on an empty list *)
  let best = ref (if vacuous then 0.0 else score ~batch:options.batch_size model valid) in
  let best_snap = ref (snapshot model.store) in
  let best_epoch = ref 0 in
  let losses = ref [] and scores = ref [] and times = ref [] in
  let skipped = ref 0 in
  (* dynamics drift probe: a frozen set of up to 16 examples (validation
     preferred — the probe should not move just because it was trained on)
     re-embedded in one forward after every epoch to measure
     embedding-space drift *)
  let probe =
    match model.embed with
    | Some _ when Dynamics.on () ->
        let src = if vacuous then train else valid in
        Array.of_list (List.filteri (fun i _ -> i < 16) src)
    | _ -> [||]
  in
  let observe_probe () =
    match model.embed with
    | Some embed when Dynamics.on () && Array.length probe >= 2 ->
        Dynamics.observe_embeddings ~id:model.name (embed probe)
    | _ -> ()
  in
  (* leave a breadcrumb per firing health rule so a postmortem shows when
     training went bad, not just that it did *)
  let record_health epoch =
    if Dynamics.on () && Obs.Metrics.enabled () then
      List.iter
        (fun (f : Health.finding) ->
          Liger_obs.Recorder.note
            ~detail:
              (Printf.sprintf "epoch %d %s: %s" epoch f.Health.subject f.Health.detail)
            ("health." ^ f.Health.rule))
        (Health.check_snapshot (Liger_obs.Metrics.snapshot ()))
  in
  for epoch = 1 to options.epochs do
    Obs.Span.with_ ~name:"train.epoch"
      ~args:(fun () ->
        [ ("model", model.name); ("epoch", string_of_int epoch) ])
    @@ fun () ->
    Obs.failpoint "train.epoch";
    let t0 = Unix.gettimeofday () in
    Rng.shuffle rng examples;
    let total = ref 0.0 in
    let clip_and_step () =
      let norm = Optimizer.clip_grads model.store ~max_norm:options.clip in
      if Float.is_finite norm then begin
        Obs.Metrics.observe "train.grad_norm" norm;
        Optimizer.step opt model.store
      end
      else begin
        (* clip_grads zeroed the poisoned gradients; skip the update so a
           single NaN cannot reach Adam's moment estimates *)
        incr skipped;
        Obs.Metrics.incr "train.skipped_steps"
      end
    in
    (* one Adam step per chunk on the mean of the per-example losses (at
       batch size 1, a one-lane tape per example); [total] accumulates
       per-example losses so the reported mean loss does not depend on the
       batch size *)
    let n = Array.length examples in
    let bs = Stdlib.max 1 options.batch_size in
    let off = ref 0 in
    while !off < n do
      let len = Stdlib.min bs (n - !off) in
      let chunk = Array.sub examples !off len in
      off := !off + len;
      Array.iter (fun l -> total := !total +. l) (backward_chunk hooks chunk);
      clip_and_step ()
    done;
    let mean_loss =
      if Array.length examples = 0 then 0.0
      else !total /. float_of_int (Array.length examples)
    in
    losses := mean_loss :: !losses;
    let dt = Unix.gettimeofday () -. t0 in
    times := dt :: !times;
    Obs.Metrics.fadd "train.epoch_seconds" ~labels:[ ("model", model.name) ] dt;
    Obs.Metrics.gauge "train.loss" ~labels:[ ("model", model.name) ] mean_loss;
    (* a NaN/inf *loss* means the forward pass itself is poisoned (the
       skipped-step guard only covers non-finite gradients under a finite
       loss); training past it would silently optimize garbage, so abort —
       the wrapper in [fit] dumps the flight recorder on the way out *)
    if not (Float.is_finite mean_loss) then
      failwith
        (Printf.sprintf "Train.fit: non-finite training loss (%s, epoch %d)" model.name
           epoch);
    (* throughput gauges (latest epoch wins): examples/s, sub-tokens/s over
       the naming labels, and a mean-epoch-time ETA for the remaining work *)
    if Obs.Metrics.enabled () then begin
      let labels = [ ("model", model.name) ] in
      let n = Array.length examples in
      (if dt > 0.0 then begin
         let subtoks =
           Array.fold_left
             (fun acc (ex : Common.enc_example) ->
               match ex.Common.label with
               | Common.Name name -> acc + List.length (Liger_lang.Subtoken.split name)
               | Common.Class _ -> acc)
             0 examples
         in
         Obs.Metrics.gauge "train.examples_per_second" ~labels (float_of_int n /. dt);
         Obs.Metrics.gauge "train.subtokens_per_second" ~labels
           (float_of_int subtoks /. dt)
       end);
      let done_epochs = List.length !times in
      let mean_epoch =
        List.fold_left ( +. ) 0.0 !times /. float_of_int (max 1 done_epochs)
      in
      Obs.Metrics.gauge "train.eta_seconds" ~labels
        (mean_epoch *. float_of_int (options.epochs - epoch))
    end;
    observe_probe ();
    record_health epoch;
    if epoch mod options.eval_every = 0 || epoch = options.epochs then begin
      let v = if vacuous then 0.0 else score ~batch:options.batch_size model valid in
      scores := v :: !scores;
      Obs.Metrics.gauge "train.valid_score" ~labels:[ ("model", model.name) ] v;
      (* >= not >: [best] starts at the untrained model's score, so on a
         validation plateau a strict comparison would keep the untrained
         snapshot and discard every trained epoch *)
      if v >= !best then begin
        best := v;
        best_snap := snapshot model.store;
        best_epoch := epoch
      end
    end
  done;
  restore model.store !best_snap;
  {
    train_losses = List.rev !losses;
    valid_scores = List.rev !scores;
    epoch_times = List.rev !times;
    best_epoch = !best_epoch;
    skipped_steps = !skipped;
    vacuous_best = vacuous;
  }

(** Train [model] on [train], selecting the epoch with the best score on
    [valid].

    Any exception escaping the training loop (including the non-finite
    loss abort and injected failpoints) dumps the flight recorder to the
    run directory before propagating, so a crashed run always leaves its
    last spans and a final metrics snapshot behind.  A model without
    batched hooks is rejected with [Invalid_argument] before training. *)
let fit ?(options = default_options) rng model ~train ~valid =
  let hooks = batched_hooks model in
  try fit_inner ~options ~hooks rng model ~train ~valid
  with e ->
    Obs.crash_dump ~reason:("train.fit: " ^ Printexc.to_string e) ();
    raise e

(* ---------------- evaluation summaries ---------------- *)

type naming_result = { prf : Metrics.prf }
type classify_result = { acc : float; f1 : float }

let eval_naming ?batch model examples =
  let pairs =
    predictions ?batch model examples
    |> List.filter_map (function Subtokens p, Subtokens a -> Some (p, a) | _ -> None)
  in
  { prf = Metrics.name_prf pairs }

let eval_classify ?batch model examples =
  let pairs =
    predictions ?batch model examples
    |> List.filter_map (function Class p, Class a -> Some (p, a) | _ -> None)
  in
  { acc = Metrics.accuracy pairs; f1 = Metrics.macro_f1 pairs }
