(** Training-dynamics instrumentation: per-layer gradient flow,
    activation saturation, attention entropy, and embedding-space drift.

    Everything here publishes through the {!Metrics} registry, so the
    streams flow into the run ledger, [liger top], and the OpenMetrics
    exposition for free.  Like the rest of the telemetry layer the module
    is disabled by default and follows the one-branch-when-disabled
    contract: every recording entry point checks one atomic flag first,
    and the hooks in the tensor/nn/eval layers guard their argument
    computation behind {!on} so a run with dynamics off pays one branch
    per hook and allocates nothing.

    Metric names (all under the [dynamics.] prefix):

    - [dynamics.layer_grad_norm{layer=...}] — pre-clip L2 gradient norm
      per parameter group, recorded by {!Liger_tensor.Optimizer.clip_grads}.
      A group is a parameter name minus its final [.suffix]
      (["enc.gates.w"] and ["enc.gates.b"] both land in ["enc.gates"]).
    - [dynamics.layer_update_ratio{layer=...}] — ‖Δw‖/‖w‖ of the exact
      update applied by {!Liger_tensor.Optimizer.step} (Adam or SGD).
    - [dynamics.saturation{act=...,layer=...}] /
      [dynamics.dead_units{act=...,layer=...}] — fraction of saturated
      activations and of dead output units, sampled from the fused
      tanh/sigmoid batched nodes (every {!sample_every}-th call) and
      labelled with the outermost {!Profile.with_layer} frame.
    - [dynamics.attention_entropy] — histogram of per-lane attention
      weight entropies in nats.
    - [dynamics.embed_drift{model=...}] / [dynamics.nn_churn{model=...}]
      — epoch-over-epoch mean cosine drift of a frozen probe set, and
      the fraction of each probe's nearest neighbors that changed. *)

(* The enablement flag is this module's bit in the profiler's subscriber
   word, so turning dynamics on also makes the nn layers push their
   {!Profile.with_layer} frames, even with profiling off. *)
let on () = Profile.subscribed Profile.dynamics
let enable () = Profile.set_subscribed Profile.dynamics true
let disable () = Profile.set_subscribed Profile.dynamics false

(* ---------------- layer attribution ---------------- *)

(** The outermost layer scope's name, or ["?"] outside any.  The fused
    activation nodes live in [Batched], which knows nothing about the nn
    layer invoking it.  Outermost because nested frames only add detail
    the metric labels don't want: a decoder's bridge projection runs a
    ["linear"] frame inside the ["decoder"] one, and the sample should
    attribute to the decoder, not to the generic linear primitive it
    happens to route through. *)
let current_layer () = Option.value (Profile.outermost_layer ()) ~default:"?"

(* ---------------- activation sampling ---------------- *)

(** Saturation is sampled, not exhaustive: one fused activation call in
    [sample_every] is scanned (recurrent models create one fused node per
    token per step, and scanning each would double the activation cost). *)
let sample_every = 16

let sample_ctr = Atomic.make 0

(** True on every [sample_every]-th call (global, cross-domain). *)
let should_sample () = Atomic.fetch_and_add sample_ctr 1 land (sample_every - 1) = 0

(** [record_saturation ~act ~saturated ~total ~dead ~units] publishes one
    activation sample: [saturated]/[total] elements past the saturation
    threshold and [dead]/[units] output columns dead across every lane,
    attributed to the outermost layer scope ({!current_layer}). *)
let record_saturation ~act ~saturated ~total ~dead ~units =
  if on () && total > 0 then begin
    let labels = [ ("act", act); ("layer", current_layer ()) ] in
    Metrics.gauge "dynamics.saturation" ~labels
      (float_of_int saturated /. float_of_int total);
    if units > 0 then
      Metrics.gauge "dynamics.dead_units" ~labels
        (float_of_int dead /. float_of_int units)
  end

(* ---------------- attention entropy ---------------- *)

(* Attention over blended traces is precise when it concentrates: a
   uniform distribution over k slots has entropy ln k (≈3 nats at k=20),
   a hard pointer has 0.  Buckets cover that range. *)
let entropy_buckets = [| 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 2.5; 3.0; 4.0 |]

(** Record one per-lane attention-entropy observation (nats). *)
let record_attention_entropy h =
  if on () then
    Metrics.observe "dynamics.attention_entropy" ~buckets:entropy_buckets h

(* ---------------- per-layer gradient flow ---------------- *)

(** The parameter group of [param_name]: everything before the final
    [.suffix] ([".w"], [".b"], [".h0"], ...), or the whole name when it
    has no dot.  Cached: the group is recomputed once per distinct name. *)
let group_cache : (string, string) Hashtbl.t = Hashtbl.create 64
let group_mutex = Mutex.create ()

let group_of_param param_name =
  Mutex.lock group_mutex;
  let g =
    match Hashtbl.find_opt group_cache param_name with
    | Some g -> g
    | None ->
        let g =
          match String.rindex_opt param_name '.' with
          | Some i when i > 0 -> String.sub param_name 0 i
          | _ -> param_name
        in
        Hashtbl.add group_cache param_name g;
        g
  in
  Mutex.unlock group_mutex;
  g

(* A non-finite norm must not reach the ledger: the JSON writer writes
   NaN/inf as null, which the reader drops, so no rule would see it.
   Record a huge finite value instead so the exploding-gradients rule
   fires — the semantically right verdict for a NaN norm. *)
let sanitize v = if Float.is_finite v then v else 1e9

(** Publish one parameter group's pre-clip gradient norm.  An exactly-zero
    norm is skipped: it means the group did not participate in this step's
    tape at all (e.g. a learned initial state bypassed by the batched
    path), and recording it would fire the vanishing-gradients rule on
    perfectly healthy runs — true vanishing shows up as tiny-but-nonzero. *)
let record_layer_grad ~layer norm =
  if on () && norm <> 0.0 then
    Metrics.gauge "dynamics.layer_grad_norm" ~labels:[ ("layer", layer) ] (sanitize norm)

(** Publish one parameter group's applied update: the gauge is
    ‖Δw‖/‖w‖ (the classic update-to-weight ratio; healthy training sits
    around 1e-3).  A zero weight norm (an untouched bias) reports 0. *)
let record_layer_update ~layer ~update_norm ~weight_norm =
  if on () then
    Metrics.gauge "dynamics.layer_update_ratio" ~labels:[ ("layer", layer) ]
      (if weight_norm > 0.0 then sanitize (update_norm /. weight_norm) else 0.0)

(* ---------------- embedding drift vs a frozen probe set ---------------- *)

(** Nearest neighbors compared per probe between consecutive epochs. *)
let churn_k = 5

type probe_state = { mutable prev : float array array option }

let probe_states : (string, probe_state) Hashtbl.t = Hashtbl.create 4
let probe_mutex = Mutex.create ()

let cosine a b =
  let n = Stdlib.min (Array.length a) (Array.length b) in
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  for i = 0 to n - 1 do
    dot := !dot +. (a.(i) *. b.(i));
    na := !na +. (a.(i) *. a.(i));
    nb := !nb +. (b.(i) *. b.(i))
  done;
  let d = sqrt !na *. sqrt !nb in
  if d > 0.0 then !dot /. d else 0.0

(* indices of the [churn_k] nearest neighbors of probe [i] (by cosine,
   self excluded) — O(k·n) selection, fine at probe-set scale *)
let neighbors embs i =
  let n = Array.length embs in
  let k = Stdlib.min churn_k (n - 1) in
  let sims = Array.init n (fun j -> if j = i then neg_infinity else cosine embs.(i) embs.(j)) in
  let chosen = Array.make k (-1) in
  for slot = 0 to k - 1 do
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if sims.(j) > neg_infinity && (!best < 0 || sims.(j) > sims.(!best)) then best := j
    done;
    chosen.(slot) <- !best;
    sims.(!best) <- neg_infinity
  done;
  chosen

(** [observe_embeddings ~id embs] records one epoch's probe-set
    embeddings for the model [id] and, from the second call on, publishes
    the drift gauges against the previous epoch: mean [1 - cosine] per
    probe and the fraction of changed nearest neighbors (churn@k). *)
let observe_embeddings ~id (embs : float array array) =
  if on () && Array.length embs >= 2 then begin
    Mutex.lock probe_mutex;
    let st =
      match Hashtbl.find_opt probe_states id with
      | Some st -> st
      | None ->
          let st = { prev = None } in
          Hashtbl.add probe_states id st;
          st
    in
    let prev = st.prev in
    st.prev <- Some (Array.map Array.copy embs);
    Mutex.unlock probe_mutex;
    match prev with
    | Some prev when Array.length prev = Array.length embs ->
        let n = Array.length embs in
        let labels = [ ("model", id) ] in
        let drift = ref 0.0 in
        for i = 0 to n - 1 do
          drift := !drift +. (1.0 -. cosine prev.(i) embs.(i))
        done;
        Metrics.gauge "dynamics.embed_drift" ~labels (!drift /. float_of_int n);
        let k = Stdlib.min churn_k (n - 1) in
        if k > 0 then begin
          let churn = ref 0.0 in
          for i = 0 to n - 1 do
            let old_nn = neighbors prev i and new_nn = neighbors embs i in
            let kept = ref 0 in
            Array.iter (fun j -> if Array.exists (( = ) j) old_nn then incr kept) new_nn;
            churn := !churn +. (1.0 -. (float_of_int !kept /. float_of_int k))
          done;
          Metrics.gauge "dynamics.nn_churn" ~labels (!churn /. float_of_int n)
        end
    | _ -> ()
  end

(** Forget recorded probe embeddings and sampling state (tests). *)
let reset () =
  Mutex.lock probe_mutex;
  Hashtbl.reset probe_states;
  Mutex.unlock probe_mutex;
  Atomic.set sample_ctr 0
