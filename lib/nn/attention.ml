(** Additive (Bahdanau-style) attention, used twice in the architecture:
    the fusion layer's scorer a1 over {static, concrete_1..N} feature
    vectors, and the decoder's scorer a2 over all blended-trace steps.

    Score of a candidate [h] against a context [q] is
    [v . tanh(W (h ++ q) + b)]; weights are the softmax of scores and the
    result is the weighted sum.  {!fuse_batch} returns the weights too —
    §6.1.2 inspects them to show the symbolic dimension receives ~0.6.

    Every entry point works on [lanes × dim] nodes: candidates are K slot
    nodes with a [lanes × K] validity mask, and each lane attends only over
    its own valid slots. *)

open Liger_tensor
module P = Liger_obs.Profile
module D = Liger_obs.Dynamics

let layer = P.register_layer "attention"

type t = { proj : Linear.t; v : Param.t }

let create store name ~dim_h ~dim_q ~dim_att =
  {
    proj = Linear.create store (name ^ ".proj") ~dim_in:(dim_h + dim_q) ~dim_out:dim_att;
    (* zero-init: scores start at 0, weights exactly uniform, so no candidate
       is favoured by the initial magnitude of its feature vector *)
    v = Param.zeros store (name ^ ".v") 1 dim_att;
  }

(* The scorer splits the projection by column blocks of the same weight:
   [W·(h ++ q) = W_h·h + W_q·q].  Candidates are vstacked slot-major and
   pushed through [W_h] in one GEMM; the query goes through [W_q] once per
   call at [lanes] rows (instead of being tiled to [K·lanes]); the two
   meet in a broadcast add.  Same math as [W (h ++ q)] up to float
   reassociation. *)

let project_batch_impl t btape hs =
  Batched.matmul_nt_slice btape (Batched.vstack btape (Array.to_list hs)) t.proj.Linear.w
    ~off:0

(** Candidate-side projection [W_h · h] of all K slot matrices, vstacked
    slot-major into a [(K·lanes) × dim_att] node.  The candidates' window
    of the weight starts at column 0, so [~off:0].  Compute it once and
    pass it to {!fuse_batch} via [?hproj] when the same candidates are
    scored repeatedly (the decoder attends over fixed memory every step). *)
let project_batch t btape hs =
  if P.scope_on () then P.with_layer layer (fun () -> project_batch_impl t btape hs)
  else project_batch_impl t btape hs

(* One dynamics observation per lane: the entropy −Σ w·ln w of the
   softmax weights over the lane's valid slots, in nats.  Uniform over k
   slots gives ln k; a hard pointer gives 0. *)
let record_weight_entropies w ~(mask : Tensor.t) =
  let wv = Batched.value w in
  let l = wv.Tensor.rows and k = wv.Tensor.cols in
  for i = 0 to l - 1 do
    let base = i * k in
    let h = ref 0.0 and valid = ref 0 in
    for j = 0 to k - 1 do
      if Tensor.get_idx mask (base + j) > 0.5 then begin
        incr valid;
        let wj = Tensor.get_idx wv (base + j) in
        if wj > 1e-12 then h := !h -. (wj *. log wj)
      end
    done;
    if !valid > 0 then D.record_attention_entropy !h
  done

let weights_batch_impl t btape ?hproj ~q ~mask hs =
  let k = Array.length hs in
  let l = Batched.lanes q in
  let dh = Batched.dim hs.(0) in
  let hp = match hproj with Some p -> p | None -> project_batch t btape hs in
  if Batched.lanes hp <> k * l then invalid_arg "Attention.weights_batch: hproj shape";
  let qp = Batched.matmul_nt_slice btape q t.proj.Linear.w ~off:dh in
  let scores =
    Batched.matvec_stack_cols btape
      (Batched.add_rows_cycle_bias_tanh btape hp qp t.proj.Linear.b)
      t.v ~lanes:l
  in
  let w = Batched.masked_softmax_rows btape scores ~mask in
  if D.on () && D.should_sample () then record_weight_entropies w ~mask;
  w

(** Masked softmax weights over candidate slots ([mask : lanes×K], 1.0 =
    valid).  A lane with one valid slot gets weight 1 with exactly zero
    gradient into its score (softmax Jacobian): a lone candidate passes
    through unchanged. *)
let weights_batch t btape ?hproj ~q ~mask hs =
  if P.scope_on () then
    P.with_layer layer (fun () -> weights_batch_impl t btape ?hproj ~q ~mask hs)
  else weights_batch_impl t btape ?hproj ~q ~mask hs

let fuse_batch_impl t btape ?hproj ~q ~mask hs =
  let w = weights_batch t btape ?hproj ~q ~mask hs in
  (w, Batched.weighted_sum btape w hs)

(** Attention-weighted fusion of candidate slots with a validity mask;
    returns [(weights : lanes×K, fused : lanes×dim)].  Pass [?hproj] (from
    {!project_batch}) to reuse the candidate-side projection across
    calls. *)
let fuse_batch t btape ?hproj ~q ~mask hs =
  if P.scope_on () then P.with_layer layer (fun () -> fuse_batch_impl t btape ?hproj ~q ~mask hs)
  else fuse_batch_impl t btape ?hproj ~q ~mask hs

let fuse_uniform_batch_impl btape ~(mask : Tensor.t) hs =
  let k = Array.length hs in
  if k = 0 then invalid_arg "Attention.fuse_uniform_batch: empty";
  let l = mask.Tensor.rows in
  if mask.Tensor.cols <> k then invalid_arg "Attention.fuse_uniform_batch: mask shape";
  let warr = Array.make (l * k) 0.0 in
  for i = 0 to l - 1 do
    let base = i * k in
    let valid = ref 0 in
    for j = 0 to k - 1 do
      if Tensor.get_idx mask (base + j) > 0.5 then incr valid
    done;
    if !valid > 0 then begin
      let w = 1.0 /. float_of_int !valid in
      for j = 0 to k - 1 do
        if Tensor.get_idx mask (base + j) > 0.5 then warr.(base + j) <- w
      done
    end
  done;
  let w = Batched.const_arr btape ~rows:l ~cols:k warr in
  (w, Batched.weighted_sum btape w hs)

(** Fixed uniform fusion over the valid slots of each lane — the "remove
    attention" ablation (§6.3.3), which "evenly distribute[s] the weights
    across all traces in a blended trace", and step 0, where no trace
    context exists yet. *)
let fuse_uniform_batch btape ~mask hs =
  if P.scope_on () then P.with_layer layer (fun () -> fuse_uniform_batch_impl btape ~mask hs)
  else fuse_uniform_batch_impl btape ~mask hs
