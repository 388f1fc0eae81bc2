(** First-order optimizers over a {!Param.store}.

    The paper trains with Adam at its default hyperparameters
    (lr = 1e-4, beta1 = 0.9, beta2 = 0.999); we keep the betas and
    epsilon fixed but expose the learning rate since our models are far
    smaller. *)

module P = Liger_obs.Profile
module D = Liger_obs.Dynamics
module BA = Bigarray.Array1

(* ---------- per-layer gradient-flow accumulation (dynamics) ----------

   When the dynamics streams are on, [clip_grads] publishes each
   parameter group's pre-clip gradient norm and [step] the exact
   update-to-weight ratio it applied.  Groups come from
   {!Dynamics.group_of_param} (the param name minus its final suffix).
   Everything below is reached only behind [D.on ()], so the disabled
   path keeps its original loops untouched. *)

let acc_group tbl group du dw =
  match Hashtbl.find_opt tbl group with
  | Some (u, w) ->
      u := !u +. du;
      w := !w +. dw
  | None -> Hashtbl.add tbl group (ref du, ref dw)

let record_layer_grads store =
  let tbl : (string, float ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  Param.iter store (fun p ->
      let g = p.Param.grad.Tensor.data in
      let acc = ref 0.0 in
      for i = 0 to Param.size p - 1 do
        let gi = BA.unsafe_get g i in
        acc := !acc +. (gi *. gi)
      done;
      acc_group tbl (D.group_of_param p.Param.name) !acc 0.0);
  Hashtbl.iter (fun layer (u, _) -> D.record_layer_grad ~layer (sqrt !u)) tbl

let record_layer_updates tbl =
  Hashtbl.iter
    (fun layer (u, w) ->
      D.record_layer_update ~layer ~update_norm:(sqrt !u) ~weight_norm:(sqrt !w))
    tbl

(* coarse profiled ops: one clock read per optimizer step / clip, negligible
   next to the parameter sweep being timed *)
let op_adam = P.register_op "optim.adam_step"
let op_clip = P.register_op "optim.clip_grads"

(* Adam's fixed hyperparameters *)
let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

(* the learning rate and per-parameter moment estimates *)
type t = {
  lr : float;
  mutable step : int;
  state : (string, float array * float array) Hashtbl.t;
}

let adam ?(lr = 1e-3) () = { lr; step = 0; state = Hashtbl.create 64 }

(** Clip gradients to a global L2 norm of [max_norm]; returns the pre-clip
    norm. Stabilizes recurrent training on long traces.

    A non-finite norm (any NaN/inf gradient) cannot be rescaled — [norm >
    max_norm] is false for NaN, so the poisoned gradients would pass
    through untouched and corrupt Adam's moment estimates permanently.
    Instead the gradients are zeroed and the non-finite norm returned;
    callers must skip the optimizer step when [Float.is_finite] fails on
    the result (as {!Liger_eval.Train.fit} does, counting the skip). *)
let clip_grads store ~max_norm =
  let t0 = if P.on () then P.now () else 0.0 in
  if D.on () then record_layer_grads store;
  let norm = Param.grad_norm store in
  let norm =
    if not (Float.is_finite norm) then begin
      Param.zero_grads store;
      norm
    end
    else begin
      if norm > max_norm && norm > 0.0 then
        Param.scale_grads store (max_norm /. norm);
      norm
    end
  in
  if P.on () then
    P.op_timed op_clip ~seconds:(P.now () -. t0)
      ~flops:(float_of_int (3 * Param.num_params store))
      ~bytes:0.0;
  norm

let adam_state state (p : Param.t) =
  match Hashtbl.find_opt state p.Param.name with
  | Some mv -> mv
  | None ->
      let n = Param.size p in
      let mv = (Array.make n 0.0, Array.make n 0.0) in
      Hashtbl.add state p.Param.name mv;
      mv

(** Apply one update from the accumulated gradients, then zero them.
    Profiled as one coarse op (an estimated 15 FLOPs per element). *)
let step a store =
  let t0 = if P.on () then P.now () else 0.0 in
  (* With dynamics on, an accumulating twin of the update loop runs
     (update² and post-update weight² per group); with it off the
     original loop runs untouched — one branch per parameter. *)
  let dtbl = if D.on () then Some (Hashtbl.create 16) else None in
  a.step <- a.step + 1;
  let t' = float_of_int a.step in
  let bc1 = 1.0 -. (beta1 ** t') and bc2 = 1.0 -. (beta2 ** t') in
  Param.iter store (fun p ->
      let m, v2 = adam_state a.state p in
      let v = p.Param.value.Tensor.data and g = p.Param.grad.Tensor.data in
      match dtbl with
      | None ->
          for i = 0 to Param.size p - 1 do
            let gi = BA.unsafe_get g i in
            m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. gi);
            v2.(i) <- (beta2 *. v2.(i)) +. ((1.0 -. beta2) *. gi *. gi);
            let mhat = m.(i) /. bc1 and vhat = v2.(i) /. bc2 in
            let vi = BA.unsafe_get v i in
            BA.unsafe_set v i (vi -. (a.lr *. (mhat /. (sqrt vhat +. eps))))
          done
      | Some tbl ->
          let du = ref 0.0 and dw = ref 0.0 in
          for i = 0 to Param.size p - 1 do
            let gi = BA.unsafe_get g i in
            m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. gi);
            v2.(i) <- (beta2 *. v2.(i)) +. ((1.0 -. beta2) *. gi *. gi);
            let mhat = m.(i) /. bc1 and vhat = v2.(i) /. bc2 in
            let vi = BA.unsafe_get v i in
            let d = a.lr *. (mhat /. (sqrt vhat +. eps)) in
            let v' = vi -. d in
            BA.unsafe_set v i v';
            du := !du +. (d *. d);
            dw := !dw +. (v' *. v')
          done;
          acc_group tbl (D.group_of_param p.Param.name) !du !dw);
  Option.iter record_layer_updates dtbl;
  Param.zero_grads store;
  if P.on () then begin
    P.op_timed op_adam ~seconds:(P.now () -. t0)
      ~flops:(15.0 *. float_of_int (Param.num_params store))
      ~bytes:0.0
  end
