(** Tape-based reverse-mode automatic differentiation over {e batched}
    matrices: the only autodiff engine.

    The computation graph is recorded on a {!tape}: every op pushes a
    [lanes × dim] matrix node holding its value, a gradient buffer and a
    backward closure, where each row ("lane") carries one independent
    example/trace/state of a padded batch.  {!backward} seeds the loss
    gradient and replays the closures in reverse creation order,
    accumulating into input nodes and ultimately into the {!Param.t}
    gradients.  A single example is a one-lane batch.  Each lane is
    computed from its own rows alone, so a lane's forward values are
    bitwise the same whether it runs alone or inside a larger batch
    ([test/test_batched.ml] holds every layer and model to that, and
    checks every backward against finite differences); the work runs
    through the {!Tensor} GEMM kernels and flat loops, so a batch of B
    lanes costs far fewer than B one-lane passes.

    Padding and masking conventions (shared with [lib/nn] and DESIGN.md):
    - Variable-length sequences run as many steps as the longest lane; each
      step takes a [mask : float array] with 1.0 for live lanes, 0.0 for
      finished ones.  Recurrences compact: they {!gather_rows} the live
      lanes, step only those, and write them back with {!merge_rows}, so a
      finished lane costs no cell work, carries its last real state forward
      bit-for-bit, and its padded inputs receive {e exactly} zero gradient
      (they are never read).
    - Ragged candidate sets use {!masked_softmax_rows}: masked slots get
      weight 0 and zero gradient; a row with a single valid slot gets weight
      1 with zero gradient into its score (softmax Jacobian [w - w²] is 0):
      a lone candidate passes through unchanged.
    - Cross-level packing (tokens → variables → states → traces) is built
      from {!vstack} + {!gather_rows} + the group reductions {!group_sum} /
      {!group_max}.

    Node storage is leased from {!Bufpool} and returned when the tape is
    released, so steady-state training allocates (almost) nothing per step;
    consequently node values are only valid until {!backward}/{!discard} —
    copy out what you need first.

    {2 Profiling}

    When {!Liger_obs.Profile} is enabled, every op records a count, its
    analytic FLOPs and the bytes of its output node.  Conventions (tests and
    DESIGN.md depend on these): ops are registered as [bad.*]; an op's
    bytes are [16 * lanes * dim] of its output node (value + grad buffers,
    8 bytes per float each); GEMM counts [2mnk] forward FLOPs and [2mnk]
    per backward GEMM (4mnk for the usual dX+dW pair); a transcendental
    application counts 1.  Nodes are tagged with
    {!Liger_obs.Profile.current_layer} at creation so {!backward} can
    attribute backward time to the layer whose forward created each node,
    reading the clock only at tag boundaries. *)

module P = Liger_obs.Profile
module D = Liger_obs.Dynamics
module BA = Bigarray.Array1

type node = {
  value : Tensor.t;     (* lanes × dim *)
  grad : Tensor.t;      (* same shape, accumulated by backward *)
  back : unit -> unit;
  tag : int;            (* layer id at creation; -1 = outside any layer *)
}

type tape = {
  mutable nodes : node list;  (* newest first: reverse topological *)
  mutable n_ops : int;
  mutable alloc_bytes : int;
  mutable aux : Tensor.buf list;  (* gradient-free scratch (e.g. softmax probs) *)
}

let tape () = { nodes = []; n_ops = 0; alloc_bytes = 0; aux = [] }

let length t = t.n_ops

let value n = n.value
let grad n = n.grad
let lanes n = n.value.Tensor.rows
let dim n = n.value.Tensor.cols

let scalar_value n =
  if lanes n <> 1 || dim n <> 1 then invalid_arg "Batched.scalar_value: not 1x1";
  Tensor.get_idx n.value 0

(** Copy lane [i] of a node's value out as a float array. *)
let row_value n i =
  let c = dim n in
  let base = i * c in
  Array.init c (fun j -> Tensor.get_idx n.value (base + j))

(** Copy lane [i] of a node's gradient out as a float array. *)
let row_grad n i =
  let c = dim n in
  let base = i * c in
  Array.init c (fun j -> Tensor.get_idx n.grad (base + j))

(* Leases value (uninitialised) and grad (zeroed) storage from the pool;
   the op fills the value after pushing.  Safe because [back] can only run
   once the whole forward pass is on the tape. *)
let push tape rows cols back =
  if rows <= 0 || cols <= 0 then invalid_arg "Batched.push: non-positive shape";
  let tag = if P.on () then P.current_layer () else -1 in
  let n_elts = rows * cols in
  let value = Tensor.of_buf (Bufpool.take n_elts) rows cols in
  let grad = Tensor.of_buf (Bufpool.take_zeroed n_elts) rows cols in
  let n = { value; grad; back; tag } in
  tape.nodes <- n :: tape.nodes;
  tape.n_ops <- tape.n_ops + 1;
  if P.on () then begin
    let b = 16 * n_elts in
    tape.alloc_bytes <- tape.alloc_bytes + b;
    P.alloc b
  end;
  n

let no_back () = ()

let take_aux tape n_elts =
  let b = Bufpool.take n_elts in
  tape.aux <- b :: tape.aux;
  b

(* profiled op ids — registration is idempotent and happens once at module
   initialisation, so the hot path is array indexing *)
let op_const = P.register_op "bad.const"
let op_of_param = P.register_op "bad.of_param"
let op_of_param_b = P.register_op "bad.of_param.bwd"
let op_rows = P.register_op "bad.rows_of_param"
let op_rows_b = P.register_op "bad.rows_of_param.bwd"
let op_gemm = P.register_op "bad.gemm"
let op_gemm_b = P.register_op "bad.gemm.bwd"
let op_bias = P.register_op "bad.bias"
let op_bias_b = P.register_op "bad.bias.bwd"
let op_ew = P.register_op "bad.elementwise"
let op_ew_b = P.register_op "bad.elementwise.bwd"
let op_unary = P.register_op "bad.unary"
let op_unary_b = P.register_op "bad.unary.bwd"
let op_concat = P.register_op "bad.concat_cols"
let op_concat_b = P.register_op "bad.concat_cols.bwd"
let op_slice = P.register_op "bad.slice_cols"
let op_slice_b = P.register_op "bad.slice_cols.bwd"
let op_vstack = P.register_op "bad.vstack"
let op_vstack_b = P.register_op "bad.vstack.bwd"
let op_gather = P.register_op "bad.gather_rows"
let op_gather_b = P.register_op "bad.gather_rows.bwd"
let op_merge = P.register_op "bad.merge_rows"
let op_merge_b = P.register_op "bad.merge_rows.bwd"
let op_group_sum = P.register_op "bad.group_sum"
let op_group_sum_b = P.register_op "bad.group_sum.bwd"
let op_group_max = P.register_op "bad.group_max"
let op_group_max_b = P.register_op "bad.group_max.bwd"
let op_softmax = P.register_op "bad.softmax_rows"
let op_softmax_b = P.register_op "bad.softmax_rows.bwd"
let op_wsum = P.register_op "bad.weighted_sum"
let op_wsum_b = P.register_op "bad.weighted_sum.bwd"
let op_sum = P.register_op "bad.sum_all"
let op_sum_b = P.register_op "bad.sum_all.bwd"
let op_xent = P.register_op "bad.softmax_xent_rows"
let op_xent_b = P.register_op "bad.softmax_xent_rows.bwd"

let fbytes n = float_of_int (16 * n)
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Leaves                                                              *)
(* ------------------------------------------------------------------ *)

(** A gradient-stopping leaf holding a copy of [t]. *)
let const tape (t : Tensor.t) =
  let n_elts = Tensor.size t in
  if P.on () then P.op op_const ~flops:0.0 ~bytes:(fbytes n_elts);
  let n = push tape t.Tensor.rows t.Tensor.cols no_back in
  BA.blit t.Tensor.data n.value.Tensor.data;
  n

(** A leaf from a row-major array of [rows * cols] values. *)
let const_arr tape ~rows ~cols (a : float array) =
  if Array.length a <> rows * cols then invalid_arg "Batched.const_arr: size mismatch";
  if P.on () then P.op op_const ~flops:0.0 ~bytes:(fbytes (rows * cols));
  let n = push tape rows cols no_back in
  Tensor.blit_from_array a n.value;
  n

let zeros tape ~rows ~cols =
  if P.on () then P.op op_const ~flops:0.0 ~bytes:(fbytes (rows * cols));
  let n = push tape rows cols no_back in
  Tensor.fill n.value 0.0;
  n

(** Broadcast a vector parameter (bias, initial state) across [lanes] rows;
    backward sums the lane gradients into the parameter (column sum, lane
    order fixed). *)
let of_param tape ~lanes (p : Param.t) =
  if p.Param.value.Tensor.rows <> 1 then
    invalid_arg "Batched.of_param: parameter is not a vector";
  let d = Param.cols p in
  if P.on () then P.op op_of_param ~flops:0.0 ~bytes:(fbytes (lanes * d));
  let rec n =
    lazy
      (push tape lanes d (fun () ->
           if P.on () then P.op op_of_param_b ~flops:(fi (lanes * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let pg = p.Param.grad.Tensor.data in
           for i = 0 to lanes - 1 do
             let base = i * d in
             for j = 0 to d - 1 do
               BA.unsafe_set pg j (BA.unsafe_get pg j +. BA.unsafe_get g (base + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and pv = p.Param.value.Tensor.data in
  for i = 0 to lanes - 1 do
    let base = i * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (base + j) (BA.unsafe_get pv j)
    done
  done;
  n

(** Gather rows of a matrix parameter (batched embedding lookup); backward
    scatter-adds into the gathered rows, with duplicates accumulating in
    lane order. *)
let rows_of_param tape (p : Param.t) (ids : int array) =
  let l = Array.length ids in
  if l = 0 then invalid_arg "Batched.rows_of_param: empty";
  let rows_p = Param.rows p and d = Param.cols p in
  Array.iter
    (fun i -> if i < 0 || i >= rows_p then invalid_arg "Batched.rows_of_param: id out of range")
    ids;
  if P.on () then P.op op_rows ~flops:0.0 ~bytes:(fbytes (l * d));
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_rows_b ~flops:(fi (l * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let pg = p.Param.grad.Tensor.data in
           for i = 0 to l - 1 do
             let src = i * d and dst = ids.(i) * d in
             for j = 0 to d - 1 do
               BA.unsafe_set pg (dst + j)
                 (BA.unsafe_get pg (dst + j) +. BA.unsafe_get g (src + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and pv = p.Param.value.Tensor.data in
  for i = 0 to l - 1 do
    let dst = i * d and src = ids.(i) * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (dst + j) (BA.unsafe_get pv (src + j))
    done
  done;
  n

(* ------------------------------------------------------------------ *)
(* GEMM-backed linear algebra                                          *)
(* ------------------------------------------------------------------ *)

(** [matmul_nt tape x p] is [X · W^T] for parameter matrix [W : out×in] and
    [X : lanes×in] (one matrix-vector product per lane).  Backward
    runs the two sibling GEMMs [dX += dY·W] and [dW += dY^T·X]. *)
let matmul_nt tape x (p : Param.t) =
  let l = lanes x and k = dim x in
  let out = Param.rows p in
  if Param.cols p <> k then
    invalid_arg
      (Printf.sprintf "Batched.matmul_nt(%s): expected dim %d, got %d" p.Param.name
         (Param.cols p) k);
  if P.on () then P.op op_gemm ~flops:(fi (2 * l * out * k)) ~bytes:(fbytes (l * out));
  let rec n =
    lazy
      (push tape l out (fun () ->
           if P.on () then P.op op_gemm_b ~flops:(fi (4 * l * out * k)) ~bytes:0.0;
           let g = (Lazy.force n).grad in
           Tensor.gemm_nn ~beta:1.0 g p.Param.value x.grad;
           Tensor.gemm_tn ~beta:1.0 g x.value p.Param.grad))
  in
  let n = Lazy.force n in
  Tensor.gemm_nt ~beta:0.0 x.value p.Param.value n.value;
  n

(** Add a broadcast vector parameter to every lane ([X + 1·b^T]); backward
    passes gradients through and column-sums them into the bias. *)
let add_bias tape a (p : Param.t) =
  let l = lanes a and d = dim a in
  if p.Param.value.Tensor.rows <> 1 || Param.cols p <> d then
    invalid_arg "Batched.add_bias: bias shape mismatch";
  if P.on () then P.op op_bias ~flops:(fi (l * d)) ~bytes:(fbytes (l * d));
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_bias_b ~flops:(fi (2 * l * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data and pg = p.Param.grad.Tensor.data in
           for i = 0 to (l * d) - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i +. BA.unsafe_get g i)
           done;
           for i = 0 to l - 1 do
             let base = i * d in
             for j = 0 to d - 1 do
               BA.unsafe_set pg j (BA.unsafe_get pg j +. BA.unsafe_get g (base + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  let pv = p.Param.value.Tensor.data in
  for i = 0 to l - 1 do
    let base = i * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (base + j) (BA.unsafe_get av (base + j) +. BA.unsafe_get pv j)
    done
  done;
  n

(* Saturation sampling for the dynamics streams: scan one activation
   buffer (lanes-major), counting saturated elements and output units dead
   across every lane, and publish under the outermost layer scope.  Callers
   gate on [D.on () && D.should_sample ()], so the uninstrumented forward
   path pays one branch per activation node and the instrumented one scans
   every [Dynamics.sample_every]-th call. *)
let sample_activation ~act_name ~is_tanh v l cols =
  let sat = ref 0 and dead = ref 0 in
  for j = 0 to cols - 1 do
    let mag = ref 0.0 in
    for i = 0 to l - 1 do
      let y = BA.unsafe_get v ((i * cols) + j) in
      if is_tanh then begin
        let a = Float.abs y in
        if a > 0.99 then incr sat;
        if a > !mag then mag := a
      end
      else begin
        (* sigmoid saturates at either rail; "dead" means pinned at 0 *)
        if y > 0.99 || y < 0.01 then incr sat;
        if y > !mag then mag := y
      end
    done;
    if !mag < (if is_tanh then 1e-3 else 0.01) then incr dead
  done;
  D.record_saturation ~act:act_name ~saturated:!sat ~total:(l * cols) ~dead:!dead
    ~units:cols

type affine_act = A_id | A_tanh | A_sigmoid

(* Fused [act(X·W^T + 1·b^T)] in a single node: the output rows start as
   the bias, the GEMM accumulates on top ([beta = 1]), and the activation
   rewrites the buffer in place.  Backward first folds the activation
   derivative into this node's own gradient buffer in place — safe because
   backward runs newest-first, so every consumer has already accumulated
   into it and nothing reads it after this closure — then runs the usual
   dX/dW sibling GEMMs and the bias column-sum off the folded gradient.
   Versus the unfused matmul_nt + add_bias + tanh_ chain this saves two
   value/grad buffer pairs and their memory round-trips per call. *)
let affine_act tape ~w ~b x act =
  let l = lanes x and k = dim x in
  let out = Param.rows w in
  if Param.cols w <> k then
    invalid_arg
      (Printf.sprintf "Batched.affine(%s): expected dim %d, got %d" w.Param.name
         (Param.cols w) k);
  if b.Param.value.Tensor.rows <> 1 || Param.cols b <> out then
    invalid_arg "Batched.affine: bias shape mismatch";
  let n_elts = l * out in
  if P.on () then begin
    P.op op_gemm ~flops:(fi (2 * l * out * k)) ~bytes:(fbytes n_elts);
    P.op op_bias ~flops:(fi n_elts) ~bytes:0.0;
    if act <> A_id then P.op op_unary ~flops:(fi n_elts) ~bytes:0.0
  end;
  let rec n =
    lazy
      (push tape l out (fun () ->
           if P.on () then begin
             P.op op_gemm_b ~flops:(fi (4 * l * out * k)) ~bytes:0.0;
             P.op op_bias_b ~flops:(fi n_elts) ~bytes:0.0;
             if act <> A_id then P.op op_unary_b ~flops:(fi (3 * n_elts)) ~bytes:0.0
           end;
           let node = Lazy.force n in
           let g = node.grad in
           let gd = g.Tensor.data and v = node.value.Tensor.data in
           (match act with
           | A_id -> ()
           | A_tanh ->
               for i = 0 to n_elts - 1 do
                 let y = BA.unsafe_get v i in
                 BA.unsafe_set gd i (BA.unsafe_get gd i *. (1.0 -. (y *. y)))
               done
           | A_sigmoid ->
               for i = 0 to n_elts - 1 do
                 let y = BA.unsafe_get v i in
                 BA.unsafe_set gd i (BA.unsafe_get gd i *. (y *. (1.0 -. y)))
               done);
           Tensor.gemm_nn ~beta:1.0 g w.Param.value x.grad;
           Tensor.gemm_tn ~beta:1.0 g x.value w.Param.grad;
           let pg = b.Param.grad.Tensor.data in
           for i = 0 to l - 1 do
             let base = i * out in
             for j = 0 to out - 1 do
               BA.unsafe_set pg j (BA.unsafe_get pg j +. BA.unsafe_get gd (base + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and bv = b.Param.value.Tensor.data in
  for i = 0 to l - 1 do
    let base = i * out in
    for j = 0 to out - 1 do
      BA.unsafe_set v (base + j) (BA.unsafe_get bv j)
    done
  done;
  Tensor.gemm_nt ~beta:1.0 x.value w.Param.value n.value;
  (match act with
  | A_id -> ()
  | A_tanh ->
      for i = 0 to n_elts - 1 do
        BA.unsafe_set v i (Stdlib.tanh (BA.unsafe_get v i))
      done
  | A_sigmoid ->
      for i = 0 to n_elts - 1 do
        BA.unsafe_set v i (1.0 /. (1.0 +. exp (-.BA.unsafe_get v i)))
      done);
  (match act with
  | A_id -> ()
  | A_tanh ->
      if D.on () && D.should_sample () then
        sample_activation ~act_name:"tanh" ~is_tanh:true v l out
  | A_sigmoid ->
      if D.on () && D.should_sample () then
        sample_activation ~act_name:"sigmoid" ~is_tanh:false v l out);
  n

(** [affine tape ~w ~b x] is [X·W^T + 1·b^T] (one fused node). *)
let affine tape ~w ~b x = affine_act tape ~w ~b x A_id

(** Fused [tanh(X·W^T + 1·b^T)]. *)
let affine_tanh tape ~w ~b x = affine_act tape ~w ~b x A_tanh

(** Fused [sigmoid(X·W^T + 1·b^T)]. *)
let affine_sigmoid tape ~w ~b x = affine_act tape ~w ~b x A_sigmoid

(** [matmul_nt_slice tape x p ~off] is [X · W[:, off..off+k)^T] for
    [X : lanes×k] against a column window of the wider parameter
    [W : out×K].  Lets a layer whose weight concatenates two input blocks
    ([W·(h ++ q) = W_h·h + W_q·q]) run each block separately — attention
    uses it to project memory once and queries per step.  Backward mirrors
    {!matmul_nt} with the sliced kernels, touching only the window of
    [W]'s gradient. *)
let matmul_nt_slice tape x (p : Param.t) ~off =
  let l = lanes x and k = dim x in
  let out = Param.rows p and ld = Param.cols p in
  if off < 0 || off + k > ld then
    invalid_arg
      (Printf.sprintf "Batched.matmul_nt_slice(%s): window [%d, %d) exceeds %d cols"
         p.Param.name off (off + k) ld);
  if P.on () then P.op op_gemm ~flops:(fi (2 * l * out * k)) ~bytes:(fbytes (l * out));
  let rec n =
    lazy
      (push tape l out (fun () ->
           if P.on () then P.op op_gemm_b ~flops:(fi (4 * l * out * k)) ~bytes:0.0;
           let g = (Lazy.force n).grad in
           Tensor.gemm_nn_slice ~beta:1.0 ~ld ~boff:off g p.Param.value x.grad;
           Tensor.gemm_tn_slice ~beta:1.0 ~ld ~coff:off g x.value p.Param.grad))
  in
  let n = Lazy.force n in
  Tensor.gemm_nt_slice ~beta:0.0 ~ld ~boff:off x.value p.Param.value n.value;
  n

(** [add_rows_cycle tape a b]: for [a : (S·l)×d] (slot-major stack of [S]
    blocks) and [b : l×d], adds [b]'s lane rows to every block —
    [out[s·l+i, :] = a[s·l+i, :] + b[i, :]].  Backward passes gradients
    through to [a] and block-sums them into [b]. *)
let add_rows_cycle tape a b =
  let rows_a = lanes a and l = lanes b and d = dim a in
  if dim b <> d || l = 0 || rows_a mod l <> 0 then
    invalid_arg "Batched.add_rows_cycle: shape mismatch";
  if P.on () then P.op op_ew ~flops:(fi (rows_a * d)) ~bytes:(fbytes (rows_a * d));
  let rec n =
    lazy
      (push tape rows_a d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (2 * rows_a * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data and bg = b.grad.Tensor.data in
           for i = 0 to (rows_a * d) - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i +. BA.unsafe_get g i)
           done;
           for r = 0 to rows_a - 1 do
             let src = r * d and dst = r mod l * d in
             for j = 0 to d - 1 do
               BA.unsafe_set bg (dst + j)
                 (BA.unsafe_get bg (dst + j) +. BA.unsafe_get g (src + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  let bv = b.value.Tensor.data in
  for r = 0 to rows_a - 1 do
    let dst = r * d and src = r mod l * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (dst + j) (BA.unsafe_get av (dst + j) +. BA.unsafe_get bv (src + j))
    done
  done;
  n

(** Fused [tanh(a[r] + b[r mod l] + bias)] — the attention scorer's
    pre-activation ({!add_rows_cycle} + bias broadcast + tanh) in one node.
    Backward folds the tanh derivative into this node's own gradient in
    place (safe: backward runs newest-first, so every consumer has already
    accumulated into it) before routing it to [a], the block-sum into [b]
    and the column-sum into the bias. *)
let add_rows_cycle_bias_tanh tape a b (bias : Param.t) =
  let rows_a = lanes a and l = lanes b and d = dim a in
  if dim b <> d || l = 0 || rows_a mod l <> 0 then
    invalid_arg "Batched.add_rows_cycle_bias_tanh: shape mismatch";
  if bias.Param.value.Tensor.rows <> 1 || Param.cols bias <> d then
    invalid_arg "Batched.add_rows_cycle_bias_tanh: bias shape mismatch";
  let n_elts = rows_a * d in
  if P.on () then begin
    P.op op_ew ~flops:(fi (2 * n_elts)) ~bytes:(fbytes n_elts);
    P.op op_unary ~flops:(fi n_elts) ~bytes:0.0
  end;
  let rec n =
    lazy
      (push tape rows_a d (fun () ->
           if P.on () then begin
             P.op op_ew_b ~flops:(fi (3 * n_elts)) ~bytes:0.0;
             P.op op_unary_b ~flops:(fi (3 * n_elts)) ~bytes:0.0
           end;
           let node = Lazy.force n in
           let g = node.grad.Tensor.data and y = node.value.Tensor.data in
           for i = 0 to n_elts - 1 do
             let yi = BA.unsafe_get y i in
             BA.unsafe_set g i (BA.unsafe_get g i *. (1.0 -. (yi *. yi)))
           done;
           let ag = a.grad.Tensor.data
           and bg = b.grad.Tensor.data
           and pg = bias.Param.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i +. BA.unsafe_get g i)
           done;
           for r = 0 to rows_a - 1 do
             let src = r * d and dst = r mod l * d in
             for j = 0 to d - 1 do
               let gi = BA.unsafe_get g (src + j) in
               BA.unsafe_set bg (dst + j) (BA.unsafe_get bg (dst + j) +. gi);
               BA.unsafe_set pg j (BA.unsafe_get pg j +. gi)
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data
  and av = a.value.Tensor.data
  and bv = b.value.Tensor.data
  and pv = bias.Param.value.Tensor.data in
  for r = 0 to rows_a - 1 do
    let dst = r * d and src = r mod l * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (dst + j)
        (Stdlib.tanh
           (BA.unsafe_get av (dst + j) +. BA.unsafe_get bv (src + j)
          +. BA.unsafe_get pv j))
    done
  done;
  if D.on () && D.should_sample () then
    sample_activation ~act_name:"tanh" ~is_tanh:true v rows_a d;
  n

(** Fused [a · v^T] + slot-major reshape: for [a : (K·l)×d] and a vector
    parameter [v : 1×d], computes the [l×K] score matrix
    [out[i, kk] = a[kk·l+i, :] · v] directly — the attention scorer's
    final projection without materialising the [(K·l)×1] column node
    ({!stack_to_cols} is the standalone reshape). *)
let matvec_stack_cols tape a (p : Param.t) ~lanes:l =
  let rows = lanes a and d = dim a in
  if p.Param.value.Tensor.rows <> 1 || Param.cols p <> d then
    invalid_arg "Batched.matvec_stack_cols: vector shape mismatch";
  if l <= 0 || rows mod l <> 0 then invalid_arg "Batched.matvec_stack_cols: lanes mismatch";
  let k = rows / l in
  if P.on () then P.op op_gemm ~flops:(fi (2 * rows * d)) ~bytes:(fbytes (l * k));
  let rec n =
    lazy
      (push tape l k (fun () ->
           if P.on () then P.op op_gemm_b ~flops:(fi (4 * rows * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data
           and pg = p.Param.grad.Tensor.data
           and av = a.value.Tensor.data
           and pv = p.Param.value.Tensor.data in
           for kk = 0 to k - 1 do
             for i = 0 to l - 1 do
               let gi = BA.unsafe_get g ((i * k) + kk) in
               if gi <> 0.0 then begin
                 let base = ((kk * l) + i) * d in
                 for j = 0 to d - 1 do
                   BA.unsafe_set ag (base + j)
                     (BA.unsafe_get ag (base + j) +. (gi *. BA.unsafe_get pv j));
                   BA.unsafe_set pg j
                     (BA.unsafe_get pg j +. (gi *. BA.unsafe_get av (base + j)))
                 done
               end
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data
  and av = a.value.Tensor.data
  and pv = p.Param.value.Tensor.data in
  for kk = 0 to k - 1 do
    for i = 0 to l - 1 do
      let base = ((kk * l) + i) * d in
      let acc = ref 0.0 in
      for j = 0 to d - 1 do
        acc := !acc +. (BA.unsafe_get av (base + j) *. BA.unsafe_get pv j)
      done;
      BA.unsafe_set v ((i * k) + kk) !acc
    done
  done;
  n

(* ------------------------------------------------------------------ *)
(* Elementwise                                                         *)
(* ------------------------------------------------------------------ *)

let check_same name a b =
  if lanes a <> lanes b || dim a <> dim b then
    invalid_arg
      (Printf.sprintf "Batched.%s: shape mismatch (%dx%d vs %dx%d)" name (lanes a)
         (dim a) (lanes b) (dim b))

let add tape a b =
  check_same "add" a b;
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (4 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data and bg = b.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             let gi = BA.unsafe_get g i in
             BA.unsafe_set ag i (BA.unsafe_get ag i +. gi);
             BA.unsafe_set bg i (BA.unsafe_get bg i +. gi)
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let av = a.value.Tensor.data and bv = b.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (BA.unsafe_get av i +. BA.unsafe_get bv i)
  done;
  n

let sub tape a b =
  check_same "sub" a b;
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (4 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data and bg = b.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             let gi = BA.unsafe_get g i in
             BA.unsafe_set ag i (BA.unsafe_get ag i +. gi);
             BA.unsafe_set bg i (BA.unsafe_get bg i -. gi)
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let av = a.value.Tensor.data and bv = b.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (BA.unsafe_get av i -. BA.unsafe_get bv i)
  done;
  n

(** Elementwise (Hadamard) product. *)
let mul tape a b =
  check_same "mul" a b;
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (4 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data and bg = b.grad.Tensor.data in
           let av = a.value.Tensor.data and bv = b.value.Tensor.data in
           for i = 0 to n_elts - 1 do
             let gi = BA.unsafe_get g i in
             BA.unsafe_set ag i (BA.unsafe_get ag i +. (gi *. BA.unsafe_get bv i));
             BA.unsafe_set bg i (BA.unsafe_get bg i +. (gi *. BA.unsafe_get av i))
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let av = a.value.Tensor.data and bv = b.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (BA.unsafe_get av i *. BA.unsafe_get bv i)
  done;
  n

(** Fused gated blend [z ⊙ a + (1 - z) ⊙ b] — the GRU update and every
    mask-style interpolation in one node instead of four
    (one_minus/mul/mul/add), saving three value/grad buffer round-trips
    per recurrence step. *)
let lerp tape z a b =
  check_same "lerp" z a;
  check_same "lerp" a b;
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi (3 * n_elts)) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (7 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let zg = z.grad.Tensor.data
           and ag = a.grad.Tensor.data
           and bg = b.grad.Tensor.data in
           let zv = z.value.Tensor.data
           and av = a.value.Tensor.data
           and bv = b.value.Tensor.data in
           for i = 0 to n_elts - 1 do
             let gi = BA.unsafe_get g i in
             let zi = BA.unsafe_get zv i in
             BA.unsafe_set zg i
               (BA.unsafe_get zg i +. (gi *. (BA.unsafe_get av i -. BA.unsafe_get bv i)));
             BA.unsafe_set ag i (BA.unsafe_get ag i +. (gi *. zi));
             BA.unsafe_set bg i (BA.unsafe_get bg i +. (gi *. (1.0 -. zi)))
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let zv = z.value.Tensor.data
  and av = a.value.Tensor.data
  and bv = b.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    let zi = BA.unsafe_get zv i in
    BA.unsafe_set v i
      ((zi *. BA.unsafe_get av i) +. ((1.0 -. zi) *. BA.unsafe_get bv i))
  done;
  n

(** Fused [a ⊙ b + p ⊙ q] — the LSTM/TreeLSTM cell update
    [f ⊙ c + i ⊙ u] in one node instead of three (mul/mul/add). *)
let muladd2 tape a b p q =
  check_same "muladd2" a b;
  check_same "muladd2" b p;
  check_same "muladd2" p q;
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi (3 * n_elts)) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (8 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data
           and bg = b.grad.Tensor.data
           and pg = p.grad.Tensor.data
           and qg = q.grad.Tensor.data in
           let av = a.value.Tensor.data
           and bv = b.value.Tensor.data
           and pv = p.value.Tensor.data
           and qv = q.value.Tensor.data in
           for i = 0 to n_elts - 1 do
             let gi = BA.unsafe_get g i in
             BA.unsafe_set ag i (BA.unsafe_get ag i +. (gi *. BA.unsafe_get bv i));
             BA.unsafe_set bg i (BA.unsafe_get bg i +. (gi *. BA.unsafe_get av i));
             BA.unsafe_set pg i (BA.unsafe_get pg i +. (gi *. BA.unsafe_get qv i));
             BA.unsafe_set qg i (BA.unsafe_get qg i +. (gi *. BA.unsafe_get pv i))
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let av = a.value.Tensor.data
  and bv = b.value.Tensor.data
  and pv = p.value.Tensor.data
  and qv = q.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i
      ((BA.unsafe_get av i *. BA.unsafe_get bv i)
      +. (BA.unsafe_get pv i *. BA.unsafe_get qv i))
  done;
  n

let scale tape c a =
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (2 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i +. (c *. BA.unsafe_get g i))
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (c *. BA.unsafe_get av i)
  done;
  n

(** [one_minus tape a] is [1 - a] elementwise (GRU update gates). *)
let one_minus tape a =
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_ew ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_ew_b ~flops:(fi (2 * n_elts)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i -. BA.unsafe_get g i)
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (1.0 -. BA.unsafe_get av i)
  done;
  n

let unary_from_out tape f df_out a =
  let l = lanes a and d = dim a in
  let n_elts = l * d in
  if P.on () then P.op op_unary ~flops:(fi n_elts) ~bytes:(fbytes n_elts);
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_unary_b ~flops:(fi (3 * n_elts)) ~bytes:0.0;
           let out = Lazy.force n in
           let g = out.grad.Tensor.data and y = out.value.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             BA.unsafe_set ag i
               (BA.unsafe_get ag i +. (BA.unsafe_get g i *. df_out (BA.unsafe_get y i)))
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to n_elts - 1 do
    BA.unsafe_set v i (f (BA.unsafe_get av i))
  done;
  n

let tanh_ tape a =
  let n = unary_from_out tape Stdlib.tanh (fun y -> 1.0 -. (y *. y)) a in
  if D.on () && D.should_sample () then
    sample_activation ~act_name:"tanh" ~is_tanh:true n.value.Tensor.data (lanes n) (dim n);
  n

let sigmoid tape a =
  let n =
    unary_from_out tape (fun x -> 1.0 /. (1.0 +. exp (-.x))) (fun y -> y *. (1.0 -. y)) a
  in
  if D.on () && D.should_sample () then
    sample_activation ~act_name:"sigmoid" ~is_tanh:false n.value.Tensor.data (lanes n)
      (dim n);
  n

let relu tape a =
  unary_from_out tape
    (fun x -> if x > 0.0 then x else 0.0)
    (fun y -> if y > 0.0 then 1.0 else 0.0)
    a

(* ------------------------------------------------------------------ *)
(* Reshaping: columns, rows, packing                                   *)
(* ------------------------------------------------------------------ *)

let concat_cols tape xs =
  (match xs with [] -> invalid_arg "Batched.concat_cols: empty" | _ -> ());
  let l = lanes (List.hd xs) in
  List.iter
    (fun x -> if lanes x <> l then invalid_arg "Batched.concat_cols: lane mismatch")
    xs;
  let total = List.fold_left (fun acc x -> acc + dim x) 0 xs in
  if P.on () then P.op op_concat ~flops:0.0 ~bytes:(fbytes (l * total));
  let rec n =
    lazy
      (push tape l total (fun () ->
           if P.on () then P.op op_concat_b ~flops:(fi (l * total)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let off = ref 0 in
           List.iter
             (fun x ->
               let d = dim x in
               let xg = x.grad.Tensor.data in
               for i = 0 to l - 1 do
                 let src = (i * total) + !off and dst = i * d in
                 for j = 0 to d - 1 do
                   BA.unsafe_set xg (dst + j)
                     (BA.unsafe_get xg (dst + j) +. BA.unsafe_get g (src + j))
                 done
               done;
               off := !off + d)
             xs))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let off = ref 0 in
  List.iter
    (fun x ->
      let d = dim x in
      let xv = x.value.Tensor.data in
      for i = 0 to l - 1 do
        let dst = (i * total) + !off and src = i * d in
        for j = 0 to d - 1 do
          BA.unsafe_set v (dst + j) (BA.unsafe_get xv (src + j))
        done
      done;
      off := !off + d)
    xs;
  n

let slice_cols tape a off len =
  let l = lanes a and d = dim a in
  if off < 0 || len <= 0 || off + len > d then
    invalid_arg "Batched.slice_cols: window out of range";
  if P.on () then P.op op_slice ~flops:0.0 ~bytes:(fbytes (l * len));
  let rec n =
    lazy
      (push tape l len (fun () ->
           if P.on () then P.op op_slice_b ~flops:(fi (l * len)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to l - 1 do
             let src = i * len and dst = (i * d) + off in
             for j = 0 to len - 1 do
               BA.unsafe_set ag (dst + j)
                 (BA.unsafe_get ag (dst + j) +. BA.unsafe_get g (src + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to l - 1 do
    let dst = i * len and src = (i * d) + off in
    for j = 0 to len - 1 do
      BA.unsafe_set v (dst + j) (BA.unsafe_get av (src + j))
    done
  done;
  n

(** Stack nodes vertically (same [dim], lanes concatenated in list order);
    the packing step that lets one gather address rows of several sources. *)
let vstack tape xs =
  (match xs with [] -> invalid_arg "Batched.vstack: empty" | _ -> ());
  let d = dim (List.hd xs) in
  List.iter (fun x -> if dim x <> d then invalid_arg "Batched.vstack: dim mismatch") xs;
  let total = List.fold_left (fun acc x -> acc + lanes x) 0 xs in
  if P.on () then P.op op_vstack ~flops:0.0 ~bytes:(fbytes (total * d));
  let rec n =
    lazy
      (push tape total d (fun () ->
           if P.on () then P.op op_vstack_b ~flops:(fi (total * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let row = ref 0 in
           List.iter
             (fun x ->
               let nl = lanes x in
               let xg = x.grad.Tensor.data in
               let base = !row * d in
               for i = 0 to (nl * d) - 1 do
                 BA.unsafe_set xg i (BA.unsafe_get xg i +. BA.unsafe_get g (base + i))
               done;
               row := !row + nl)
             xs))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data in
  let row = ref 0 in
  List.iter
    (fun x ->
      let nl = lanes x in
      let xv = x.value.Tensor.data in
      let base = !row * d in
      for i = 0 to (nl * d) - 1 do
        BA.unsafe_set v (base + i) (BA.unsafe_get xv i)
      done;
      row := !row + nl)
    xs;
  n

(** [gather_rows tape a idx] selects rows of [a] (with repetition allowed);
    backward scatter-adds, duplicates accumulating in output-lane order. *)
let gather_rows tape a (idx : int array) =
  let l = Array.length idx in
  if l = 0 then invalid_arg "Batched.gather_rows: empty";
  let src_l = lanes a and d = dim a in
  Array.iter
    (fun i -> if i < 0 || i >= src_l then invalid_arg "Batched.gather_rows: index out of range")
    idx;
  if P.on () then P.op op_gather ~flops:0.0 ~bytes:(fbytes (l * d));
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_gather_b ~flops:(fi (l * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to l - 1 do
             let src = i * d and dst = idx.(i) * d in
             for j = 0 to d - 1 do
               BA.unsafe_set ag (dst + j)
                 (BA.unsafe_get ag (dst + j) +. BA.unsafe_get g (src + j))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to l - 1 do
    let dst = i * d and src = idx.(i) * d in
    for j = 0 to d - 1 do
      BA.unsafe_set v (dst + j) (BA.unsafe_get av (src + j))
    done
  done;
  n

(** [stack_to_cols tape a ~lanes]: reinterpret a slot-major stacked column
    [a : (K·lanes)×1] (slot [k]'s lanes at rows [k·lanes .. k·lanes+lanes-1])
    as a [lanes×K] matrix: [out[l,k] = a[k·lanes + l]].  Pure data movement;
    the gradient scatters back the same way.  Lets K per-slot score columns
    computed in one vstacked GEMM feed a row softmax. *)
let stack_to_cols tape a ~lanes:l =
  let rows = lanes a in
  if dim a <> 1 then invalid_arg "Batched.stack_to_cols: input must be a column";
  if l <= 0 || rows mod l <> 0 then invalid_arg "Batched.stack_to_cols: lanes mismatch";
  let k = rows / l in
  if P.on () then P.op op_gather ~flops:0.0 ~bytes:(fbytes rows);
  let rec n =
    lazy
      (push tape l k (fun () ->
           if P.on () then P.op op_gather_b ~flops:(fi rows) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for kk = 0 to k - 1 do
             for i = 0 to l - 1 do
               let src = (i * k) + kk and dst = (kk * l) + i in
               BA.unsafe_set ag dst (BA.unsafe_get ag dst +. BA.unsafe_get g src)
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for kk = 0 to k - 1 do
    for i = 0 to l - 1 do
      BA.unsafe_set v ((i * k) + kk) (BA.unsafe_get av ((kk * l) + i))
    done
  done;
  n

(** [merge_rows tape a ~idx b] is [a] with row [idx.(i)] replaced by row [i]
    of [b] — the write-back of a recurrence step computed on its live lanes
    only.  [idx] must be strictly increasing rows of [a], one per row of
    [b].  Pure data movement: every output row is a bit-for-bit copy, and
    backward routes each row's gradient to whichever input supplied it. *)
let merge_rows tape a ~(idx : int array) b =
  let l = lanes a and d = dim a in
  let n = Array.length idx in
  if dim b <> d then invalid_arg "Batched.merge_rows: dim mismatch";
  if lanes b <> n then invalid_arg "Batched.merge_rows: idx length mismatch";
  Array.iteri
    (fun i r ->
      if r < 0 || r >= l || (i > 0 && r <= idx.(i - 1)) then
        invalid_arg "Batched.merge_rows: idx must be strictly increasing rows of a")
    idx;
  if P.on () then P.op op_merge ~flops:0.0 ~bytes:(fbytes (l * d));
  (* [route f] calls [f i src r] for every output row [i], where row [r]
     of node [src] supplies it *)
  let route f =
    let k = ref 0 in
    for i = 0 to l - 1 do
      if !k < n && Array.unsafe_get idx !k = i then begin
        f i b !k;
        incr k
      end
      else f i a i
    done
  in
  let rec node =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_merge_b ~flops:(fi (l * d)) ~bytes:0.0;
           let g = (Lazy.force node).grad.Tensor.data in
           route (fun i src r ->
               let sg = src.grad.Tensor.data in
               let dst = r * d and base = i * d in
               for j = 0 to d - 1 do
                 BA.unsafe_set sg (dst + j)
                   (BA.unsafe_get sg (dst + j) +. BA.unsafe_get g (base + j))
               done)))
  in
  let node = Lazy.force node in
  let v = node.value.Tensor.data in
  route (fun i src r ->
      let sv = src.value.Tensor.data in
      let dst = i * d and base = r * d in
      for j = 0 to d - 1 do
        BA.unsafe_set v (dst + j) (BA.unsafe_get sv (base + j))
      done);
  node

(* ------------------------------------------------------------------ *)
(* Group (segment) reductions                                          *)
(* ------------------------------------------------------------------ *)

(** [group_sum tape a ~groups ~n_groups]: output row [r] is the sum of input
    rows [i] with [groups.(i) = r] (in lane order); [groups.(i) = -1] drops
    a row.  Empty groups are zero rows.  Child-sum aggregation for packed
    trees. *)
let group_sum tape a ~(groups : int array) ~n_groups =
  let l = lanes a and d = dim a in
  if Array.length groups <> l then invalid_arg "Batched.group_sum: groups length mismatch";
  Array.iter
    (fun g -> if g < -1 || g >= n_groups then invalid_arg "Batched.group_sum: bad group id")
    groups;
  if P.on () then P.op op_group_sum ~flops:(fi (l * d)) ~bytes:(fbytes (n_groups * d));
  let rec n =
    lazy
      (push tape n_groups d (fun () ->
           if P.on () then P.op op_group_sum_b ~flops:(fi (l * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to l - 1 do
             let r = groups.(i) in
             if r >= 0 then begin
               let src = r * d and dst = i * d in
               for j = 0 to d - 1 do
                 BA.unsafe_set ag (dst + j)
                   (BA.unsafe_get ag (dst + j) +. BA.unsafe_get g (src + j))
               done
             end
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  BA.fill v 0.0;
  for i = 0 to l - 1 do
    let r = groups.(i) in
    if r >= 0 then begin
      let dst = r * d and src = i * d in
      for j = 0 to d - 1 do
        BA.unsafe_set v (dst + j) (BA.unsafe_get v (dst + j) +. BA.unsafe_get av (src + j))
      done
    end
  done;
  n

(** [group_max tape a ~groups ~n_groups]: per-group, per-column elementwise
    max, gradients routed to the winning row (ties go to the earliest
    lane).  Empty groups produce zero rows with no gradient: an example
    with no traces gets a zero embedding. *)
let group_max tape a ~(groups : int array) ~n_groups =
  let l = lanes a and d = dim a in
  if Array.length groups <> l then invalid_arg "Batched.group_max: groups length mismatch";
  Array.iter
    (fun g -> if g < -1 || g >= n_groups then invalid_arg "Batched.group_max: bad group id")
    groups;
  let who = Array.make (n_groups * d) (-1) in
  if P.on () then P.op op_group_max ~flops:(fi (l * d)) ~bytes:(fbytes (n_groups * d));
  let rec n =
    lazy
      (push tape n_groups d (fun () ->
           if P.on () then P.op op_group_max_b ~flops:(fi (n_groups * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to (n_groups * d) - 1 do
             let w = who.(i) in
             if w >= 0 then BA.unsafe_set ag w (BA.unsafe_get ag w +. BA.unsafe_get g i)
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  BA.fill v 0.0;
  (* two passes: mark winners against -inf, then zero out empty groups *)
  let best = Array.make (n_groups * d) neg_infinity in
  for i = 0 to l - 1 do
    let r = groups.(i) in
    if r >= 0 then begin
      let dst = r * d and src = i * d in
      for j = 0 to d - 1 do
        let x = BA.unsafe_get av (src + j) in
        if x > best.(dst + j) then begin
          best.(dst + j) <- x;
          who.(dst + j) <- src + j
        end
      done
    end
  done;
  for i = 0 to (n_groups * d) - 1 do
    if who.(i) >= 0 then BA.unsafe_set v i best.(i)
  done;
  n

(* ------------------------------------------------------------------ *)
(* Softmax-family row ops                                              *)
(* ------------------------------------------------------------------ *)

(* Shared forward/backward for (optionally masked) per-row softmax.  A row
   whose mask is all zero yields all-zero weights and propagates nothing. *)
let softmax_rows_impl tape a (mask : Tensor.t option) =
  let l = lanes a and k = dim a in
  (match mask with
  | Some m ->
      if m.Tensor.rows <> l || m.Tensor.cols <> k then
        invalid_arg "Batched.masked_softmax_rows: mask shape mismatch"
  | None -> ());
  if P.on () then P.op op_softmax ~flops:(fi (4 * l * k)) ~bytes:(fbytes (l * k));
  let live i j =
    match mask with
    | None -> true
    | Some m -> Tensor.get_idx m ((i * k) + j) > 0.5
  in
  let rec n =
    lazy
      (push tape l k (fun () ->
           if P.on () then P.op op_softmax_b ~flops:(fi (4 * l * k)) ~bytes:0.0;
           let out = Lazy.force n in
           let g = out.grad.Tensor.data and y = out.value.Tensor.data in
           let ag = a.grad.Tensor.data in
           for i = 0 to l - 1 do
             let base = i * k in
             let s = ref 0.0 in
             for j = 0 to k - 1 do
               s := !s +. (BA.unsafe_get g (base + j) *. BA.unsafe_get y (base + j))
             done;
             for j = 0 to k - 1 do
               let yj = BA.unsafe_get y (base + j) in
               (* masked slots have y = 0, so they add exactly nothing *)
               BA.unsafe_set ag (base + j)
                 (BA.unsafe_get ag (base + j)
                 +. (yj *. (BA.unsafe_get g (base + j) -. !s)))
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and av = a.value.Tensor.data in
  for i = 0 to l - 1 do
    let base = i * k in
    let m = ref neg_infinity in
    for j = 0 to k - 1 do
      if live i j then m := Stdlib.max !m (BA.unsafe_get av (base + j))
    done;
    if Float.is_finite !m then begin
      let z = ref 0.0 in
      for j = 0 to k - 1 do
        let e = if live i j then exp (BA.unsafe_get av (base + j) -. !m) else 0.0 in
        BA.unsafe_set v (base + j) e;
        z := !z +. e
      done;
      for j = 0 to k - 1 do
        BA.unsafe_set v (base + j) (BA.unsafe_get v (base + j) /. !z)
      done
    end
    else
      for j = 0 to k - 1 do
        BA.unsafe_set v (base + j) 0.0
      done
  done;
  n

(** Per-row softmax over all columns. *)
let softmax_rows tape a = softmax_rows_impl tape a None

(** Per-row softmax restricted to slots where [mask > 0.5]; masked slots get
    exactly zero weight and zero gradient. *)
let masked_softmax_rows tape a ~(mask : Tensor.t) = softmax_rows_impl tape a (Some mask)

(** [weighted_sum tape w vs]: out lane [i] is [sum_k w[i,k] * vs.(k) lane i]
    — batched attention blending ([w : lanes×K], [vs : K] nodes of equal
    shape). *)
let weighted_sum tape w (vs : node array) =
  let k = Array.length vs in
  if k = 0 then invalid_arg "Batched.weighted_sum: empty";
  if dim w <> k then invalid_arg "Batched.weighted_sum: weight dim mismatch";
  let l = lanes w and d = dim vs.(0) in
  Array.iter
    (fun x ->
      if lanes x <> l || dim x <> d then invalid_arg "Batched.weighted_sum: shape mismatch")
    vs;
  if P.on () then P.op op_wsum ~flops:(fi (2 * l * k * d)) ~bytes:(fbytes (l * d));
  let rec n =
    lazy
      (push tape l d (fun () ->
           if P.on () then P.op op_wsum_b ~flops:(fi (4 * l * k * d)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let wg = w.grad.Tensor.data and wv = w.value.Tensor.data in
           for j = 0 to k - 1 do
             let x = vs.(j) in
             let xg = x.grad.Tensor.data and xv = x.value.Tensor.data in
             for i = 0 to l - 1 do
               let base = i * d in
               let wij = BA.unsafe_get wv ((i * k) + j) in
               let acc = ref 0.0 in
               for c = 0 to d - 1 do
                 let gi = BA.unsafe_get g (base + c) in
                 acc := !acc +. (gi *. BA.unsafe_get xv (base + c));
                 BA.unsafe_set xg (base + c) (BA.unsafe_get xg (base + c) +. (wij *. gi))
               done;
               BA.unsafe_set wg ((i * k) + j) (BA.unsafe_get wg ((i * k) + j) +. !acc)
             done
           done))
  in
  let n = Lazy.force n in
  let v = n.value.Tensor.data and wv = w.value.Tensor.data in
  BA.fill v 0.0;
  for j = 0 to k - 1 do
    let xv = vs.(j).value.Tensor.data in
    for i = 0 to l - 1 do
      let base = i * d in
      let wij = BA.unsafe_get wv ((i * k) + j) in
      if wij <> 0.0 then
        for c = 0 to d - 1 do
          BA.unsafe_set v (base + c)
            (BA.unsafe_get v (base + c) +. (wij *. BA.unsafe_get xv (base + c)))
        done
    done
  done;
  n

(** Sum every entry down to a 1×1 scalar (the batch loss reduction). *)
let sum_all tape a =
  let n_elts = lanes a * dim a in
  if P.on () then P.op op_sum ~flops:(fi n_elts) ~bytes:(fbytes 1);
  let rec n =
    lazy
      (push tape 1 1 (fun () ->
           if P.on () then P.op op_sum_b ~flops:(fi n_elts) ~bytes:0.0;
           let g = Tensor.get_idx (Lazy.force n).grad 0 in
           let ag = a.grad.Tensor.data in
           for i = 0 to n_elts - 1 do
             BA.unsafe_set ag i (BA.unsafe_get ag i +. g)
           done))
  in
  let n = Lazy.force n in
  let av = a.value.Tensor.data in
  let acc = ref 0.0 in
  for i = 0 to n_elts - 1 do
    acc := !acc +. BA.unsafe_get av i
  done;
  Tensor.set_idx n.value 0 !acc;
  n

(** [softmax_xent_rows tape logits ~targets ~weights] is the per-lane
    weighted cross-entropy [-w_i * log softmax(logits_i).(targets_i)] as an
    [L×1] node, plus the probability matrix (aux storage, read-only, valid
    until tape release).  Lanes with weight 0 (padding) contribute exactly
    zero loss and zero gradient; their target index is ignored. *)
let softmax_xent_rows tape logits ~(targets : int array) ~(weights : float array) =
  let l = lanes logits and k = dim logits in
  if Array.length targets <> l then invalid_arg "Batched.softmax_xent_rows: targets length";
  if Array.length weights <> l then invalid_arg "Batched.softmax_xent_rows: weights length";
  Array.iteri
    (fun i t ->
      if weights.(i) <> 0.0 && (t < 0 || t >= k) then
        invalid_arg "Batched.softmax_xent_rows: bad target")
    targets;
  let probs_buf = take_aux tape (l * k) in
  let probs = Tensor.of_buf probs_buf l k in
  if P.on () then P.op op_xent ~flops:(fi (4 * l * k)) ~bytes:(fbytes l);
  let rec n =
    lazy
      (push tape l 1 (fun () ->
           if P.on () then P.op op_xent_b ~flops:(fi (3 * l * k)) ~bytes:0.0;
           let g = (Lazy.force n).grad.Tensor.data in
           let lg = logits.grad.Tensor.data and pv = probs.Tensor.data in
           for i = 0 to l - 1 do
             let w = Array.unsafe_get weights i in
             if w <> 0.0 then begin
               let gi = w *. BA.unsafe_get g i in
               let base = i * k in
               let t = targets.(i) in
               for j = 0 to k - 1 do
                 let delta = if j = t then 1.0 else 0.0 in
                 BA.unsafe_set lg (base + j)
                   (BA.unsafe_get lg (base + j)
                   +. (gi *. (BA.unsafe_get pv (base + j) -. delta)))
               done
             end
           done))
  in
  let n = Lazy.force n in
  let lv = logits.value.Tensor.data and pv = probs.Tensor.data in
  for i = 0 to l - 1 do
    let base = i * k in
    let m = ref neg_infinity in
    for j = 0 to k - 1 do
      m := Stdlib.max !m (BA.unsafe_get lv (base + j))
    done;
    let z = ref 0.0 in
    for j = 0 to k - 1 do
      let e = exp (BA.unsafe_get lv (base + j) -. !m) in
      BA.unsafe_set pv (base + j) e;
      z := !z +. e
    done;
    for j = 0 to k - 1 do
      BA.unsafe_set pv (base + j) (BA.unsafe_get pv (base + j) /. !z)
    done;
    let w = weights.(i) in
    Tensor.set_idx n.value i
      (if w = 0.0 then 0.0
       else -.w *. log (Stdlib.max 1e-12 (BA.unsafe_get pv (base + targets.(i)))))
  done;
  (n, probs)

(* ------------------------------------------------------------------ *)
(* Backward / release                                                  *)
(* ------------------------------------------------------------------ *)

let release_tape tape =
  if tape.alloc_bytes > 0 then begin
    P.release tape.alloc_bytes;
    tape.alloc_bytes <- 0
  end;
  List.iter
    (fun n ->
      Bufpool.give n.value.Tensor.data;
      Bufpool.give n.grad.Tensor.data)
    tape.nodes;
  List.iter Bufpool.give tape.aux;
  tape.nodes <- [];
  tape.aux <- [];
  tape.n_ops <- 0

(** Seed the scalar loss gradient and replay the tape in reverse, then
    release every node buffer back to the pool (node values become invalid).
    When profiling, backward time is attributed to the layer that created
    each node; the clock is read only when the layer tag changes along the
    tape. *)
let backward tape loss =
  if lanes loss <> 1 || dim loss <> 1 then
    invalid_arg "Batched.backward: loss must be 1x1";
  Tensor.set_idx loss.grad 0 1.0;
  (if P.on () then begin
     match tape.nodes with
     | [] -> ()
     | first :: _ ->
         let cur = ref first.tag in
         let t0 = ref (P.now ()) in
         List.iter
           (fun n ->
             if n.tag <> !cur then begin
               let t = P.now () in
               P.add_bwd !cur (t -. !t0);
               cur := n.tag;
               t0 := t
             end;
             n.back ())
           tape.nodes;
         P.add_bwd !cur (P.now () -. !t0)
   end
   else List.iter (fun n -> n.back ()) tape.nodes);
  release_tape tape

(** Drop the recorded graph without propagating (inference); node buffers
    return to the pool. *)
let discard tape = release_tape tape
