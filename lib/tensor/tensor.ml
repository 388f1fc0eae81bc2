(** Dense row-major float tensors (rank 1 and 2) and the raw numeric kernels
    the batched autodiff engine ({!Batched}) is built on.

    Storage is a flat C-layout [Bigarray] of float64 — off the OCaml heap, so
    big activation/parameter blocks neither move during GC nor contribute to
    minor-heap pressure, and a buffer leased from {!Bufpool} (a size-class
    buffer, possibly longer than the tensor) is wrapped without copying.
    A tensor is the first [rows × cols] elements of its buffer, and every
    whole-tensor function here is bounded by that size, never by the
    buffer's length.  Vectors are represented with [rows = 1].  The
    OCaml loops here use [unsafe_get]/[unsafe_set] over monomorphic
    bigarrays (the float64 kind is statically known, so access compiles
    to unboxed loads).

    Every {!Batched} node value and gradient is a [lanes × dim] tensor.
    The one helper over a raw [float array], [argmax], picks from a lane
    copied out of a node ({!Batched.row_value}).

    The engine's matrix work runs on the {!gemm_nt}/{!gemm_nn}/{!gemm_tn}
    kernels and their [_slice] twins, whose bodies are C ([gemm_stubs.c],
    bound by {!nt_body} and {!axpy_body}): [gemm_nt] is a cache-blocked dot
    over four output columns at a time, its four partial sums the lanes of
    one 4-wide vector; [gemm_nn]/[gemm_tn] accumulate B rows into a C row,
    four columns per vector and four terms per pass.  Each output element
    sees a documented, fixed sequence of float operations (see {!nt_body}
    and {!axpy_body}; [test/test_batched.ml] pins it bit for bit against
    ordered scalar reference loops).  Vectors run only across
    independent lanes or columns, and the C file is compiled with
    [-ffp-contract=off] so that no multiply and add fuse into an FMA (GNU
    C fuses by default whenever the compile target has FMA: any aarch64
    build, or x86-64 with [-march=haswell] and later).  It takes no
    [-march] flag and no CPU dispatch: one baseline build (SSE2 on x86-64)
    runs the same instructions on every host, and an AVX2 build trained no
    faster beyond the host's run-to-run spread.

    Above {!gemm_par_flops} FLOPs per call the output rows are partitioned
    across the domain pool.  [lib/tensor] cannot depend on [lib/parallel] (which
    uses {!Rng}), so the pool injects itself through {!set_parallel_runner};
    partitioning is over disjoint output-row blocks, so parallel results
    are bitwise equal to sequential ones (the [jobs=1 ≡ jobs=N] contract
    holds down to the kernel). *)

module A = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { data : buf; rows : int; cols : int }

let size t = t.rows * t.cols

(* When profiling, tensor storage feeds the live/peak memory gauges: 8 bytes
   per element on allocation, released by a GC finaliser when the tensor
   dies.  Disabled cost: one atomic load per construction. *)
let track t =
  if Liger_obs.Profile.on () then begin
    let b = 8 * size t in
    Liger_obs.Profile.alloc b;
    Gc.finalise (fun (_ : t) -> Liger_obs.Profile.release b) t
  end;
  t

let alloc_buf n : buf = A.create Bigarray.float64 Bigarray.c_layout n

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Tensor.create: non-positive dim";
  let data = alloc_buf (rows * cols) in
  A.fill data 0.0;
  track { data; rows; cols }

let zeros = create

(** Wrap an existing buffer (e.g. one leased from {!Bufpool}) without
    copying or profiler tracking; the buffer must hold at least
    [rows * cols] elements, and the tensor is its first [rows * cols].
    The caller owns the buffer's lifetime. *)
let of_buf data rows cols =
  if A.dim data < rows * cols then invalid_arg "Tensor.of_buf: buffer too short";
  { data; rows; cols }

(** Matrix from a row-major nested array. Rows must be nonempty and equal
    length. *)
let of_rows rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Tensor.of_rows: empty";
  let cols = Array.length rows_arr.(0) in
  let t = create rows cols in
  Array.iteri
    (fun i r ->
      if Array.length r <> cols then invalid_arg "Tensor.of_rows: ragged";
      let base = i * cols in
      for j = 0 to cols - 1 do
        A.unsafe_set t.data (base + j) (Array.unsafe_get r j)
      done)
    rows_arr;
  t

(** Overwrite [dst]'s elements with [src]'s; their sizes must match. *)
let blit src dst =
  if size src <> size dst then invalid_arg "Tensor.blit: size mismatch";
  for i = 0 to size src - 1 do
    A.unsafe_set dst.data i (A.unsafe_get src.data i)
  done

let copy t =
  let c = create t.rows t.cols in
  blit t c;
  c

(** Flat element access (row-major).  The index is checked against
    [rows × cols], not against the buffer, which may be longer. *)
let get_idx t i =
  if i < 0 || i >= size t then invalid_arg "Tensor.get_idx: index out of bounds";
  A.unsafe_get t.data i

let set_idx t i x =
  if i < 0 || i >= size t then invalid_arg "Tensor.set_idx: index out of bounds";
  A.unsafe_set t.data i x

let get t i j = get_idx t ((i * t.cols) + j)
let set t i j x = set_idx t ((i * t.cols) + j) x

let fill t x =
  for i = 0 to size t - 1 do
    A.unsafe_set t.data i x
  done

(** Copy out as a row-major float array. *)
let to_array t =
  let n = size t in
  Array.init n (fun i -> A.unsafe_get t.data i)

(** Overwrite the tensor's contents from a row-major float array of the same
    total size. *)
let blit_from_array a t =
  if Array.length a <> size t then invalid_arg "Tensor.blit_from_array: size mismatch";
  for i = 0 to Array.length a - 1 do
    A.unsafe_set t.data i (Array.unsafe_get a i)
  done

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

(* ------------------------------------------------------------------ *)
(* GEMM: the batched engine's workhorse.                               *)
(* ------------------------------------------------------------------ *)

(* Domain-parallel dispatch is dependency-injected by [lib/parallel] at its
   module initialisation ([lib/tensor] must not depend on it).  The runner
   executes [f 0 .. f (n-1)], in any schedule, returning once all are done;
   tasks write disjoint output-row blocks, so any schedule produces the same
   bits. *)
let parallel_runner : ((int -> unit) -> int -> unit) option ref = ref None

let set_parallel_runner f = parallel_runner := Some f

(* FLOPs (2mnk) below which a GEMM always runs sequentially: dispatch costs
   tens of microseconds and the models in this repo mostly issue small
   matmuls.  Tests lower it with [set_gemm_par_flops]. *)
let gemm_par_flops = ref 4_000_000

let set_gemm_par_flops n =
  if n < 0 then invalid_arg "Tensor.set_gemm_par_flops: negative";
  gemm_par_flops := n

(* Row-block partitioning: [run_rows m k body] calls [body i0 i1] over a
   partition of [0, m); parallel when the work is big enough and a runner is
   installed.  Blocks are fixed-size, so the partition (and therefore the
   written bytes) is schedule-independent. *)
let run_rows ~m ~flops body =
  match !parallel_runner with
  | Some run when flops >= !gemm_par_flops && m > 1 ->
      let block = max 8 ((m + 15) / 16) in
      let n_blocks = (m + block - 1) / block in
      run (fun b ->
          let i0 = b * block in
          body i0 (Stdlib.min m (i0 + block)))
        n_blocks
  | _ -> body 0 m

let gemm_check name ~am ~ak ~bm ~bk ~cm ~cn a b c =
  if a.rows <> am || a.cols <> ak then
    invalid_arg (Printf.sprintf "%s: A is %dx%d, expected %dx%d" name a.rows a.cols am ak);
  if b.rows <> bm || b.cols <> bk then
    invalid_arg (Printf.sprintf "%s: B is %dx%d, expected %dx%d" name b.rows b.cols bm bk);
  if c.rows <> cm || c.cols <> cn then
    invalid_arg (Printf.sprintf "%s: C is %dx%d, expected %dx%d" name c.rows c.cols cm cn)

(* The two GEMM bodies, in [gemm_stubs.c].  Each fills output rows
   [i0, i1) of C; the gemm entry points below check shapes and hand the row
   range to {!run_rows}.

   [nt_body]: the dot-product body shared by [gemm_nt] and [gemm_nt_slice];
   A is m×k, B row j starts at [j*ld + boff], C is m×n.  Per output
   element: four partial sums take terms p = 0, 1, 2, 3 (mod 4) of the
   first 4*(k/4) terms, the tail goes into the first, the dot is
   ((s0 + s1) + s2) + s3, and the element becomes
   (beta = 0 ? 0 : beta*c) + alpha*dot.  The four sums are the lanes of one
   4-wide vector; four output columns share each load of the A row. *)
external nt_body :
  alpha:(float[@unboxed]) -> beta:(float[@unboxed]) -> i0:(int[@untagged]) ->
  i1:(int[@untagged]) -> n:(int[@untagged]) -> k:(int[@untagged]) -> ld:(int[@untagged]) ->
  boff:(int[@untagged]) -> buf -> buf -> buf -> unit
  = "liger_gemm_nt_byte" "liger_gemm_nt"
[@@noalloc]

(* [axpy_body]: the row-axpy body shared by [gemm_nn], [gemm_tn] and their
   slices.  Output row i is C at [i*ldc + coff]; term p has coefficient
   alpha * A at [i*ai + p*ap] and B row [p*ldb + boff].  Per output
   element: c starts as 0 (beta = 0), c (beta = 1) or beta*c; then
   c <- c + s_p * B(p,j) for p = 0 .. k-1, skipped where s_p = 0 (so
   -0.0 in C and NaN in B behind a zero coefficient survive).  When four
   consecutive coefficients are all non-zero, one pass over the row adds
   their four products to c in p order; otherwise each term runs its own
   pass, skipping a zero coefficient — the same float operations either
   way.  Vectors run across four output columns. *)
external axpy_body :
  alpha:(float[@unboxed]) -> beta:(float[@unboxed]) -> i0:(int[@untagged]) ->
  i1:(int[@untagged]) -> n:(int[@untagged]) -> k:(int[@untagged]) -> ai:(int[@untagged]) ->
  ap:(int[@untagged]) -> ldb:(int[@untagged]) -> boff:(int[@untagged]) ->
  ldc:(int[@untagged]) -> coff:(int[@untagged]) -> buf -> buf -> buf -> unit
  = "liger_gemm_axpy_byte" "liger_gemm_axpy"
[@@noalloc]

let nt ~alpha ~beta ~m ~n ~k ~ld ~boff (ad : buf) (bd : buf) (cd : buf) =
  run_rows ~m ~flops:(2 * m * n * k) (fun i0 i1 ->
      nt_body ~alpha ~beta ~i0 ~i1 ~n ~k ~ld ~boff ad bd cd)

let axpy ~alpha ~beta ~m ~n ~k ~ai ~ap ~ldb ~boff ~ldc ~coff (ad : buf) (bd : buf) (cd : buf) =
  run_rows ~m ~flops:(2 * m * n * k) (fun i0 i1 ->
      axpy_body ~alpha ~beta ~i0 ~i1 ~n ~k ~ai ~ap ~ldb ~boff ~ldc ~coff ad bd cd)

(** [gemm_nt ~alpha ~beta a b c]: [C <- alpha * A * B^T + beta * C] with
    [A : m×k], [B : n×k], [C : m×n].  The forward pass of a batched affine
    layer ([X · W^T]).  Cache-blocked over output tiles; the inner dot
    products run over contiguous rows, four terms and four output columns
    per step. *)
let gemm_nt ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.rows in
  gemm_check "Tensor.gemm_nt" ~am:m ~ak:k ~bm:n ~bk:k ~cm:m ~cn:n a b c;
  nt ~alpha ~beta ~m ~n ~k ~ld:k ~boff:0 a.data b.data c.data

(** [gemm_nn ~alpha ~beta a b c]: [C <- alpha * A * B + beta * C] with
    [A : m×k], [B : k×n], [C : m×n].  The input-gradient pass
    ([dX <- dY · W]).  Row-major friendly: the C row accumulates axpy
    contributions of B rows, streamed in k order. *)
let gemm_nn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_nn" ~am:m ~ak:k ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  axpy ~alpha ~beta ~m ~n ~k ~ai:k ~ap:1 ~ldb:n ~boff:0 ~ldc:n ~coff:0 a.data b.data
    c.data

(** [gemm_tn ~alpha ~beta a b c]: [C <- alpha * A^T * B + beta * C] with
    [A : k×m], [B : k×n], [C : m×n].  The weight-gradient pass
    ([dW <- dY^T · X], k = batch lanes).  Parallelism partitions C rows
    (output neurons), never the k reduction, keeping accumulation order
    fixed. *)
let gemm_tn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let k = a.rows and m = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_tn" ~am:k ~ak:m ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  axpy ~alpha ~beta ~m ~n ~k ~ai:1 ~ap:m ~ldb:n ~boff:0 ~ldc:n ~coff:0 a.data b.data
    c.data

(* Column-sliced variants: the B (resp. C) operand is a [boff, boff+bk)
   (resp. [coff, coff+n)) column window of a wider matrix with row stride
   [ld].  Used to run an affine layer against a column block of its weight
   without materialising the slice — attention computes
   [W·(h ++ q) = W_h·h + W_q·q] this way, so the memory-side projection can
   be hoisted out of the decode loop. *)

(** [gemm_nt_slice ~ld ~boff a b c]: [C <- alpha * A * B[:, boff..boff+k)^T
    + beta * C] with [A : m×k], [B : n×ld] (row stride [ld]), [C : m×n]. *)
let gemm_nt_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~boff a b c =
  let m = a.rows and k = a.cols and n = b.rows in
  if b.cols <> ld || boff < 0 || boff + k > ld then
    invalid_arg "Tensor.gemm_nt_slice: bad slice";
  if c.rows <> m || c.cols <> n then invalid_arg "Tensor.gemm_nt_slice: C shape";
  nt ~alpha ~beta ~m ~n ~k ~ld ~boff a.data b.data c.data

(** [gemm_nn_slice ~ld ~boff a b c]: [C <- alpha * A * B[:, boff..boff+n)
    + beta * C] with [A : m×k], [B : k×ld], [C : m×n].  The input-gradient
    pass of a sliced affine layer ([dX <- dY · W_slice]). *)
let gemm_nn_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~boff a b c =
  let m = a.rows and k = a.cols and n = c.cols in
  if b.rows <> k || b.cols <> ld || boff < 0 || boff + n > ld then
    invalid_arg "Tensor.gemm_nn_slice: bad slice";
  if c.rows <> m then invalid_arg "Tensor.gemm_nn_slice: C shape";
  axpy ~alpha ~beta ~m ~n ~k ~ai:k ~ap:1 ~ldb:ld ~boff ~ldc:n ~coff:0 a.data b.data
    c.data

(** [gemm_tn_slice ~ld ~coff a b c]: [C[:, coff..coff+n) <- alpha * A^T * B
    + beta * C[:, coff..coff+n)] with [A : k×m], [B : k×n], [C : m×ld].
    The weight-gradient pass of a sliced affine layer
    ([dW_slice <- dY^T · X]); only the addressed window is written. *)
let gemm_tn_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~coff a b c =
  let k = a.rows and m = a.cols and n = b.cols in
  if b.rows <> k then invalid_arg "Tensor.gemm_tn_slice: B shape";
  if c.rows <> m || c.cols <> ld || coff < 0 || coff + n > ld then
    invalid_arg "Tensor.gemm_tn_slice: bad slice";
  axpy ~alpha ~beta ~m ~n ~k ~ai:1 ~ap:m ~ldb:n ~boff:0 ~ldc:ld ~coff a.data b.data
    c.data
