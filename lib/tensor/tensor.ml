(** Dense row-major float tensors (rank 1 and 2) and the raw numeric kernels
    the autodiff layers are built on.

    Storage is a flat C-layout [Bigarray] of float64 — off the OCaml heap, so
    big activation/parameter blocks neither move during GC nor contribute to
    minor-heap pressure, and a pooled buffer ({!Bufpool}) can be re-wrapped
    without copying.  Vectors are represented with [rows = 1].  All kernels
    use [unsafe_get]/[unsafe_set] inner loops over monomorphic bigarrays
    (the float64 kind is statically known, so access compiles to unboxed
    loads) because they dominate training time.

    Per-example autodiff node values remain small [float array]s; the raw
    float-array helpers ([axpy], [dot], [softmax], [argmax]) serve those, and
    the matrix kernels mix the two representations (bigarray matrix, float
    array vectors).

    The batched engine ({!Batched}) runs on the {!gemm_nt}/{!gemm_nn}/
    {!gemm_tn} kernels: cache-blocked, 4-way unrolled inner loops, and —
    above {!gemm_par_flops} FLOPs per call — row-partitioned across the
    domain pool.  [lib/tensor] cannot depend on [lib/parallel] (which uses
    {!Rng}), so the pool injects itself through {!set_parallel_runner};
    partitioning is over disjoint output-row blocks with a fixed per-row
    summation order, making parallel results bitwise equal to sequential
    ones (the [jobs=1 ≡ jobs=N] contract holds down to the kernel). *)

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

let full rows cols x =
  let t = create rows cols in
  A.fill t.data x;
  t

(** Wrap an existing buffer (e.g. one leased from {!Bufpool}) without
    copying or profiler tracking; the buffer's length must match exactly.
    The caller owns the buffer's lifetime. *)
let of_buf data rows cols =
  if A.dim data <> rows * cols then invalid_arg "Tensor.of_buf: size mismatch";
  { data; rows; cols }

(** Vector (1 x n) from an array; the array is copied. *)
let of_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Tensor.of_array: empty";
  let data = alloc_buf n in
  for i = 0 to n - 1 do
    A.unsafe_set data i (Array.unsafe_get a i)
  done;
  track { data; rows = 1; cols = n }

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

let copy t =
  let c = create t.rows t.cols in
  A.blit t.data c.data;
  c

let get t i j = A.get t.data ((i * t.cols) + j)
let set t i j x = A.set t.data ((i * t.cols) + j) x

(** Flat element access (row-major). *)
let get_idx t i = A.get t.data i

let set_idx t i x = A.set t.data i x

let fill t x = A.fill t.data x

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

let blit src dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    invalid_arg "Tensor.blit: shape mismatch";
  A.blit src.data dst.data

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let check_same_shape name a b =
  if not (same_shape a b) then
    invalid_arg
      (Printf.sprintf "%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols
         b.rows b.cols)

(* ------------------------------------------------------------------ *)
(* In-place kernels on raw float arrays.                               *)
(* ------------------------------------------------------------------ *)

(** [axpy a x y] computes [y <- a*x + y] elementwise over raw arrays. *)
let axpy a x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Tensor.axpy: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set y i
      ((a *. Array.unsafe_get x i) +. Array.unsafe_get y i)
  done

(** [matvec m x out] computes [out <- m * x] where [x] has length [m.cols]
    and [out] has length [m.rows]. *)
let matvec m x out =
  if Array.length x <> m.cols then invalid_arg "Tensor.matvec: bad x";
  if Array.length out <> m.rows then invalid_arg "Tensor.matvec: bad out";
  let data = m.data and cols = m.cols in
  for i = 0 to m.rows - 1 do
    let base = i * cols in
    let acc = ref 0.0 in
    for j = 0 to cols - 1 do
      acc := !acc +. (A.unsafe_get data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set out i !acc
  done

(** [outer_acc g x m_grad] accumulates [m_grad += g x^T]. *)
let outer_acc g x m_grad =
  let rows = Array.length g and cols = Array.length x in
  if A.dim m_grad.data <> rows * cols then
    invalid_arg "Tensor.outer_acc: bad m_grad";
  let data = m_grad.data in
  for i = 0 to rows - 1 do
    let gi = Array.unsafe_get g i in
    if gi <> 0.0 then begin
      let base = i * cols in
      for j = 0 to cols - 1 do
        A.unsafe_set data (base + j)
          (A.unsafe_get data (base + j) +. (gi *. Array.unsafe_get x j))
      done
    end
  done

let dot x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Tensor.dot: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

let map f t =
  let r = create t.rows t.cols in
  for i = 0 to size t - 1 do
    A.unsafe_set r.data i (f (A.unsafe_get t.data i))
  done;
  r

let sum t =
  let acc = ref 0.0 in
  for i = 0 to size t - 1 do
    acc := !acc +. A.unsafe_get t.data i
  done;
  !acc

let l2_norm t =
  let acc = ref 0.0 in
  for i = 0 to size t - 1 do
    let x = A.unsafe_get t.data i in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let max_elt t =
  let acc = ref neg_infinity in
  for i = 0 to size t - 1 do
    acc := Stdlib.max !acc (A.unsafe_get t.data i)
  done;
  !acc

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

(** Numerically stable softmax of a raw array, returned as a fresh array. *)
let softmax a =
  let m = Array.fold_left Stdlib.max neg_infinity a in
  let e = Array.map (fun x -> exp (x -. m)) a in
  let z = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. z) e

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
   matmuls.  Override with LIGER_GEMM_PAR_FLOPS or [set_gemm_par_flops]. *)
let gemm_par_flops =
  ref
    (match Sys.getenv_opt "LIGER_GEMM_PAR_FLOPS" with
    | None -> 4_000_000
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 -> n
        | _ -> invalid_arg ("LIGER_GEMM_PAR_FLOPS must be a non-negative integer, got " ^ s)))

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

(** [gemm_nt ~alpha ~beta a b c]: [C <- alpha * A * B^T + beta * C] with
    [A : m×k], [B : n×k], [C : m×n].  The forward pass of a batched affine
    layer ([X · W^T]).  Cache-blocked over output tiles; the inner dot
    product runs over two contiguous rows, unrolled 4-way. *)
let gemm_nt ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.rows in
  gemm_check "Tensor.gemm_nt" ~am:m ~ak:k ~bm:n ~bk:k ~cm:m ~cn:n a b c;
  let ad = a.data and bd = b.data and cd = c.data in
  let tile = 32 in
  let body i0 i1 =
    let jb = ref 0 in
    while !jb < n do
      let j1 = Stdlib.min n (!jb + tile) in
      for i = i0 to i1 - 1 do
        let abase = i * k in
        for j = !jb to j1 - 1 do
          let bbase = j * k in
          (* 4-way unrolled dot of rows A[i,:] and B[j,:] *)
          let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
          let p = ref 0 in
          while !p + 3 < k do
            let q = !p in
            acc0 := !acc0 +. (A.unsafe_get ad (abase + q) *. A.unsafe_get bd (bbase + q));
            acc1 :=
              !acc1 +. (A.unsafe_get ad (abase + q + 1) *. A.unsafe_get bd (bbase + q + 1));
            acc2 :=
              !acc2 +. (A.unsafe_get ad (abase + q + 2) *. A.unsafe_get bd (bbase + q + 2));
            acc3 :=
              !acc3 +. (A.unsafe_get ad (abase + q + 3) *. A.unsafe_get bd (bbase + q + 3));
            p := q + 4
          done;
          while !p < k do
            acc0 := !acc0 +. (A.unsafe_get ad (abase + !p) *. A.unsafe_get bd (bbase + !p));
            incr p
          done;
          let acc = !acc0 +. !acc1 +. !acc2 +. !acc3 in
          let ci = (i * n) + j in
          let prev = if beta = 0.0 then 0.0 else beta *. A.unsafe_get cd ci in
          A.unsafe_set cd ci (prev +. (alpha *. acc))
        done
      done;
      jb := j1
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(** [gemm_nn ~alpha ~beta a b c]: [C <- alpha * A * B + beta * C] with
    [A : m×k], [B : k×n], [C : m×n].  The input-gradient pass
    ([dX <- dY · W]).  Row-major friendly: the C row accumulates axpy
    contributions of B rows, streamed in k order. *)
let gemm_nn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_nn" ~am:m ~ak:k ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  let ad = a.data and bd = b.data and cd = c.data in
  let body i0 i1 =
    for i = i0 to i1 - 1 do
      let cbase = i * n in
      if beta = 0.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) 0.0
        done
      else if beta <> 1.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) (beta *. A.unsafe_get cd (cbase + j))
        done;
      let abase = i * k in
      for p = 0 to k - 1 do
        let aip = alpha *. A.unsafe_get ad (abase + p) in
        if aip <> 0.0 then begin
          let bbase = p * n in
          for j = 0 to n - 1 do
            A.unsafe_set cd (cbase + j)
              (A.unsafe_get cd (cbase + j) +. (aip *. A.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(** [gemm_tn ~alpha ~beta a b c]: [C <- alpha * A^T * B + beta * C] with
    [A : k×m], [B : k×n], [C : m×n].  The weight-gradient pass
    ([dW <- dY^T · X], k = batch lanes).  Parallelism partitions C rows
    (output neurons), never the k reduction, keeping accumulation order
    fixed. *)
let gemm_tn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let k = a.rows and m = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_tn" ~am:k ~ak:m ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  let ad = a.data and bd = b.data and cd = c.data in
  let body i0 i1 =
    for i = i0 to i1 - 1 do
      let cbase = i * n in
      if beta = 0.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) 0.0
        done
      else if beta <> 1.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) (beta *. A.unsafe_get cd (cbase + j))
        done;
      for p = 0 to k - 1 do
        let api = alpha *. A.unsafe_get ad ((p * m) + i) in
        if api <> 0.0 then begin
          let bbase = p * n in
          for j = 0 to n - 1 do
            A.unsafe_set cd (cbase + j)
              (A.unsafe_get cd (cbase + j) +. (api *. A.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

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
  let ad = a.data and bd = b.data and cd = c.data in
  let tile = 32 in
  let body i0 i1 =
    let jb = ref 0 in
    while !jb < n do
      let j1 = Stdlib.min n (!jb + tile) in
      for i = i0 to i1 - 1 do
        let abase = i * k in
        for j = !jb to j1 - 1 do
          let bbase = (j * ld) + boff in
          let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
          let p = ref 0 in
          while !p + 3 < k do
            let q = !p in
            acc0 := !acc0 +. (A.unsafe_get ad (abase + q) *. A.unsafe_get bd (bbase + q));
            acc1 :=
              !acc1 +. (A.unsafe_get ad (abase + q + 1) *. A.unsafe_get bd (bbase + q + 1));
            acc2 :=
              !acc2 +. (A.unsafe_get ad (abase + q + 2) *. A.unsafe_get bd (bbase + q + 2));
            acc3 :=
              !acc3 +. (A.unsafe_get ad (abase + q + 3) *. A.unsafe_get bd (bbase + q + 3));
            p := q + 4
          done;
          while !p < k do
            acc0 := !acc0 +. (A.unsafe_get ad (abase + !p) *. A.unsafe_get bd (bbase + !p));
            incr p
          done;
          let acc = !acc0 +. !acc1 +. !acc2 +. !acc3 in
          let ci = (i * n) + j in
          let prev = if beta = 0.0 then 0.0 else beta *. A.unsafe_get cd ci in
          A.unsafe_set cd ci (prev +. (alpha *. acc))
        done
      done;
      jb := j1
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(** [gemm_nn_slice ~ld ~boff a b c]: [C <- alpha * A * B[:, boff..boff+n)
    + beta * C] with [A : m×k], [B : k×ld], [C : m×n].  The input-gradient
    pass of a sliced affine layer ([dX <- dY · W_slice]). *)
let gemm_nn_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~boff a b c =
  let m = a.rows and k = a.cols and n = c.cols in
  if b.rows <> k || b.cols <> ld || boff < 0 || boff + n > ld then
    invalid_arg "Tensor.gemm_nn_slice: bad slice";
  if c.rows <> m then invalid_arg "Tensor.gemm_nn_slice: C shape";
  let ad = a.data and bd = b.data and cd = c.data in
  let body i0 i1 =
    for i = i0 to i1 - 1 do
      let cbase = i * n in
      if beta = 0.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) 0.0
        done
      else if beta <> 1.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) (beta *. A.unsafe_get cd (cbase + j))
        done;
      let abase = i * k in
      for p = 0 to k - 1 do
        let aip = alpha *. A.unsafe_get ad (abase + p) in
        if aip <> 0.0 then begin
          let bbase = (p * ld) + boff in
          for j = 0 to n - 1 do
            A.unsafe_set cd (cbase + j)
              (A.unsafe_get cd (cbase + j) +. (aip *. A.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(** [gemm_tn_slice ~ld ~coff a b c]: [C[:, coff..coff+n) <- alpha * A^T * B
    + beta * C[:, coff..coff+n)] with [A : k×m], [B : k×n], [C : m×ld].
    The weight-gradient pass of a sliced affine layer
    ([dW_slice <- dY^T · X]); only the addressed window is written. *)
let gemm_tn_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~coff a b c =
  let k = a.rows and m = a.cols and n = b.cols in
  if b.rows <> k then invalid_arg "Tensor.gemm_tn_slice: B shape";
  if c.rows <> m || c.cols <> ld || coff < 0 || coff + n > ld then
    invalid_arg "Tensor.gemm_tn_slice: bad slice";
  let ad = a.data and bd = b.data and cd = c.data in
  let body i0 i1 =
    for i = i0 to i1 - 1 do
      let cbase = (i * ld) + coff in
      if beta = 0.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) 0.0
        done
      else if beta <> 1.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) (beta *. A.unsafe_get cd (cbase + j))
        done;
      for p = 0 to k - 1 do
        let api = alpha *. A.unsafe_get ad ((p * m) + i) in
        if api <> 0.0 then begin
          let bbase = p * n in
          for j = 0 to n - 1 do
            A.unsafe_set cd (cbase + j)
              (A.unsafe_get cd (cbase + j) +. (api *. A.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(* ------------------------------------------------------------------ *)
(* Float32 storage (embedding indexes, serving-side snapshots).        *)
(* ------------------------------------------------------------------ *)

(** Single-precision matrices: same layout as {!t} at half the bytes.
    Used where precision is not training-critical (frozen embedding
    indexes, read-only snapshots); the kernels mirror the float64 ones. *)
module F32 = struct
  type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) A.t

  type t32 = { data : buf32; rows : int; cols : int }

  let create rows cols =
    if rows <= 0 || cols <= 0 then invalid_arg "Tensor.F32.create: non-positive dim";
    let data = A.create Bigarray.float32 Bigarray.c_layout (rows * cols) in
    A.fill data 0.0;
    { data; rows; cols }

  let size t = t.rows * t.cols
  let get t i j = A.get t.data ((i * t.cols) + j)
  let set t i j x = A.set t.data ((i * t.cols) + j) x

  let of_array a =
    let n = Array.length a in
    if n = 0 then invalid_arg "Tensor.F32.of_array: empty";
    let t = create 1 n in
    for i = 0 to n - 1 do
      A.unsafe_set t.data i (Array.unsafe_get a i)
    done;
    t

  let to_array t =
    Array.init (size t) (fun i -> A.unsafe_get t.data i)

  (** Row [i] copied out as a float array (values round-tripped through
      single precision). *)
  let row t i =
    let base = i * t.cols in
    Array.init t.cols (fun j -> A.unsafe_get t.data (base + j))

  (** Overwrite row [i] from a float array (narrowing to float32). *)
  let set_row t i (v : float array) =
    if Array.length v <> t.cols then invalid_arg "Tensor.F32.set_row: bad length";
    let base = i * t.cols in
    for j = 0 to t.cols - 1 do
      A.unsafe_set t.data (base + j) (Array.unsafe_get v j)
    done

  (** Narrow a float64 tensor to float32 storage. *)
  let of_f64 (src : t) =
    let dst = create src.rows src.cols in
    for i = 0 to size dst - 1 do
      A.unsafe_set dst.data i (A.unsafe_get src.data i)
    done;
    dst

  (** [matvec m x out]: [out <- m * x] with float64 vector operands —
      queries stay double precision against a narrowed matrix. *)
  let matvec m (x : float array) (out : float array) =
    if Array.length x <> m.cols then invalid_arg "Tensor.F32.matvec: bad x";
    if Array.length out <> m.rows then invalid_arg "Tensor.F32.matvec: bad out";
    let data = m.data and cols = m.cols in
    for i = 0 to m.rows - 1 do
      let base = i * cols in
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        acc := !acc +. (A.unsafe_get data (base + j) *. Array.unsafe_get x j)
      done;
      Array.unsafe_set out i !acc
    done

  (** [gemm_nt a b c]: [C <- A * B^T] (float32 throughout, C overwritten). *)
  let gemm_nt a b c =
    let m = a.rows and k = a.cols and n = b.rows in
    if b.cols <> k || c.rows <> m || c.cols <> n then
      invalid_arg "Tensor.F32.gemm_nt: shape mismatch";
    let ad = a.data and bd = b.data and cd = c.data in
    for i = 0 to m - 1 do
      let abase = i * k in
      for j = 0 to n - 1 do
        let bbase = j * k in
        let acc = ref 0.0 in
        for p = 0 to k - 1 do
          acc := !acc +. (A.unsafe_get ad (abase + p) *. A.unsafe_get bd (bbase + p))
        done;
        A.unsafe_set cd ((i * n) + j) !acc
      done
    done
end

let pp ppf t =
  Fmt.pf ppf "@[<v>tensor %dx%d" t.rows t.cols;
  for i = 0 to Stdlib.min 4 (t.rows - 1) do
    Fmt.pf ppf "@,[";
    for j = 0 to Stdlib.min 7 (t.cols - 1) do
      Fmt.pf ppf "%s%.4f" (if j > 0 then "; " else "") (get t i j)
    done;
    if t.cols > 8 then Fmt.pf ppf "; ...";
    Fmt.pf ppf "]"
  done;
  if t.rows > 5 then Fmt.pf ppf "@,...";
  Fmt.pf ppf "@]"
