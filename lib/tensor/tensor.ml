(** Dense row-major float tensors (rank 1 and 2) and the raw numeric kernels
    the batched autodiff engine ({!Batched}) is built on.

    Storage is a flat C-layout [Bigarray] of float64 — off the OCaml heap, so
    big activation/parameter blocks neither move during GC nor contribute to
    minor-heap pressure, and a buffer leased from {!Bufpool} (an exact-length
    view of a size-class buffer) is wrapped without copying.  Vectors are
    represented with [rows = 1].  All kernels use [unsafe_get]/[unsafe_set]
    inner loops over monomorphic bigarrays (the float64 kind is statically
    known, so access compiles to unboxed loads) because they dominate
    training time.

    Every {!Batched} node value and gradient is a [lanes × dim] tensor.
    The one helper over a raw [float array], [argmax], picks from a lane
    copied out of a node ({!Batched.row_value}).

    The engine's matrix work runs on the {!gemm_nt}/{!gemm_nn}/{!gemm_tn}
    kernels and their [_slice] twins: [gemm_nt] is a cache-blocked, 4-way
    unrolled dot over two output columns at a time; [gemm_nn]/[gemm_tn]
    accumulate B rows into a C row, register-blocked over four terms at a
    time.  Each output element sees a documented, fixed sequence of float
    operations (see {!nt_body} and {!axpy_body}; [test/test_batched.ml]
    pins it bit for bit).  Above
    {!gemm_par_flops} FLOPs per call the output rows are partitioned across
    the domain pool.  [lib/tensor] cannot depend on [lib/parallel] (which
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

(* The dot-product body shared by [gemm_nt] and [gemm_nt_slice]: B rows
   start at [j*ld + boff].  Per output element: four partial sums take
   terms p = 0, 1, 2, 3 (mod 4) of the first 4*(k/4) terms, the tail goes
   into the first, the dot is ((s0 + s1) + s2) + s3, and the element
   becomes (beta = 0 ? 0 : beta*c) + alpha*dot.  Output columns go in
   pairs that share each load of the A row; the last column of an odd
   tile runs alone, with the same operations. *)
let nt_body ~alpha ~beta ~m ~n ~k ~ld ~boff (ad : buf) (bd : buf) (cd : buf) =
  let tile = 32 in
  let body i0 i1 =
    let jb = ref 0 in
    while !jb < n do
      let j1 = Stdlib.min n (!jb + tile) in
      for i = i0 to i1 - 1 do
        let abase = i * k in
        (* two output columns per pass share the loads of the A row *)
        let j = ref !jb in
        while !j + 1 < j1 do
          let ba = (!j * ld) + boff in
          let bb = ba + ld in
          let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
          let b0 = ref 0.0 and b1 = ref 0.0 and b2 = ref 0.0 and b3 = ref 0.0 in
          let p = ref 0 in
          while !p + 3 < k do
            let q = !p in
            let x0 = A.unsafe_get ad (abase + q) and x1 = A.unsafe_get ad (abase + q + 1) in
            let x2 = A.unsafe_get ad (abase + q + 2) and x3 = A.unsafe_get ad (abase + q + 3) in
            a0 := !a0 +. (x0 *. A.unsafe_get bd (ba + q));
            a1 := !a1 +. (x1 *. A.unsafe_get bd (ba + q + 1));
            a2 := !a2 +. (x2 *. A.unsafe_get bd (ba + q + 2));
            a3 := !a3 +. (x3 *. A.unsafe_get bd (ba + q + 3));
            b0 := !b0 +. (x0 *. A.unsafe_get bd (bb + q));
            b1 := !b1 +. (x1 *. A.unsafe_get bd (bb + q + 1));
            b2 := !b2 +. (x2 *. A.unsafe_get bd (bb + q + 2));
            b3 := !b3 +. (x3 *. A.unsafe_get bd (bb + q + 3));
            p := q + 4
          done;
          while !p < k do
            let x = A.unsafe_get ad (abase + !p) in
            a0 := !a0 +. (x *. A.unsafe_get bd (ba + !p));
            b0 := !b0 +. (x *. A.unsafe_get bd (bb + !p));
            incr p
          done;
          let ci = (i * n) + !j in
          let prev = if beta = 0.0 then 0.0 else beta *. A.unsafe_get cd ci in
          A.unsafe_set cd ci (prev +. (alpha *. (!a0 +. !a1 +. !a2 +. !a3)));
          let prev = if beta = 0.0 then 0.0 else beta *. A.unsafe_get cd (ci + 1) in
          A.unsafe_set cd (ci + 1) (prev +. (alpha *. (!b0 +. !b1 +. !b2 +. !b3)));
          j := !j + 2
        done;
        if !j < j1 then begin
          let bbase = (!j * ld) + boff in
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
          let ci = (i * n) + !j in
          let prev = if beta = 0.0 then 0.0 else beta *. A.unsafe_get cd ci in
          A.unsafe_set cd ci (prev +. (alpha *. (!acc0 +. !acc1 +. !acc2 +. !acc3)))
        end
      done;
      jb := j1
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(* [c[cbase, cbase+n) += s * b[bbase, bbase+n)], skipped when [s = 0]. *)
let axpy_row (cd : buf) cbase (bd : buf) bbase n s =
  if s <> 0.0 then
    for j = 0 to n - 1 do
      A.unsafe_set cd (cbase + j)
        (A.unsafe_get cd (cbase + j) +. (s *. A.unsafe_get bd (bbase + j)))
    done

(* The row-axpy body shared by [gemm_nn], [gemm_tn] and their slices.
   Output row i is [cd] at [i*ldc + coff]; term p has coefficient
   alpha * A at [i*ai + p*ap] and B row [p*ldb + boff].  Per output
   element: c starts as 0 (beta = 0), c (beta = 1) or beta*c; then
   c <- c + s_p * B(p,j) for p = 0 .. k-1, skipped where s_p = 0 (so
   -0.0 in C and NaN in B behind a zero coefficient survive).  Register
   blocking: when four consecutive coefficients are all non-zero, one pass
   over the row adds their four products to c in p order and stores once;
   otherwise each term runs the one-term loop — the same float operations
   either way. *)
let axpy_body ~alpha ~beta ~m ~n ~k ~ai ~ap ~ldb ~boff ~ldc ~coff (ad : buf) (bd : buf)
    (cd : buf) =
  let body i0 i1 =
    for i = i0 to i1 - 1 do
      let cbase = (i * ldc) + coff in
      if beta = 0.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) 0.0
        done
      else if beta <> 1.0 then
        for j = 0 to n - 1 do
          A.unsafe_set cd (cbase + j) (beta *. A.unsafe_get cd (cbase + j))
        done;
      let abase = i * ai in
      let p = ref 0 in
      while !p + 3 < k do
        let q = !p in
        let s0 = alpha *. A.unsafe_get ad (abase + (q * ap))
        and s1 = alpha *. A.unsafe_get ad (abase + ((q + 1) * ap))
        and s2 = alpha *. A.unsafe_get ad (abase + ((q + 2) * ap))
        and s3 = alpha *. A.unsafe_get ad (abase + ((q + 3) * ap)) in
        let b0 = (q * ldb) + boff in
        let b1 = b0 + ldb in
        let b2 = b1 + ldb in
        let b3 = b2 + ldb in
        if s0 <> 0.0 && s1 <> 0.0 && s2 <> 0.0 && s3 <> 0.0 then
          for j = 0 to n - 1 do
            let c = A.unsafe_get cd (cbase + j) in
            let c = c +. (s0 *. A.unsafe_get bd (b0 + j)) in
            let c = c +. (s1 *. A.unsafe_get bd (b1 + j)) in
            let c = c +. (s2 *. A.unsafe_get bd (b2 + j)) in
            A.unsafe_set cd (cbase + j) (c +. (s3 *. A.unsafe_get bd (b3 + j)))
          done
        else begin
          axpy_row cd cbase bd b0 n s0;
          axpy_row cd cbase bd b1 n s1;
          axpy_row cd cbase bd b2 n s2;
          axpy_row cd cbase bd b3 n s3
        end;
        p := q + 4
      done;
      for q = !p to k - 1 do
        axpy_row cd cbase bd ((q * ldb) + boff) n (alpha *. A.unsafe_get ad (abase + (q * ap)))
      done
    done
  in
  run_rows ~m ~flops:(2 * m * n * k) body

(** [gemm_nt ~alpha ~beta a b c]: [C <- alpha * A * B^T + beta * C] with
    [A : m×k], [B : n×k], [C : m×n].  The forward pass of a batched affine
    layer ([X · W^T]).  Cache-blocked over output tiles; the inner dot
    products run over contiguous rows, unrolled 4-way, two output columns
    per pass. *)
let gemm_nt ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.rows in
  gemm_check "Tensor.gemm_nt" ~am:m ~ak:k ~bm:n ~bk:k ~cm:m ~cn:n a b c;
  nt_body ~alpha ~beta ~m ~n ~k ~ld:k ~boff:0 a.data b.data c.data

(** [gemm_nn ~alpha ~beta a b c]: [C <- alpha * A * B + beta * C] with
    [A : m×k], [B : k×n], [C : m×n].  The input-gradient pass
    ([dX <- dY · W]).  Row-major friendly: the C row accumulates axpy
    contributions of B rows, streamed in k order. *)
let gemm_nn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let m = a.rows and k = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_nn" ~am:m ~ak:k ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  axpy_body ~alpha ~beta ~m ~n ~k ~ai:k ~ap:1 ~ldb:n ~boff:0 ~ldc:n ~coff:0 a.data b.data
    c.data

(** [gemm_tn ~alpha ~beta a b c]: [C <- alpha * A^T * B + beta * C] with
    [A : k×m], [B : k×n], [C : m×n].  The weight-gradient pass
    ([dW <- dY^T · X], k = batch lanes).  Parallelism partitions C rows
    (output neurons), never the k reduction, keeping accumulation order
    fixed. *)
let gemm_tn ?(alpha = 1.0) ?(beta = 1.0) a b c =
  let k = a.rows and m = a.cols and n = b.cols in
  gemm_check "Tensor.gemm_tn" ~am:k ~ak:m ~bm:k ~bk:n ~cm:m ~cn:n a b c;
  axpy_body ~alpha ~beta ~m ~n ~k ~ai:1 ~ap:m ~ldb:n ~boff:0 ~ldc:n ~coff:0 a.data b.data
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
  nt_body ~alpha ~beta ~m ~n ~k ~ld ~boff a.data b.data c.data

(** [gemm_nn_slice ~ld ~boff a b c]: [C <- alpha * A * B[:, boff..boff+n)
    + beta * C] with [A : m×k], [B : k×ld], [C : m×n].  The input-gradient
    pass of a sliced affine layer ([dX <- dY · W_slice]). *)
let gemm_nn_slice ?(alpha = 1.0) ?(beta = 1.0) ~ld ~boff a b c =
  let m = a.rows and k = a.cols and n = c.cols in
  if b.rows <> k || b.cols <> ld || boff < 0 || boff + n > ld then
    invalid_arg "Tensor.gemm_nn_slice: bad slice";
  if c.rows <> m then invalid_arg "Tensor.gemm_nn_slice: C shape";
  axpy_body ~alpha ~beta ~m ~n ~k ~ai:k ~ap:1 ~ldb:ld ~boff ~ldc:n ~coff:0 a.data b.data
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
  axpy_body ~alpha ~beta ~m ~n ~k ~ai:1 ~ap:m ~ldb:n ~boff:0 ~ldc:ld ~coff a.data b.data
    c.data

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
