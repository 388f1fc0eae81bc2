(* Batched-engine suite.  The contract: every lib/nn layer and every
   model computes each lane from that lane's rows alone, so a G-lane batch
   gives, per lane, bitwise the forward values of G one-lane batches and
   the same parameter gradients up to float reassociation (within 1e-9);
   padded lanes and masked slots receive EXACTLY zero gradient; every
   backward matches central finite differences; and the GEMM kernels agree
   with a naive reference bitwise-deterministically across parallel
   schedules.  Ends with full-model loss_batch and predict_batch per lane
   for all four models, pinned forward bits of a ragged batch, and
   Train.fit determinism across pool sizes at batch 3 and at batch 1. *)

open Liger_tensor
open Liger_nn
open Liger_trace

let rand_arr rng n = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)

let check_close ?(tol = 1e-6) name expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" name (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      let a = actual.(i) in
      if Float.abs (e -. a) > tol *. (1.0 +. Float.abs e) then
        Alcotest.failf "%s[%d]: expected %.9g got %.9g" name i e a)
    expected

(* bitwise equality of two value rows *)
let check_bits name expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" name (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s[%d]: %.17g vs %.17g (not bitwise equal)" name i e actual.(i))
    expected

let store_grads store =
  Param.fold store ~init:[] (fun acc p ->
      (p.Param.name, Tensor.to_array p.Param.grad) :: acc)

let check_grads ?(tol = 1e-6) tag expected actual =
  List.iter
    (fun (name, e) -> check_close ~tol (tag ^ "/grad " ^ name) e (List.assoc name actual))
    expected

let sq_loss_batched btape y = Batched.sum_all btape (Batched.mul btape y y)

(* ------------------------------------------------------------------ *)
(* GEMM kernels vs naive reference; sliced windows; schedule invariance *)
(* ------------------------------------------------------------------ *)

let naive_nt ~alpha ~beta a b c =
  let m = a.Tensor.rows and k = a.Tensor.cols and n = b.Tensor.rows in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a i p *. Tensor.get b j p)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let naive_nn ~alpha ~beta a b c =
  let m = a.Tensor.rows and k = a.Tensor.cols and n = b.Tensor.cols in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a i p *. Tensor.get b p j)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let naive_tn ~alpha ~beta a b c =
  let k = a.Tensor.rows and m = a.Tensor.cols and n = b.Tensor.cols in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a p i *. Tensor.get b p j)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let rand_tensor rng rows cols =
  let t = Tensor.create rows cols in
  for i = 0 to (rows * cols) - 1 do
    Tensor.set_idx t i (Rng.uniform rng (-1.0) 1.0)
  done;
  t

let test_gemm_vs_naive () =
  let rng = Rng.create 11 in
  List.iter
    (fun (alpha, beta) ->
      let a = rand_tensor rng 7 5 and b = rand_tensor rng 9 5 in
      let c = rand_tensor rng 7 9 and c' = Tensor.copy (rand_tensor rng 7 9) in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_nt ~alpha ~beta a b c;
      naive_nt ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_nt" (Tensor.to_array c') (Tensor.to_array c);
      let a = rand_tensor rng 6 4 and b = rand_tensor rng 4 8 in
      let c = rand_tensor rng 6 8 and c' = Tensor.create 6 8 in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_nn ~alpha ~beta a b c;
      naive_nn ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_nn" (Tensor.to_array c') (Tensor.to_array c);
      let a = rand_tensor rng 5 6 and b = rand_tensor rng 5 7 in
      let c = rand_tensor rng 6 7 and c' = Tensor.create 6 7 in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_tn ~alpha ~beta a b c;
      naive_tn ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_tn" (Tensor.to_array c') (Tensor.to_array c))
    [ (1.0, 0.0); (1.0, 1.0); (0.5, 2.0) ]

(* sliced kernels = dense kernels on a materialised copy of the window *)
let test_gemm_slices () =
  let rng = Rng.create 12 in
  let ld = 9 and boff = 3 and k = 4 in
  let wide = rand_tensor rng 6 ld in
  let slice =
    let s = Tensor.create 6 k in
    for i = 0 to 5 do
      for j = 0 to k - 1 do
        Tensor.set s i j (Tensor.get wide i (boff + j))
      done
    done;
    s
  in
  (* nt: A(5×k) · wide[:,boff..)^T *)
  let a = rand_tensor rng 5 k in
  let c = Tensor.create 5 6 and c' = Tensor.create 5 6 in
  Tensor.gemm_nt_slice ~beta:0.0 ~ld ~boff a wide c;
  Tensor.gemm_nt ~beta:0.0 a slice c';
  check_close ~tol:1e-12 "gemm_nt_slice" (Tensor.to_array c') (Tensor.to_array c);
  (* nn: A(5×6) · wide[:,boff..) *)
  let a = rand_tensor rng 5 6 in
  let c = Tensor.create 5 k and c' = Tensor.create 5 k in
  Tensor.gemm_nn_slice ~beta:0.0 ~ld ~boff a wide c;
  Tensor.gemm_nn ~beta:0.0 a slice c';
  check_close ~tol:1e-12 "gemm_nn_slice" (Tensor.to_array c') (Tensor.to_array c);
  (* tn: writes only the addressed window of the wide C *)
  let a = rand_tensor rng 5 6 and b = rand_tensor rng 5 k in
  let cw = rand_tensor rng 6 ld in
  let before = Tensor.to_array cw in
  let cs = Tensor.create 6 k in
  Tensor.gemm_tn ~beta:0.0 a b cs;
  Tensor.gemm_tn_slice ~beta:1.0 ~ld ~coff:boff a b cw;
  for i = 0 to 5 do
    for j = 0 to ld - 1 do
      let got = Tensor.get cw i j in
      let want =
        if j >= boff && j < boff + k then
          before.((i * ld) + j) +. Tensor.get cs i (j - boff)
        else before.((i * ld) + j)
      in
      if Float.abs (got -. want) > 1e-12 then
        Alcotest.failf "gemm_tn_slice[%d,%d]: expected %.9g got %.9g" i j want got
    done
  done

(* the fixed block partition must make jobs=1 and jobs=N bitwise equal *)
let test_gemm_parallel_bitwise () =
  let module Par = Liger_parallel.Parallel in
  let rng = Rng.create 13 in
  let a = rand_tensor rng 33 17 and b = rand_tensor rng 21 17 in
  let seq = Tensor.create 33 21 and par = Tensor.create 33 21 in
  let saved = Par.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Tensor.set_gemm_par_flops 4_000_000;
      Par.set_jobs saved)
    (fun () ->
      Tensor.set_gemm_par_flops max_int;
      Tensor.gemm_nt ~beta:0.0 a b seq;
      Par.set_jobs 4;
      Tensor.set_gemm_par_flops 0;
      Tensor.gemm_nt ~beta:0.0 a b par;
      if Tensor.to_array seq <> Tensor.to_array par then
        Alcotest.fail "gemm_nt: jobs=1 and jobs=4 disagree bitwise")

(* Kernel pin: every GEMM variant against reference loops that perform
   each output element's float operations in the documented order, compared
   bit for bit.  The orders (DESIGN.md, "GEMM blocking"):
   - nt: four partial sums, term p into sum (p mod 4) for the first
     4*(k/4) terms and the tail into sum 0; the dot is ((s0 + s1) + s2) + s3
     and the element becomes (beta = 0 ? 0 : beta*c) + alpha*dot;
   - nn / tn: c starts as 0 (beta = 0), c (beta = 1) or beta*c, then for
     p = 0 .. k-1 with s = alpha*A(i,p) (A(p,i) for tn), c <- c + s*B(p,j),
     skipped when s = 0 — so -0.0 and NaN in B behind a zero coefficient
     never reach C. *)
let ref_nt_elt ~alpha ~beta ~k ga gb c =
  let acc = Array.make 4 0.0 in
  let k4 = k / 4 * 4 in
  for p = 0 to k4 - 1 do
    acc.(p mod 4) <- acc.(p mod 4) +. (ga p *. gb p)
  done;
  for p = k4 to k - 1 do
    acc.(0) <- acc.(0) +. (ga p *. gb p)
  done;
  let dot = acc.(0) +. acc.(1) +. acc.(2) +. acc.(3) in
  (if beta = 0.0 then 0.0 else beta *. c) +. (alpha *. dot)

let ref_axpy_elt ~alpha ~beta ~k coef gb c =
  let c = ref (if beta = 0.0 then 0.0 else if beta <> 1.0 then beta *. c else c) in
  for p = 0 to k - 1 do
    let s = alpha *. coef p in
    if s <> 0.0 then c := !c +. (s *. gb p)
  done;
  !c

(* uniform values with 0.0, -0.0 and NaN sprinkled in; [special] is the
   share of special entries *)
let pin_tensor rng ~special rows cols =
  let t = Tensor.create rows cols in
  for i = 0 to (rows * cols) - 1 do
    let x = Rng.uniform rng (-1.0) 1.0 in
    let u = Rng.uniform rng 0.0 1.0 in
    let v =
      if u < special /. 3.0 then 0.0
      else if u < 2.0 *. special /. 3.0 then -0.0
      else if u < special then Float.nan
      else x
    in
    Tensor.set_idx t i v
  done;
  t

let check_pin name ~want got =
  let w = Tensor.to_array want and g = Tensor.to_array got in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float g.(i) then
        Alcotest.failf "%s[%d]: reference %h, kernel %h" name i x g.(i))
    w

(* every variant at one row count [m]; the six calls cover dense and
   sliced operands, n in 1..9 (whole 4-column vectors and every tail),
   k in {1,2,3,4,5,7,8,17} (whole 4-term blocks and every tail), window
   offsets 1, 2 and 3 (so no vector starts on a vector boundary), beta in
   {0,1,0.5}, alpha 1 and -0.75 *)
let pin_all_variants rng ~m =
  for n = 1 to 9 do
    let off = 1 + (n mod 3) in
    let ld = n + off + 2 in
    List.iter
      (fun k ->
        List.iter
          (fun (alpha, beta) ->
            let tag v = Printf.sprintf "%s k=%d n=%d alpha=%g beta=%g m=%d" v k n alpha beta m in
            (* C holds -0.0 and 0.0 but no NaN, so beta*c stays meaningful *)
            let c0 = pin_tensor rng ~special:0.0 m n in
            for i = 0 to (m * n) - 1 do
              if i mod 5 = 0 then Tensor.set_idx c0 i (-0.0)
              else if i mod 7 = 0 then Tensor.set_idx c0 i 0.0
            done;
            let run kernel reference =
              let got = Tensor.copy c0 and want = Tensor.copy c0 in
              kernel got;
              for i = 0 to m - 1 do
                for j = 0 to n - 1 do
                  Tensor.set want i j (reference i j (Tensor.get c0 i j))
                done
              done;
              (want, got)
            in
            (* nt: A m×k, B n×k *)
            let a = pin_tensor rng ~special:0.3 m k and b = pin_tensor rng ~special:0.1 n k in
            let want, got =
              run
                (fun c -> Tensor.gemm_nt ~alpha ~beta a b c)
                (fun i j c ->
                  ref_nt_elt ~alpha ~beta ~k
                    (fun p -> Tensor.get a i p)
                    (fun p -> Tensor.get b j p)
                    c)
            in
            check_pin (tag "gemm_nt") ~want got;
            (* nt_slice: B n×ld, columns [off, off+k) *)
            let bw = pin_tensor rng ~special:0.1 n (ld + k) in
            let ldb = ld + k in
            let want, got =
              run
                (fun c -> Tensor.gemm_nt_slice ~alpha ~beta ~ld:ldb ~boff:off a bw c)
                (fun i j c ->
                  ref_nt_elt ~alpha ~beta ~k
                    (fun p -> Tensor.get a i p)
                    (fun p -> Tensor.get bw j (off + p))
                    c)
            in
            check_pin (tag "gemm_nt_slice") ~want got;
            (* nn: A m×k, B k×n *)
            let b = pin_tensor rng ~special:0.1 k n in
            let want, got =
              run
                (fun c -> Tensor.gemm_nn ~alpha ~beta a b c)
                (fun i j c ->
                  ref_axpy_elt ~alpha ~beta ~k
                    (fun p -> Tensor.get a i p)
                    (fun p -> Tensor.get b p j)
                    c)
            in
            check_pin (tag "gemm_nn") ~want got;
            (* nn_slice: B k×ld, columns [off, off+n) *)
            let bw = pin_tensor rng ~special:0.1 k ld in
            let want, got =
              run
                (fun c -> Tensor.gemm_nn_slice ~alpha ~beta ~ld ~boff:off a bw c)
                (fun i j c ->
                  ref_axpy_elt ~alpha ~beta ~k
                    (fun p -> Tensor.get a i p)
                    (fun p -> Tensor.get bw p (off + j))
                    c)
            in
            check_pin (tag "gemm_nn_slice") ~want got;
            (* tn: A k×m, B k×n *)
            let at = pin_tensor rng ~special:0.3 k m and b = pin_tensor rng ~special:0.1 k n in
            let want, got =
              run
                (fun c -> Tensor.gemm_tn ~alpha ~beta at b c)
                (fun i j c ->
                  ref_axpy_elt ~alpha ~beta ~k
                    (fun p -> Tensor.get at p i)
                    (fun p -> Tensor.get b p j)
                    c)
            in
            check_pin (tag "gemm_tn") ~want got;
            (* tn_slice: C m×ld, window [off, off+n); the rest must not move *)
            let cw = pin_tensor rng ~special:0.0 m ld in
            let got = Tensor.copy cw and want = Tensor.copy cw in
            Tensor.gemm_tn_slice ~alpha ~beta ~ld ~coff:off at b got;
            for i = 0 to m - 1 do
              for j = 0 to n - 1 do
                Tensor.set want i (off + j)
                  (ref_axpy_elt ~alpha ~beta ~k
                     (fun p -> Tensor.get at p i)
                     (fun p -> Tensor.get b p j)
                     (Tensor.get cw i (off + j)))
              done
            done;
            check_pin (tag "gemm_tn_slice") ~want got)
          [ (1.0, 0.0); (1.0, 1.0); (1.0, 0.5); (-0.75, 0.0); (-0.75, 1.0); (-0.75, 0.5) ])
      [ 1; 2; 3; 4; 5; 7; 8; 17 ]
  done

(* gemm_nt computes four output columns per pass: widths that are not a
   multiple of four, and widths past one 32-column tile, reach the
   leftover columns of a tile *)
let test_gemm_nt_odd_widths () =
  let rng = Rng.create 17 in
  List.iter
    (fun (m, n, k) ->
      List.iter
        (fun (alpha, beta) ->
          let a = pin_tensor rng ~special:0.3 m k in
          let b = pin_tensor rng ~special:0.1 n (k + 4) in
          let c0 = pin_tensor rng ~special:0.0 m n in
          let got = Tensor.copy c0 and want = Tensor.copy c0 in
          Tensor.gemm_nt_slice ~alpha ~beta ~ld:(k + 4) ~boff:2 a b got;
          for i = 0 to m - 1 do
            for j = 0 to n - 1 do
              Tensor.set want i j
                (ref_nt_elt ~alpha ~beta ~k
                   (fun p -> Tensor.get a i p)
                   (fun p -> Tensor.get b j (2 + p))
                   (Tensor.get c0 i j))
            done
          done;
          check_pin (Printf.sprintf "gemm_nt_slice m=%d n=%d k=%d beta=%g" m n k beta) ~want got)
        [ (1.0, 0.0); (-0.75, 0.5); (1.0, 1.0) ])
    [ (1, 1, 1); (3, 5, 7); (2, 33, 5); (4, 65, 17); (1, 31, 4) ]

(* A zero coefficient hides its B row: within a four-term block (which
   then runs as one-term rows) and in the k tail, coefficients 0.0 and
   -0.0 stand in front of B rows holding NaN, inf, -inf and -1.0, while
   every other term adds -0.0 to a C of -0.0.  Every element must come out
   -0.0: a kernel that multiplied through would write NaN, or +0.0
   (-0.0 + (-0.0 * -1.0)). *)
let pin_zero_coefficients () =
  let k = 9 and n = 9 and off = 1 and alpha = -0.75 in
  let coef = [| 1.0; 0.0; 1.0; 1.0; 1.0; 1.0; -0.0; 1.0; 0.0 |] in
  let hidden = [| Float.nan; Float.infinity; Float.neg_infinity; -1.0 |] in
  (* alpha*1.0 * 0.0 = -0.0 in every visible term *)
  let b_at p j = if coef.(p) = 0.0 then hidden.(j mod 4) else 0.0 in
  let a = Tensor.of_rows [| coef |] in
  let at = Tensor.of_rows (Array.map (fun x -> [| x |]) coef) in
  let b = Tensor.create k n and bw = Tensor.create k (n + off) in
  for p = 0 to k - 1 do
    for j = 0 to n - 1 do
      Tensor.set b p j (b_at p j);
      Tensor.set bw p (off + j) (b_at p j)
    done
  done;
  let check name kernel =
    let c = Tensor.create 1 (n + off) in
    Tensor.fill c (-0.0);
    kernel c;
    let want = Tensor.copy c in
    for j = 0 to n - 1 do
      Tensor.set want 0 (off + j)
        (ref_axpy_elt ~alpha ~beta:1.0 ~k (fun p -> coef.(p)) (fun p -> b_at p j) (-0.0))
    done;
    check_pin name ~want c;
    Array.iteri
      (fun i x ->
        if Int64.bits_of_float x <> Int64.bits_of_float (-0.0) then
          Alcotest.failf "%s[%d]: %h where -0.0 must survive" name i x)
      (Tensor.to_array c)
  in
  let dense kernel c =
    let d = Tensor.create 1 n in
    for j = 0 to n - 1 do
      Tensor.set d 0 j (Tensor.get c 0 (off + j))
    done;
    kernel d;
    for j = 0 to n - 1 do
      Tensor.set c 0 (off + j) (Tensor.get d 0 j)
    done
  in
  check "zero coefficient gemm_nn" (dense (Tensor.gemm_nn ~alpha ~beta:1.0 a b));
  check "zero coefficient gemm_tn" (dense (Tensor.gemm_tn ~alpha ~beta:1.0 at b));
  check "zero coefficient gemm_nn_slice"
    (dense (Tensor.gemm_nn_slice ~alpha ~beta:1.0 ~ld:(n + off) ~boff:off a bw));
  check "zero coefficient gemm_tn_slice"
    (Tensor.gemm_tn_slice ~alpha ~beta:1.0 ~ld:(n + off) ~coff:off at b)

(* Contraction canary.  With e = 2^-30, (1+e)*(1+e) = 1 + 2e + e^2 rounds
   to 1 + 2e, so -(1+2e) + (1+e)*(1+e) is 0.0 when the product is rounded
   before the add, and e^2 = 2^-60 when the two are fused into one FMA.
   nt: lane 0 of the dot meets the cancellation in the k tail (k = 5) and
   inside the 4-wide loop (k = 8).  nn/tn (beta = 1, C = -(1+2e)): output
   row 0 meets it in a four-term block, row 1 in a one-term row of the k
   tail.  Five output columns reach both the 4-wide pass and the column
   tail.  Every element must be +0.0. *)
let pin_contraction_canary () =
  let e = Float.ldexp 1.0 (-30) in
  let n = 5 in
  let check_zero name c =
    Array.iteri
      (fun i x ->
        if Int64.bits_of_float x <> 0L then
          Alcotest.failf "%s[%d]: %h, not 0.0 (was a*b+c fused?)" name i x)
      (Tensor.to_array c)
  in
  List.iter
    (fun k ->
      let pad v = Array.init k (fun p -> if p < Array.length v then v.(p) else 0.0) in
      let a = Tensor.of_rows [| pad [| 1.0; 0.0; 0.0; 0.0; 1.0 +. e |] |] in
      let brow = pad [| -.(1.0 +. (2.0 *. e)); 0.0; 0.0; 0.0; 1.0 +. e |] in
      let b = Tensor.of_rows (Array.make n brow) in
      let c = Tensor.create 1 n in
      Tensor.gemm_nt ~beta:0.0 a b c;
      check_zero (Printf.sprintf "canary gemm_nt k=%d" k) c)
    [ 5; 8 ];
  let coef = [| [| 1.0 +. e; 1.0; 1.0; 1.0; 0.0 |]; [| 0.0; 0.0; 0.0; 0.0; 1.0 +. e |] |] in
  let a = Tensor.of_rows coef in
  let at = Tensor.of_rows (Array.init 5 (fun p -> [| coef.(0).(p); coef.(1).(p) |])) in
  let b =
    Tensor.of_rows (Array.init 5 (fun p -> Array.make n (if p mod 4 = 0 then 1.0 +. e else 0.0)))
  in
  let c0 () =
    let c = Tensor.create 2 n in
    Tensor.fill c (-.(1.0 +. (2.0 *. e)));
    c
  in
  let c = c0 () in
  Tensor.gemm_nn ~beta:1.0 a b c;
  check_zero "canary gemm_nn" c;
  let c = c0 () in
  Tensor.gemm_tn ~beta:1.0 at b c;
  check_zero "canary gemm_tn" c

let test_gemm_bitwise_pin () =
  let module Par = Liger_parallel.Parallel in
  let saved = Par.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Tensor.set_gemm_par_flops 4_000_000;
      Par.set_jobs saved)
    (fun () ->
      Tensor.set_gemm_par_flops max_int;
      pin_zero_coefficients ();
      pin_contraction_canary ();
      pin_all_variants (Rng.create 14) ~m:1;
      pin_all_variants (Rng.create 15) ~m:3;
      (* above the threshold on a 2-domain pool: 19 rows split into three
         row blocks that the two domains share *)
      Par.set_jobs 2;
      Tensor.set_gemm_par_flops 0;
      pin_all_variants (Rng.create 16) ~m:19)

(* ------------------------------------------------------------------ *)
(* Batched primitive ops                                               *)
(* ------------------------------------------------------------------ *)

let test_stack_to_cols () =
  let l = 2 and k = 3 in
  let btape = Batched.tape () in
  let a = Batched.const_arr btape ~rows:(k * l) ~cols:1 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let out = Batched.stack_to_cols btape a ~lanes:l in
  (* slot-major column: row (kk*l + i) lands at [i, kk] *)
  check_close ~tol:0.0 "stack_to_cols lane0" [| 1.; 3.; 5. |] (Batched.row_value out 0);
  check_close ~tol:0.0 "stack_to_cols lane1" [| 2.; 4.; 6. |] (Batched.row_value out 1);
  let loss = sq_loss_batched btape out in
  let expect_grad = Array.map (fun v -> 2.0 *. v) [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Batched.backward btape loss;
  check_close ~tol:1e-12 "stack_to_cols grad"
    expect_grad
    (Array.init (k * l) (fun i -> (Batched.row_grad a i).(0)))

(* rows listed in [idx] come from [b], all others from [a], bit for bit;
   each row's gradient goes only to the input that supplied it *)
let test_merge_rows_routing () =
  let btape = Batched.tape () in
  let rng = Rng.create 22 in
  let a = Batched.const_arr btape ~rows:4 ~cols:3 (rand_arr rng 12) in
  let b = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  let out = Batched.merge_rows btape a ~idx:[| 1; 3 |] b in
  List.iteri
    (fun i (src, r) ->
      check_close ~tol:0.0 (Printf.sprintf "row %d" i) (Batched.row_value src r)
        (Batched.row_value out i))
    [ (a, 0); (b, 0); (a, 2); (b, 1) ];
  let c = Batched.const_arr btape ~rows:4 ~cols:3 (rand_arr rng 12) in
  Batched.backward btape (Batched.sum_all btape (Batched.mul btape out c));
  (* d(sum(out ⊙ c))/d(out) = c: rows 1 and 3 of it reach b only *)
  let zero = Array.make 3 0.0 and c_row = Batched.row_value c in
  check_close ~tol:0.0 "a row 0 grad" (c_row 0) (Batched.row_grad a 0);
  check_close ~tol:0.0 "a row 1 grad" zero (Batched.row_grad a 1);
  check_close ~tol:0.0 "a row 2 grad" (c_row 2) (Batched.row_grad a 2);
  check_close ~tol:0.0 "a row 3 grad" zero (Batched.row_grad a 3);
  check_close ~tol:0.0 "b row 0 grad" (c_row 1) (Batched.row_grad b 0);
  check_close ~tol:0.0 "b row 1 grad" (c_row 3) (Batched.row_grad b 1)

let test_merge_rows_invalid () =
  let btape = Batched.tape () in
  let a = Batched.zeros btape ~rows:4 ~cols:2 and b = Batched.zeros btape ~rows:2 ~cols:2 in
  List.iter
    (fun (what, idx) ->
      match Batched.merge_rows btape a ~idx b with
      | _ -> Alcotest.failf "merge_rows accepted %s idx" what
      | exception Invalid_argument _ -> ())
    [
      ("an unsorted", [| 3; 1 |]);
      ("a duplicated", [| 2; 2 |]);
      ("an out-of-range", [| 1; 4 |]);
      ("a negative", [| -1; 2 |]);
      ("a short", [| 1 |]);
    ]

(* buffers released by one tape are reused by the next, and reuse must not
   leak stale values into freshly-leased zeroed gradients *)
let test_bufpool_reuse () =
  let run () =
    let btape = Batched.tape () in
    let a = Batched.const_arr btape ~rows:8 ~cols:8 (rand_arr (Rng.create 21) 64) in
    let loss = sq_loss_batched btape (Batched.tanh_ btape a) in
    let v = Batched.scalar_value loss in
    Batched.backward btape loss;
    v
  in
  let v1 = run () in
  let v2 = run () in
  if v1 <> v2 then Alcotest.failf "bufpool reuse changed a result: %.17g vs %.17g" v1 v2

(* ------------------------------------------------------------------ *)
(* Per-layer lane independence: G lanes ≡ G one-lane batches            *)
(* ------------------------------------------------------------------ *)

let lanes = 3

(* [build btape ls] records the layer's output rows for the test lanes
   [ls] (in order).  Each lane alone is run, and its row and the gradient
   of [loss] over it accumulated; then all lanes at once.  Every row of the
   G-lane run must equal its one-lane row bitwise, and the G-lane gradient
   must match the sum of the one-lane gradients within [tol]. *)
let lane_equivalence ?(tol = 1e-9) ?(loss = sq_loss_batched) name store build =
  let run ls =
    let btape = Batched.tape () in
    let y = build btape ls in
    let rows = Array.init (Array.length ls) (Batched.row_value y) in
    Batched.backward btape (loss btape y);
    rows
  in
  Param.zero_grads store;
  let singles = Array.init lanes (fun l -> (run [| l |]).(0)) in
  let eg = store_grads store in
  Param.zero_grads store;
  let rows = run (Array.init lanes Fun.id) in
  let ag = store_grads store in
  Param.zero_grads store;
  Array.iteri (fun l e -> check_bits (Printf.sprintf "%s/lane %d" name l) e rows.(l)) singles;
  check_grads ~tol name eg ag

(* the rows [ls] of per-lane arrays [xs], as one [|ls| × cols] leaf *)
let lanes_of btape ~cols xs ls =
  Batched.const_arr btape ~rows:(Array.length ls) ~cols
    (Array.concat (List.map (fun l -> xs.(l)) (Array.to_list ls)))

let test_linear_equiv () =
  let store = Param.create_store ~seed:31 () in
  let layer = Linear.create store "lin" ~dim_in:4 ~dim_out:3 in
  let rng = Rng.create 32 in
  let xs = Array.init lanes (fun _ -> rand_arr rng 4) in
  lane_equivalence "linear" store (fun btape ls ->
      let x = lanes_of btape ~cols:4 xs ls in
      Batched.concat_cols btape
        [ Linear.forward_tanh_batch layer btape x; Linear.forward_sigmoid_batch layer btape x;
          Linear.forward_batch layer btape x ])

let test_embedding_equiv () =
  let v = Vocab.create () in
  List.iter (fun s -> ignore (Vocab.add v s)) [ "alpha"; "beta"; "gamma" ];
  Vocab.freeze v;
  let store = Param.create_store ~seed:33 () in
  let emb = Embedding_layer.create store "emb" v ~dim:5 in
  let ids = [| 4; 6; 4 |] in
  (* duplicate id: scatter-add must accumulate *)
  lane_equivalence "embedding" store (fun btape ls ->
      Embedding_layer.embed_ids emb btape (Array.map (fun l -> ids.(l)) ls))

(* three steps; lane 1 stops after one and lane 2 after two, so the masked
   steps compact non-adjacent live lanes *)
let lens = [| 3; 1; 2 |]

let ragged_steps btape ~cols xs ls =
  List.init (Array.length xs) (fun s ->
      ( lanes_of btape ~cols xs.(s) ls,
        Some (Array.map (fun l -> if s < lens.(l) then 1.0 else 0.0) ls) ))

let rnn_equiv kind name =
  let store = Param.create_store ~seed:34 () in
  let cell = Rnn_cell.create ~kind store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 35 in
  let xs = Array.init 3 (fun _ -> Array.init lanes (fun _ -> rand_arr rng 3)) in
  lane_equivalence name store (fun btape ls ->
      Rnn_cell.last_batch cell btape ~lanes:(Array.length ls) (ragged_steps btape ~cols:3 xs ls))

let test_gru_equiv () = rnn_equiv Rnn_cell.Gru "rnn_cell.gru"
let test_vanilla_equiv () = rnn_equiv Rnn_cell.Vanilla "rnn_cell.vanilla"

(* perturb the zero-initialised scorer direction so attention gradients are
   not trivially zero through the projection *)
let kick_attention_v store name =
  let p = Param.find store name in
  let rng = Rng.create 99 in
  for i = 0 to Tensor.size p.Param.value - 1 do
    Tensor.set_idx p.Param.value i (Rng.uniform rng (-0.5) 0.5)
  done

(* lane [l]'s validity row of a [lanes × k] mask, for the lanes [ls] *)
let mask_rows (mask : float array array) ls =
  Tensor.of_rows (Array.map (fun l -> mask.(l)) ls)

let test_attention_equiv () =
  let store = Param.create_store ~seed:38 () in
  let att = Attention.create store "att" ~dim_h:4 ~dim_q:3 ~dim_att:5 in
  kick_attention_v store "att.v";
  let rng = Rng.create 39 in
  let qs = Array.init lanes (fun _ -> rand_arr rng 3) in
  let hs = Array.init 3 (fun _ -> Array.init lanes (fun _ -> rand_arr rng 4)) in
  (* lane 1 has one valid slot, lane 2 two *)
  let mask = [| [| 1.; 1.; 1. |]; [| 1.; 0.; 0. |]; [| 0.; 1.; 1. |] |] in
  lane_equivalence "attention" store (fun btape ls ->
      let q = lanes_of btape ~cols:3 qs ls in
      let cands = Array.map (fun slot -> lanes_of btape ~cols:4 slot ls) hs in
      let mask = mask_rows mask ls in
      Batched.concat_cols btape
        [ snd (Attention.fuse_batch att btape ~q ~mask cands);
          snd (Attention.fuse_uniform_batch btape ~mask cands) ])

let trees =
  Encode.
    [|
      Node ("add", [ Leaf "x"; Node ("mul", [ Leaf "y"; Leaf "two" ]) ]);
      Leaf "lone";
      Node ("neg", [ Node ("abs", [ Leaf "z" ]) ]);
    |]

(* deterministic token -> R^3 *)
let tok_vec tok =
  let h = Hashtbl.hash tok in
  Array.init 3 (fun i -> float_of_int (((h lsr (4 * i)) land 15) - 8) /. 8.0)

let embed_tokens btape labels =
  Batched.const_arr btape ~rows:(Array.length labels) ~cols:3
    (Array.concat (Array.to_list (Array.map tok_vec labels)))

let test_treelstm_equiv () =
  let store = Param.create_store ~seed:40 () in
  let tl = Treelstm.create store "tl" ~dim_in:3 ~dim_hidden:4 in
  lane_equivalence "treelstm" store (fun btape ls ->
      Treelstm.embed_forest tl btape ~embed:(embed_tokens btape)
        (List.map (fun l -> trees.(l)) (Array.to_list ls)))

let make_decoder () =
  let v = Vocab.create () in
  List.iter (fun s -> ignore (Vocab.add v s)) [ "get"; "size"; "name" ];
  Vocab.freeze v;
  let store = Param.create_store ~seed:41 () in
  let emb = Embedding_layer.create store "emb" v ~dim:3 in
  let dec = Decoder.create store "dec" emb ~dim_hidden:4 ~dim_mem:5 in
  kick_attention_v store "dec.att.v";
  (store, dec)

let test_decoder_equiv () =
  let store, dec = make_decoder () in
  let rng = Rng.create 42 in
  let mems = Array.init 2 (fun _ -> Array.init lanes (fun _ -> rand_arr rng 5)) in
  let progs = Array.init lanes (fun _ -> rand_arr rng 5) in
  (* ragged targets: lane 1 finishes earlier, exercising weight-0 steps;
     lane 2 has one memory slot *)
  let targets = [| [ 4; 5 ]; [ 6 ]; [ 5; 4 ] |] in
  let mask = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 1.; 0. |] |] in
  lane_equivalence ~loss:Batched.sum_all "decoder" store (fun btape ls ->
      Decoder.loss_batch dec btape
        ~memory:(Array.map (fun slot -> lanes_of btape ~cols:5 slot ls) mems)
        ~memory_mask:(mask_rows mask ls) ~program_embedding:(lanes_of btape ~cols:5 progs ls)
        ~target_ids:(Array.map (fun l -> targets.(l)) ls))

(* ------------------------------------------------------------------ *)
(* Masking: padded lanes and dead slots get EXACTLY zero gradient       *)
(* ------------------------------------------------------------------ *)

let test_masked_step_zero_grad () =
  let store = Param.create_store ~seed:51 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 52 in
  let btape = Batched.tape () in
  let x1 = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  let x2 = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  (* lane 1 is padded on step 2 *)
  let steps = [ (x1, None); (x2, Some [| 1.0; 0.0 |]) ] in
  let hs = Rnn_cell.run_batch cell btape ~lanes:2 steps in
  let h1, h2 =
    match hs with [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected two states"
  in
  (* frozen lane carries its previous state bit-for-bit *)
  check_close ~tol:0.0 "frozen lane value" (Batched.row_value h1 1) (Batched.row_value h2 1);
  Batched.backward btape (sq_loss_batched btape h2);
  let g = Batched.row_grad x2 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "padded-lane grad x2[1][%d] = %.3g <> 0" i v)
    g;
  ignore store

(* an all-ones mask is the unmasked step (no extra node); an all-zeros
   mask computes nothing and returns the state itself *)
let test_mask_extremes () =
  let store = Param.create_store ~seed:56 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let btape = Batched.tape () in
  let h = Rnn_cell.init_state_batch cell btape ~lanes:2 in
  let x = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr (Rng.create 57) 6) in
  let nodes_of ?mask () =
    let n0 = Batched.length btape in
    let h' = Rnn_cell.step_batch ?mask cell btape ~h ~x in
    (h', Batched.length btape - n0)
  in
  let plain, n_plain = nodes_of () in
  let ones, n_ones = nodes_of ~mask:[| 1.0; 1.0 |] () in
  Alcotest.(check int) "all-ones mask adds no node" n_plain n_ones;
  check_close ~tol:0.0 "all-ones mask = unmasked" (Batched.row_value plain 1)
    (Batched.row_value ones 1);
  let zeros, n_zeros = nodes_of ~mask:[| 0.0; 0.0 |] () in
  Alcotest.(check int) "all-zeros mask adds no node" 0 n_zeros;
  Alcotest.(check bool) "all-zeros mask returns h" true (zeros == h);
  Batched.discard btape

let test_masked_softmax_dead_slot () =
  let store = Param.create_store ~seed:53 () in
  let att = Attention.create store "att" ~dim_h:4 ~dim_q:3 ~dim_att:5 in
  kick_attention_v store "att.v";
  let rng = Rng.create 54 in
  let btape = Batched.tape () in
  let q = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  let cands = Array.init 2 (fun _ -> Batched.const_arr btape ~rows:2 ~cols:4 (rand_arr rng 8)) in
  let mask = Tensor.create 2 2 in
  Tensor.fill mask 1.0;
  Tensor.set mask 1 1 0.0;
  (* lane 1: only slot 0 is valid *)
  let w, fused = Attention.fuse_batch att btape ~q ~mask cands in
  check_close ~tol:0.0 "single-valid-slot weights" [| 1.0; 0.0 |] (Batched.row_value w 1);
  check_close ~tol:1e-12 "fused = the one valid candidate" (Batched.row_value cands.(0) 1)
    (Batched.row_value fused 1);
  Batched.backward btape (sq_loss_batched btape fused);
  let g = Batched.row_grad cands.(1) 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "dead-slot grad [%d] = %.3g <> 0" i v)
    g

let test_xent_zero_weight_rows () =
  let btape = Batched.tape () in
  let rng = Rng.create 55 in
  let logits = Batched.const_arr btape ~rows:2 ~cols:4 (rand_arr rng 8) in
  let nll, _ =
    Batched.softmax_xent_rows btape logits ~targets:[| 1; 2 |] ~weights:[| 1.0; 0.0 |]
  in
  check_close ~tol:0.0 "weight-0 row loss" [| 0.0 |] (Batched.row_value nll 1);
  Batched.backward btape (Batched.sum_all btape nll);
  let g = Batched.row_grad logits 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "weight-0 row grad [%d] = %.3g <> 0" i v)
    g

(* ------------------------------------------------------------------ *)
(* Finite-difference gradchecks ({!Liger_fuzz.Oracle.grad_check})      *)
(* ------------------------------------------------------------------ *)

let test_batched_gru_gradcheck () =
  let store = Param.create_store ~seed:61 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 62 in
  let x1 = rand_arr rng 6 and x2 = rand_arr rng 6 in
  Testutil.grad_check store (fun btape ->
      let steps =
        [
          (Batched.const_arr btape ~rows:2 ~cols:3 x1, None);
          (Batched.const_arr btape ~rows:2 ~cols:3 x2, Some [| 1.0; 0.0 |]);
        ]
      in
      sq_loss_batched btape (Rnn_cell.last_batch cell btape ~lanes:2 steps))

(* three lanes of lengths 3, 1 and 2: the masked steps gather the live
   rows (non-adjacent ones included), step them, and merge them back *)
let test_compacted_step_gradcheck () =
  let rng = Rng.create 67 in
  let xs = List.init 3 (fun _ -> rand_arr rng 9) in
  let masks = [ None; Some [| 1.0; 0.0; 1.0 |]; Some [| 1.0; 0.0; 0.0 |] ] in
  let steps btape =
    List.map2 (fun x m -> (Batched.const_arr btape ~rows:3 ~cols:3 x, m)) xs masks
  in
  let store = Param.create_store ~seed:68 () in
  let gru = Rnn_cell.create store "gru" ~dim_in:3 ~dim_hidden:4 in
  Testutil.grad_check store (fun btape ->
      sq_loss_batched btape (Rnn_cell.last_batch gru btape ~lanes:3 (steps btape)))

let test_batched_attention_gradcheck () =
  (* covers the split-projection path: the matmul_nt_slice,
     add_rows_cycle_bias_tanh and matvec_stack_cols backwards all
     participate in this gradient *)
  let store = Param.create_store ~seed:63 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:2 ~dim_att:4 in
  kick_attention_v store "att.v";
  let rng = Rng.create 64 in
  let q = rand_arr rng 4 in
  let slots = Array.init 3 (fun _ -> rand_arr rng 6) in
  Testutil.grad_check store (fun btape ->
      let qn = Batched.const_arr btape ~rows:2 ~cols:2 q in
      let cands =
        Array.map (fun s -> Batched.const_arr btape ~rows:2 ~cols:3 s) slots
      in
      let mask = Tensor.create 2 3 in
      Tensor.fill mask 1.0;
      Tensor.set mask 1 2 0.0;
      sq_loss_batched btape (snd (Attention.fuse_batch att btape ~q:qn ~mask cands)))

let test_batched_treelstm_gradcheck () =
  let store = Param.create_store ~seed:65 () in
  let tl = Treelstm.create store "tl" ~dim_in:3 ~dim_hidden:3 in
  Testutil.grad_check store (fun btape ->
      sq_loss_batched btape
        (Treelstm.embed_forest tl btape ~embed:(embed_tokens btape) (Array.to_list trees)))

let test_batched_decoder_gradcheck () =
  let store, dec = make_decoder () in
  let rng = Rng.create 66 in
  let mems = Array.init 2 (fun _ -> rand_arr rng 10) in
  let progs = rand_arr rng 10 in
  Testutil.grad_check ~tol:5e-3 store (fun btape ->
      let memory = Array.map (fun m -> Batched.const_arr btape ~rows:2 ~cols:5 m) mems in
      let mask = Tensor.create 2 2 in
      Tensor.fill mask 1.0;
      let losses =
        Decoder.loss_batch dec btape ~memory ~memory_mask:mask
          ~program_embedding:(Batched.const_arr btape ~rows:2 ~cols:5 progs)
          ~target_ids:[| [ 4 ]; [ 5; 6 ] |]
      in
      Batched.sum_all btape losses)

(* uniform fusion has no parameters of its own: the candidates are
   parameters here, so the check covers the gradient into them, masked
   slots included *)
let test_uniform_fusion_gradcheck () =
  let store = Param.create_store ~seed:70 () in
  let slots = Array.init 3 (fun k -> Param.matrix store (Printf.sprintf "slot%d" k) 2 3) in
  let mask = Tensor.of_rows [| [| 1.; 1.; 1. |]; [| 0.; 1.; 1. |] |] in
  Testutil.grad_check store (fun btape ->
      let cands = Array.map (fun p -> Batched.rows_of_param btape p [| 0; 1 |]) slots in
      sq_loss_batched btape (snd (Attention.fuse_uniform_batch btape ~mask cands)))

(* ------------------------------------------------------------------ *)
(* Full model and training loop                                        *)
(* ------------------------------------------------------------------ *)

let small_corpus =
  lazy
    (let enc =
       {
         Liger_core.Common.max_paths = 3;
         max_concrete = 2;
         max_steps = 10;
       }
     in
     Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4321)
       ~name:"batched-test" ~n:20)

(* The loss of each lane of a LiGer batch and the gradient of their sum,
   against one-lane batches: values bitwise, gradients within 1e-9. *)
let test_model_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let module LM = Liger_core.Liger_model in
  let wrap, model =
    Liger_eval.Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab LM.Naming
  in
  let store = wrap.Liger_eval.Train.store in
  let chunk =
    Array.of_list
      (List.filteri (fun i _ -> i < 4) corpus.Liger_dataset.Pipeline.train)
  in
  if Array.length chunk = 0 then Alcotest.fail "empty train split";
  (* one-lane losses through the model record, gradients accumulated *)
  let expected =
    Array.map
      (fun ex ->
        let tape = Batched.tape () in
        let loss = wrap.Liger_eval.Train.train_loss tape ex in
        let v = Batched.scalar_value loss in
        Batched.backward tape loss;
        v)
      chunk
  in
  let eg = store_grads store in
  Param.zero_grads store;
  let btape = Batched.tape () in
  let losses =
    Liger_core.Head.loss model.LM.head btape (LM.encode_batch model btape chunk)
      ~targets:(Array.map (fun (ex : Liger_core.Common.enc_example) -> ex.Liger_core.Common.target_ids) chunk)
  in
  Array.iteri
    (fun l e ->
      check_bits (Printf.sprintf "model/lane %d loss" l) [| e |] (Batched.row_value losses l))
    expected;
  Batched.backward btape (Batched.sum_all btape losses);
  let ag = store_grads store in
  Param.zero_grads store;
  check_grads ~tol:1e-9 "model" eg ag

(* Per-lane independence of a whole model's loss_batch: for each lane, its
   loss equals the one-lane loss bitwise, and the gradient of that lane's
   loss alone (the others weighted 0) matches the one-lane gradient within
   1e-9; every gradient entry the one-lane run leaves exactly zero must
   stay exactly zero, so padding and the other lanes leak nothing; finally
   the gradient of the summed batch loss against the sum of the one-lane
   gradients. *)
let check_model_lanes name (wrap : Liger_eval.Train.model) chunk =
  let store = wrap.Liger_eval.Train.store in
  let hooks = Option.get wrap.Liger_eval.Train.batched in
  let n = Array.length chunk in
  let run exs weights =
    let btape = Batched.tape () in
    let losses = hooks.Liger_eval.Train.train_loss_batch btape exs in
    let k = Array.length exs in
    let values = Array.init k (fun g -> (Batched.row_value losses g).(0)) in
    Batched.backward btape
      (Batched.sum_all btape
         (Batched.mul btape losses (Batched.const_arr btape ~rows:k ~cols:1 weights)));
    values
  in
  let one_lane ex = (run [| ex |] [| 1.0 |]).(0) in
  Param.zero_grads store;
  Array.iteri
    (fun i ex ->
      let expected = one_lane ex in
      let eg = store_grads store in
      Param.zero_grads store;
      let values = run chunk (Array.init n (fun g -> if g = i then 1.0 else 0.0)) in
      let ag = store_grads store in
      Param.zero_grads store;
      let tag = Printf.sprintf "%s/lane %d" name i in
      check_bits (tag ^ " loss") [| expected |] [| values.(i) |];
      check_grads ~tol:1e-9 tag eg ag;
      List.iter
        (fun (pname, e) ->
          let a = List.assoc pname ag in
          Array.iteri
            (fun j x ->
              if x = 0.0 && a.(j) <> 0.0 then
                Alcotest.failf "%s: gradient %.3g leaks into %s[%d]" tag a.(j) pname j)
            e)
        eg)
    chunk;
  Array.iter (fun ex -> ignore (one_lane ex)) chunk;
  let eg = store_grads store in
  Param.zero_grads store;
  ignore (run chunk (Array.make n 1.0));
  let ag = store_grads store in
  Param.zero_grads store;
  check_grads ~tol:1e-9 (name ^ "/batch") eg ag

(* [k] training examples spread evenly over the range of [size], in
   corpus order, required to differ in [size] so the batch pads *)
let ragged_chunk ?(k = 4) ~size name =
  let corpus = Lazy.force small_corpus in
  let train = Array.of_list corpus.Liger_dataset.Pipeline.train in
  let n = Array.length train in
  let by_size = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare (size train.(a)) (size train.(b))) by_size;
  let picked =
    List.sort_uniq compare (List.init k (fun i -> by_size.(i * (n - 1) / (k - 1))))
  in
  let chunk = Array.of_list (List.map (fun i -> train.(i)) picked) in
  let sizes = Array.to_list (Array.map size chunk) in
  if List.length (List.sort_uniq compare sizes) < 2 then
    Alcotest.failf "%s: the test batch is not ragged" name;
  chunk

let naming = Liger_core.Liger_model.Naming

(* AST path contexts of a method, a proxy for its code2seq/code2vec lanes *)
let n_paths (ex : Liger_core.Common.enc_example) =
  List.length
    (Liger_baselines.Ast_paths.extract (Rng.create 1) (Encode.meth_tree ex.Liger_core.Common.meth))

let test_dypro_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let wrap, _ = Liger_eval.Zoo.dypro ~vocab:corpus.Liger_dataset.Pipeline.vocab naming in
  let steps (ex : Liger_core.Common.enc_example) =
    Array.fold_left
      (fun acc (tr : Liger_core.Common.enc_trace) ->
        acc + (tr.Liger_core.Common.n_concrete * Array.length tr.Liger_core.Common.steps))
      0 ex.Liger_core.Common.traces
  in
  check_model_lanes "dypro" wrap (ragged_chunk ~size:steps "dypro")

(* The corpus methods all reach the path-context extraction cap, so the
   static baselines' batches add hand-written methods with fewer contexts
   (the last one with none). *)
let static_chunk name =
  let corpus = Lazy.force small_corpus in
  let small =
    List.mapi
      (fun i src ->
        let meth = Liger_lang.Parser.method_of_string src in
        {
          Liger_core.Common.uid = 1_000_000 + i;
          meth;
          traces = [||];
          label = Liger_core.Common.Name meth.Liger_lang.Ast.mname;
          target_ids = [];
          var_name_ids = [||];
        })
      [
        "method same(int a) : int { return a; }";
        "method zero() : int { return 0; }";
      ]
  in
  let chunk =
    Array.of_list (List.filteri (fun i _ -> i < 2) corpus.Liger_dataset.Pipeline.train @ small)
  in
  let sizes = Array.to_list (Array.map n_paths chunk) in
  if List.length (List.sort_uniq compare sizes) < 3 then
    Alcotest.failf "%s: the test batch is not ragged (%s)" name
      (String.concat "," (List.map string_of_int sizes));
  chunk

let test_code2seq_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let wrap = Liger_eval.Zoo.code2seq ~train:corpus.Liger_dataset.Pipeline.train naming in
  check_model_lanes "code2seq" wrap (static_chunk "code2seq")

let test_code2vec_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let wrap = Liger_eval.Zoo.code2vec ~train:corpus.Liger_dataset.Pipeline.train naming in
  check_model_lanes "code2vec" wrap (static_chunk "code2vec")

(* The classification heads of all four models, on corpus examples
   relabelled into three classes. *)
let relabel3 i (ex : Liger_core.Common.enc_example) =
  { ex with Liger_core.Common.label = Liger_core.Common.Class (i mod 3); target_ids = [ i mod 3 ] }

let test_classify_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let train = List.mapi relabel3 corpus.Liger_dataset.Pipeline.train in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let task = Liger_core.Liger_model.Classify 3 in
  let chunk = Array.of_list (List.filteri (fun i _ -> i < 4) train) in
  List.iter
    (fun (wrap : Liger_eval.Train.model) ->
      check_model_lanes (wrap.Liger_eval.Train.name ^ "/classify") wrap chunk)
    [
      fst (Liger_eval.Zoo.liger ~vocab task);
      fst (Liger_eval.Zoo.dypro ~vocab task);
      Liger_eval.Zoo.code2seq ~train task;
      Liger_eval.Zoo.code2vec ~train task;
    ]

(* [predict_batch] over a batch returns exactly the one-lane predictions,
   for every model *)
let test_predict_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let examples =
    Array.of_list (corpus.Liger_dataset.Pipeline.valid @ corpus.Liger_dataset.Pipeline.test)
  in
  List.iter
    (fun (wrap : Liger_eval.Train.model) ->
      let predict = (Option.get wrap.Liger_eval.Train.batched).Liger_eval.Train.predict_batch in
      let got = predict examples in
      Array.iteri
        (fun i ex ->
          if (predict [| ex |]).(0) <> got.(i) then
            Alcotest.failf "%s: batched prediction %d differs from its one-lane prediction"
              wrap.Liger_eval.Train.name i)
        examples)
    [
      fst (Liger_eval.Zoo.liger ~vocab naming);
      fst (Liger_eval.Zoo.dypro ~vocab naming);
      Liger_eval.Zoo.code2seq ~train naming;
      Liger_eval.Zoo.code2vec ~train naming;
    ]

(* Finite-difference gradchecks of each model's loss_batch at dimension 2,
   over a small ragged batch: the summed per-example losses against every
   parameter entry. *)
let model_gradcheck (wrap : Liger_eval.Train.model) chunk =
  let hooks = Option.get wrap.Liger_eval.Train.batched in
  Testutil.grad_check ~tol:5e-3 wrap.Liger_eval.Train.store (fun btape ->
      Batched.sum_all btape (hooks.Liger_eval.Train.train_loss_batch btape chunk))

let tiny_liger task =
  let corpus = Lazy.force small_corpus in
  fst
    (Liger_eval.Zoo.liger
       ~config:{ Liger_core.Liger_model.default_config with Liger_core.Liger_model.dim = 2 }
       ~vocab:corpus.Liger_dataset.Pipeline.vocab task)

let first_train k =
  let train = (Lazy.force small_corpus).Liger_dataset.Pipeline.train in
  Array.of_list (List.filteri (fun i _ -> i < k) train)

let test_liger_naming_gradcheck () = model_gradcheck (tiny_liger naming) (first_train 2)

let test_liger_classify_gradcheck () =
  let chunk =
    Array.mapi
      (fun i (ex : Liger_core.Common.enc_example) ->
        { ex with Liger_core.Common.label = Liger_core.Common.Class i; target_ids = [ i ] })
      (first_train 2)
  in
  model_gradcheck (tiny_liger (Liger_core.Liger_model.Classify 2)) chunk

let test_dypro_gradcheck () =
  let corpus = Lazy.force small_corpus in
  model_gradcheck
    (fst (Liger_eval.Zoo.dypro ~dim:2 ~vocab:corpus.Liger_dataset.Pipeline.vocab naming))
    (first_train 2)

let test_code2seq_gradcheck () =
  let corpus = Lazy.force small_corpus in
  model_gradcheck
    (Liger_eval.Zoo.code2seq ~dim:2 ~train:corpus.Liger_dataset.Pipeline.train naming)
    (static_chunk "code2seq gradcheck")

let test_code2vec_gradcheck () =
  let corpus = Lazy.force small_corpus in
  model_gradcheck
    (Liger_eval.Zoo.code2vec ~dim:2 ~train:corpus.Liger_dataset.Pipeline.train naming)
    (static_chunk "code2vec gradcheck")

(* ------------------------------------------------------------------ *)
(* Forward bits pinned across engine changes                           *)
(* ------------------------------------------------------------------ *)

(* Hex MD5 of the IEEE bit patterns of [xs], in order *)
let bits_digest (xs : float array) =
  let b = Buffer.create (16 * Array.length xs) in
  Array.iter
    (fun x -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float x)))
    xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let distinct xs = List.length (List.sort_uniq compare xs)

(* Every batched op computes each lane from that lane's rows alone, so a
   change to how padding is scheduled must leave each lane's forward
   values bitwise identical.  The digests pin, on a ragged batch (traces
   of different lengths, states with different variable counts, paths of
   different lengths), the per-example batched losses of LiGer, DYPRO and
   code2seq and LiGer's program embeddings.  They were recorded with the
   lockstep padded recurrences and assume the same libm.  The classification
   losses of all four models and every wrapper's predictions, naming and
   classification, were recorded later, before the models came to share
   one task head. *)
let test_forward_bits_pinned () =
  let module C = Liger_core.Common in
  let corpus = Lazy.force small_corpus in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let trace_steps (ex : C.enc_example) =
    Array.fold_left (fun acc (tr : C.enc_trace) -> acc + Array.length tr.C.steps) 0 ex.C.traces
  in
  let chunk = ragged_chunk ~k:6 ~size:trace_steps "pinned bits" in
  let traces =
    List.concat_map (fun (ex : C.enc_example) -> Array.to_list ex.C.traces) (Array.to_list chunk)
  in
  let steps = List.concat_map (fun (tr : C.enc_trace) -> Array.to_list tr.C.steps) traces in
  let paths =
    List.concat_map
      (fun (ex : C.enc_example) ->
        Liger_baselines.Ast_paths.extract (Rng.create 1) (Encode.meth_tree ex.C.meth))
      (Array.to_list chunk)
  in
  List.iter
    (fun (what, n) -> if n < 2 then Alcotest.failf "pinned batch: %s do not vary" what)
    [
      ( "trace lengths",
        distinct (List.map (fun (tr : C.enc_trace) -> Array.length tr.C.steps) traces) );
      ( "state variable counts",
        distinct (List.map (fun (s : C.enc_step) -> Array.length s.C.var_tokens.(0)) steps) );
      ( "path lengths",
        distinct
          (List.map (fun (c : Liger_baselines.Ast_paths.context) -> List.length c.path) paths) );
    ];
  let losses ?(exs = chunk) (wrap : Liger_eval.Train.model) =
    let hooks = Option.get wrap.Liger_eval.Train.batched in
    let btape = Batched.tape () in
    let l = hooks.Liger_eval.Train.train_loss_batch btape exs in
    let v = Array.init (Array.length exs) (fun g -> (Batched.row_value l g).(0)) in
    Batched.discard btape;
    v
  in
  let liger_wrap, liger = Liger_eval.Zoo.liger ~vocab naming in
  let check name expected xs = Alcotest.(check string) name expected (bits_digest xs) in
  check "liger losses" "3a10daeebf64e1cc8fd374d7af97c0c0" (losses liger_wrap);
  check "liger embed_programs" "d75f7861b905561e7b878ea403edf933"
    (Array.concat (Array.to_list (Liger_core.Liger_model.embed_programs liger chunk)));
  check "dypro losses" "587da2f05007171b4a975b29e96ec5a4" (losses (fst (Liger_eval.Zoo.dypro ~vocab naming)));
  check "code2seq losses" "c68338b8bf991af14926f8cd31bab75d" (losses (Liger_eval.Zoo.code2seq ~train naming));
  (* the classification heads, on the same batch relabelled into three
     classes as in the per-lane classification test *)
  let classify = Liger_core.Liger_model.Classify 3 in
  let ctrain = List.mapi relabel3 train and cchunk = Array.mapi relabel3 chunk in
  let classifiers =
    [
      fst (Liger_eval.Zoo.liger ~vocab classify);
      fst (Liger_eval.Zoo.dypro ~vocab classify);
      Liger_eval.Zoo.code2seq ~train:ctrain classify;
      Liger_eval.Zoo.code2vec ~train:ctrain classify;
    ]
  in
  List.iter2
    (fun (wrap : Liger_eval.Train.model) expected ->
      check (wrap.Liger_eval.Train.name ^ " classify losses") expected (losses ~exs:cchunk wrap))
    classifiers
    [
      "015b5acaecddc5eb5c79e1661b7922b2";
      "23c8d6e7fc586ab12e5ccfad97b556ed";
      "f2aac18b5a8b36bf6df45b4562fef045";
      "42ad4f204945a2d1e6fe19f6939c865e";
    ];
  (* every wrapper's predictions, untrained, on the batch and the held-out
     splits: sub-tokens for naming, class ids for classification *)
  let held_out = corpus.Liger_dataset.Pipeline.valid @ corpus.Liger_dataset.Pipeline.test in
  let predictions exs (wrap : Liger_eval.Train.model) =
    let hooks = Option.get wrap.Liger_eval.Train.batched in
    hooks.Liger_eval.Train.predict_batch exs
    |> Array.map (function
         | Liger_eval.Train.Subtokens ts -> String.concat " " ts
         | Liger_eval.Train.Class c -> string_of_int c)
    |> Array.to_list |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let namers =
    [
      liger_wrap;
      fst (Liger_eval.Zoo.dypro ~vocab naming);
      Liger_eval.Zoo.code2seq ~train naming;
      Liger_eval.Zoo.code2vec ~train naming;
    ]
  in
  let check_predictions tag exs wraps digests =
    List.iter2
      (fun (wrap : Liger_eval.Train.model) expected ->
        Alcotest.(check string)
          (wrap.Liger_eval.Train.name ^ tag) expected (predictions exs wrap))
      wraps digests
  in
  check_predictions " naming predictions"
    (Array.append chunk (Array.of_list held_out))
    namers
    [
      "c8e83d4c89eebe6d4ba99e5c7a5e84f3";
      "a0d268f347fa0bbd7d42afe8ca905937";
      "c7d97df48ce4194f99bc6b48cdd8d5f1";
      "a0eeaf326aaad27ef6632216d51b777f";
    ];
  check_predictions " classify predictions"
    (Array.append cchunk (Array.of_list (List.mapi relabel3 held_out)))
    classifiers
    [
      "ef08f361138cf1f4069f6687b854b210";
      "56bc3bfb58cbfb22c25dcd11666fd3c9";
      "dfe89dcbfc5c9a1d2102ba6f517830c3";
      "5827eaaa9595f669689d07e7daad423a";
    ]

(* Train.fit ends with bitwise-identical parameters at jobs=1 and jobs=4 *)
let fit_deterministic ~batch_size make () =
  let module Par = Liger_parallel.Parallel in
  let corpus = Lazy.force small_corpus in
  let fit_with jobs =
    let saved = Par.jobs () in
    Fun.protect
      ~finally:(fun () ->
        Tensor.set_gemm_par_flops 4_000_000;
        Par.set_jobs saved)
      (fun () ->
        Par.set_jobs jobs;
        (* force every GEMM through the parallel dispatcher so the
           schedule-independence of the fixed row blocks is actually used *)
        Tensor.set_gemm_par_flops 0;
        let wrap : Liger_eval.Train.model = make corpus.Liger_dataset.Pipeline.vocab in
        let options =
          { Liger_eval.Train.default_options with
            Liger_eval.Train.epochs = 2;
            batch_size;
          }
        in
        ignore
          (Liger_eval.Train.fit ~options (Rng.create 7) wrap
             ~train:corpus.Liger_dataset.Pipeline.train ~valid:[]);
        Param.fold wrap.Liger_eval.Train.store ~init:[] (fun acc p ->
            (p.Param.name, Tensor.to_array p.Param.value) :: acc))
  in
  let p1 = fit_with 1 in
  let p4 = fit_with 4 in
  List.iter
    (fun (name, a) ->
      let b = List.assoc name p4 in
      if a <> b then
        Alcotest.failf "fit at batch %d diverges across pool sizes at %s" batch_size name)
    p1

let liger_wrap vocab = fst (Liger_eval.Zoo.liger ~vocab naming)
let dypro_wrap vocab = fst (Liger_eval.Zoo.dypro ~vocab naming)
let test_batched_fit_deterministic = fit_deterministic ~batch_size:3 liger_wrap

(* The training bits, backward included: after a three-epoch [Train.fit]
   of each configuration the train workload runs (LiGer at batch 16 and
   1, DYPRO, code2seq and code2vec at batch 1), the digest of every epoch
   loss followed by every parameter value, in store order.  Recorded
   before the engine's backward closures were rewritten; a change to the
   order of any gradient accumulation moves them. *)
let test_training_bits_pinned () =
  let corpus = Lazy.force small_corpus in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let fit_bits batch_size (wrap : Liger_eval.Train.model) =
    let options =
      { Liger_eval.Train.default_options with
        Liger_eval.Train.epochs = 3;
        batch_size;
      }
    in
    let h = Liger_eval.Train.fit ~options (Rng.create 11) wrap ~train ~valid:[] in
    let params =
      Param.fold wrap.Liger_eval.Train.store ~init:[] (fun acc p ->
          Tensor.to_array p.Param.value :: acc)
    in
    bits_digest (Array.concat (Array.of_list h.Liger_eval.Train.train_losses :: List.rev params))
  in
  let check name expected batch_size wrap =
    Alcotest.(check string) name expected (fit_bits batch_size wrap)
  in
  check "liger b16" "fe9b4a7530e0c8bf3dac0a069fbbdfa3" 16 (liger_wrap vocab);
  check "liger b1" "342ee75e5dcbd67610ecd1ac55e36a1a" 1 (liger_wrap vocab);
  check "dypro b1" "fa22d07b7cc98a393fb5962b316edbde" 1 (dypro_wrap vocab);
  check "code2seq b1" "422f10292e2f2aac529ea1ace6b58581" 1 (Liger_eval.Zoo.code2seq ~train naming);
  check "code2vec b1" "9df05e26c210229be6ccf2bb1a6741f9" 1 (Liger_eval.Zoo.code2vec ~train naming)

(* ------------------------------------------------------------------ *)
(* Bufpool: size-classed leases, poisoned tails, the self-derived bound  *)
(* ------------------------------------------------------------------ *)

(* [clear] first: with an empty pool no lease can be served from the
   class above its own *)
let test_bufpool_lease_size () =
  Bufpool.clear ();
  List.iter
    (fun n ->
      let b = Bufpool.take n in
      let cap = Bigarray.Array1.dim b in
      if cap < n || cap land (cap - 1) <> 0 || cap >= 2 * n then
        Alcotest.failf "lease of %d is %d long, not the smallest power of two >= %d" n cap n;
      Bufpool.give b)
    [ 1; 2; 3; 16; 17; 100; 1000; 4096 ]

(* [clear] first: a pool already at its bound would drop the buffer *)
let test_bufpool_class_reuse () =
  Bufpool.clear ();
  let b = Bufpool.take 100 in
  Bufpool.give b;
  let hits0 = (Bufpool.stats ()).Bufpool.hits in
  let again = Bufpool.take 70 in
  Alcotest.(check bool) "70 reuses the buffer 100 gave back" true (again == b);
  Alcotest.(check int) "the reuse counts as a hit" (hits0 + 1) (Bufpool.stats ()).Bufpool.hits;
  Alcotest.(check bool) "and holds at least 70 elements" true (Bigarray.Array1.dim again >= 70);
  Bufpool.give again

let test_bufpool_zeroed_after_dirty () =
  Bufpool.clear ();
  let dirty = Bufpool.take 200 in
  Bigarray.Array1.fill dirty Float.nan;
  Bufpool.give dirty;
  let again = Bufpool.take_zeroed 150 in
  Alcotest.(check bool) "the dirty buffer came back" true (again == dirty);
  for i = 0 to 149 do
    if Int64.bits_of_float (Bigarray.Array1.get again i) <> 0L then
      Alcotest.failf "take_zeroed: element %d is %h" i (Bigarray.Array1.get again i)
  done;
  Bufpool.give again

(* A node whose lease runs past its elements still rejects a read past
   them: three lanes lease a four-element buffer. *)
let test_bufpool_tail_unreadable () =
  let btape = Batched.tape () in
  let n = Batched.const_arr btape ~rows:3 ~cols:1 [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "the lease has a tail" true
    (Bigarray.Array1.dim (Batched.value n).Tensor.data > 3);
  Alcotest.check_raises "lane 3 of 3" (Invalid_argument "Tensor.get_idx: index out of bounds")
    (fun () -> ignore (Batched.row_value n 3));
  Alcotest.check_raises "element 3 of 3" (Invalid_argument "Tensor.set_idx: index out of bounds")
    (fun () -> Tensor.set_idx (Batched.value n) 3 0.0);
  Batched.discard btape

(* Lease every buffer parked on this domain, fill each one whole with
   NaN and give it back, so every later lease that the pool serves comes
   with a poisoned tail past the [n] elements asked for. *)
let poison_pool () =
  let taken = ref [] and c = ref 0 in
  while (Bufpool.stats ()).Bufpool.pooled > 0 do
    let hits0 = (Bufpool.stats ()).Bufpool.hits in
    let b = Bufpool.take (1 lsl !c) in
    taken := b :: !taken;
    if (Bufpool.stats ()).Bufpool.hits = hits0 then incr c
  done;
  List.iter
    (fun b ->
      Bigarray.Array1.fill b Float.nan;
      Bufpool.give b)
    !taken

(* Every op reads and writes only the first [rows × cols] elements of its
   storage: a forward and backward pass of each model over buffers whose
   tails hold NaN gives the losses and parameter gradients, bit for bit,
   of the same pass over the buffers the previous pass left behind. *)
let test_bufpool_poisoned_tail () =
  let corpus = Lazy.force small_corpus in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let steps (ex : Liger_core.Common.enc_example) =
    Array.fold_left
      (fun acc (tr : Liger_core.Common.enc_trace) -> acc + Array.length tr.Liger_core.Common.steps)
      0 ex.Liger_core.Common.traces
  in
  let bits name (wrap : Liger_eval.Train.model) chunk =
    let store = wrap.Liger_eval.Train.store in
    let hooks = Option.get wrap.Liger_eval.Train.batched in
    let pass () =
      Param.zero_grads store;
      let btape = Batched.tape () in
      let losses = hooks.Liger_eval.Train.train_loss_batch btape chunk in
      let values = Array.init (Array.length chunk) (fun g -> (Batched.row_value losses g).(0)) in
      let total = Batched.sum_all btape losses in
      let sum = Batched.scalar_value total in
      Batched.backward btape total;
      Array.concat ([| sum |] :: values :: List.rev_map snd (store_grads store))
    in
    let clean = pass () in
    let pooled = (Bufpool.stats ()).Bufpool.pooled in
    poison_pool ();
    if (Bufpool.stats ()).Bufpool.pooled < pooled then
      Alcotest.failf "%s: poisoning lost parked buffers" name;
    let hits0 = (Bufpool.stats ()).Bufpool.hits in
    let poisoned = pass () in
    if (Bufpool.stats ()).Bufpool.hits = hits0 then
      Alcotest.failf "%s: the poisoned pass leased nothing from the pool" name;
    check_bits name clean poisoned
  in
  (* three lanes, so even the G×1 loss column has a tail *)
  bits "liger" (liger_wrap vocab) (ragged_chunk ~k:3 ~size:steps "poisoned liger");
  bits "dypro" (dypro_wrap vocab) (ragged_chunk ~k:3 ~size:steps "poisoned dypro");
  bits "code2seq" (Liger_eval.Zoo.code2seq ~train naming) (static_chunk "poisoned code2seq");
  bits "code2vec" (Liger_eval.Zoo.code2vec ~train naming) (static_chunk "poisoned code2vec")

(* a ragged multi-batch fit (batch 3 over a split that does not divide
   by 3, reshuffled each epoch) never parks more elements than the
   pool's own lease high-water mark, checked around every step *)
let test_bufpool_bound_over_fit () =
  let corpus = Lazy.force small_corpus in
  let wrap = liger_wrap corpus.Liger_dataset.Pipeline.vocab in
  let hooks = Option.get wrap.Liger_eval.Train.batched in
  let checks = ref 0 in
  let check_bound where =
    incr checks;
    let s = Bufpool.stats () in
    if s.Bufpool.pooled_elems > s.Bufpool.hw_leased_elems then
      Alcotest.failf "%s: %d pooled elements exceed the bound %d" where s.Bufpool.pooled_elems
        s.Bufpool.hw_leased_elems
  in
  let hooks =
    {
      hooks with
      Liger_eval.Train.train_loss_batch =
        (fun tape chunk ->
          check_bound "before a step";
          let loss = hooks.Liger_eval.Train.train_loss_batch tape chunk in
          check_bound "after a forward";
          loss);
    }
  in
  let wrap = { wrap with Liger_eval.Train.batched = Some hooks } in
  let hits0 = (Bufpool.stats ()).Bufpool.hits in
  let options =
    {
      Liger_eval.Train.default_options with
      Liger_eval.Train.epochs = 3;
      batch_size = 3;
    }
  in
  ignore
    (Liger_eval.Train.fit ~options (Rng.create 9) wrap ~train:corpus.Liger_dataset.Pipeline.train
       ~valid:corpus.Liger_dataset.Pipeline.valid);
  check_bound "after the fit";
  Alcotest.(check bool) "the fit leased through the pool" true
    ((Bufpool.stats ()).Bufpool.hits > hits0 && !checks > 6)

let () =
  Alcotest.run "batched"
    [
      ( "gemm",
        [
          Alcotest.test_case "nt/nn/tn vs naive" `Quick test_gemm_vs_naive;
          Alcotest.test_case "sliced windows" `Quick test_gemm_slices;
          Alcotest.test_case "parallel bitwise" `Quick test_gemm_parallel_bitwise;
          Alcotest.test_case "bitwise pin vs ordered reference" `Quick test_gemm_bitwise_pin;
          Alcotest.test_case "nt pin at odd widths" `Quick test_gemm_nt_odd_widths;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "stack_to_cols" `Quick test_stack_to_cols;
          Alcotest.test_case "bufpool reuse" `Quick test_bufpool_reuse;
          Alcotest.test_case "merge_rows routing" `Quick test_merge_rows_routing;
          Alcotest.test_case "merge_rows rejects bad idx" `Quick test_merge_rows_invalid;
        ] );
      ( "layer equivalence",
        [
          Alcotest.test_case "linear" `Quick test_linear_equiv;
          Alcotest.test_case "embedding" `Quick test_embedding_equiv;
          Alcotest.test_case "gru" `Quick test_gru_equiv;
          Alcotest.test_case "vanilla rnn" `Quick test_vanilla_equiv;
          Alcotest.test_case "attention" `Quick test_attention_equiv;
          Alcotest.test_case "treelstm" `Quick test_treelstm_equiv;
          Alcotest.test_case "decoder" `Quick test_decoder_equiv;
        ] );
      ( "masking",
        [
          Alcotest.test_case "padded lane zero grad" `Quick test_masked_step_zero_grad;
          Alcotest.test_case "dead softmax slot" `Quick test_masked_softmax_dead_slot;
          Alcotest.test_case "weight-0 xent rows" `Quick test_xent_zero_weight_rows;
          Alcotest.test_case "all-ones and all-zeros masks" `Quick test_mask_extremes;
        ] );
      ( "gradcheck",
        [
          Alcotest.test_case "gru (masked)" `Quick test_batched_gru_gradcheck;
          Alcotest.test_case "gru (compacted lanes)" `Quick test_compacted_step_gradcheck;
          Alcotest.test_case "attention (split proj)" `Quick test_batched_attention_gradcheck;
          Alcotest.test_case "treelstm forest" `Quick test_batched_treelstm_gradcheck;
          Alcotest.test_case "decoder" `Slow test_batched_decoder_gradcheck;
          Alcotest.test_case "uniform fusion" `Quick test_uniform_fusion_gradcheck;
          Alcotest.test_case "LiGer naming loss_batch" `Slow test_liger_naming_gradcheck;
          Alcotest.test_case "LiGer classify loss_batch" `Slow test_liger_classify_gradcheck;
          Alcotest.test_case "DYPRO loss_batch" `Slow test_dypro_gradcheck;
          Alcotest.test_case "code2seq loss_batch" `Slow test_code2seq_gradcheck;
          Alcotest.test_case "code2vec loss_batch" `Slow test_code2vec_gradcheck;
        ] );
      ( "bufpool",
        [
          Alcotest.test_case "lease is its size class" `Quick test_bufpool_lease_size;
          Alcotest.test_case "same class reuses and counts a hit" `Quick test_bufpool_class_reuse;
          Alcotest.test_case "take_zeroed after a dirty larger buffer" `Quick
            test_bufpool_zeroed_after_dirty;
          Alcotest.test_case "pooled elements within the bound over a fit" `Quick
            test_bufpool_bound_over_fit;
          Alcotest.test_case "NaN past rows x cols changes no bit" `Quick
            test_bufpool_poisoned_tail;
          Alcotest.test_case "no read past rows x cols" `Quick test_bufpool_tail_unreadable;
        ] );
      ( "model",
        [
          Alcotest.test_case "loss_batch = loss per lane" `Quick test_model_loss_batch_equiv;
          Alcotest.test_case "fit deterministic across jobs" `Quick
            test_batched_fit_deterministic;
          Alcotest.test_case "batch-1 fit deterministic across jobs" `Quick
            (fit_deterministic ~batch_size:1 liger_wrap);
          Alcotest.test_case "predict_batch = predict (all models)" `Quick
            test_predict_batch_equiv;
          Alcotest.test_case "ragged forward bits pinned" `Quick test_forward_bits_pinned;
          Alcotest.test_case "training bits pinned" `Quick test_training_bits_pinned;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "dypro loss_batch = loss per lane" `Quick
            test_dypro_loss_batch_equiv;
          Alcotest.test_case "code2seq loss_batch = loss per lane" `Quick
            test_code2seq_loss_batch_equiv;
          Alcotest.test_case "code2vec loss_batch = loss per lane" `Quick
            test_code2vec_loss_batch_equiv;
          Alcotest.test_case "classification heads loss_batch = loss per lane" `Quick
            test_classify_loss_batch_equiv;
          Alcotest.test_case "dypro batch-1 fit deterministic across jobs" `Quick
            (fit_deterministic ~batch_size:1 dypro_wrap);
        ] );
    ]
