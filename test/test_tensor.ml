(* Tests for the tensor/autodiff substrate: RNG determinism, raw kernels,
   finite-difference gradient checks of the Batched ops, optimizer
   convergence and serialization round-trips. *)

open Liger_tensor

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5);
    let r = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "int_range in range" true (r >= -5 && r <= 5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng 0.0 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let rng = Rng.create 19 in
  let a = Rng.split rng in
  let b = Rng.split rng in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 23 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length s);
  let l = Array.to_list s in
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare l))

(* ------------------------------------------------------------------ *)
(* Tensor kernels                                                      *)
(* ------------------------------------------------------------------ *)

let test_matvec_matches_naive () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let rows = 1 + Rng.int rng 8 and cols = 1 + Rng.int rng 8 in
    let m = Tensor.create rows cols in
    for i = 0 to Tensor.size m - 1 do
      Tensor.set_idx m i (Rng.uniform rng (-2.0) 2.0)
    done;
    let x = Array.init cols (fun _ -> Rng.uniform rng (-2.0) 2.0) in
    let out = Array.make rows 0.0 in
    Tensor.matvec m x out;
    for i = 0 to rows - 1 do
      let expect = ref 0.0 in
      for j = 0 to cols - 1 do
        expect := !expect +. (Tensor.get m i j *. x.(j))
      done;
      check_float ~eps:1e-9 "matvec entry" !expect out.(i)
    done
  done

let test_axpy () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 10.0; 20.0; 30.0 |] in
  Tensor.axpy 2.0 x y;
  Alcotest.(check (array (float 1e-9))) "axpy" [| 12.0; 24.0; 36.0 |] y

let test_dot () =
  check_float "dot" 32.0 (Tensor.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_softmax_sums_to_one () =
  let s = Tensor.softmax [| 1.0; 2.0; 3.0; -1.0 |] in
  check_float ~eps:1e-9 "sum" 1.0 (Array.fold_left ( +. ) 0.0 s);
  Alcotest.(check bool) "monotone" true (s.(2) > s.(1) && s.(1) > s.(0))

let test_softmax_stability () =
  let s = Tensor.softmax [| 1000.0; 1001.0 |] in
  Alcotest.(check bool) "no nan" true (Float.is_finite s.(0) && Float.is_finite s.(1));
  check_float ~eps:1e-9 "sum" 1.0 (s.(0) +. s.(1))

let test_of_rows_and_get () =
  let m = Tensor.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "m(1,0)" 3.0 (Tensor.get m 1 0);
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Tensor.of_rows: ragged")
    (fun () -> ignore (Tensor.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_argmax () =
  Alcotest.(check int) "argmax" 2 (Tensor.argmax [| 0.1; 0.5; 0.9; 0.2 |]);
  Alcotest.(check int) "ties to first" 0 (Tensor.argmax [| 1.0; 1.0 |])

let test_outer_acc () =
  let g = [| 1.0; 2.0 |] and x = [| 3.0; 4.0; 5.0 |] in
  let m = Tensor.create 2 3 in
  Tensor.outer_acc g x m;
  check_float "outer(0,0)" 3.0 (Tensor.get m 0 0);
  check_float "outer(1,2)" 10.0 (Tensor.get m 1 2)

(* ------------------------------------------------------------------ *)
(* Autodiff: finite-difference gradient checks of the Batched ops       *)
(* ------------------------------------------------------------------ *)

(* Each input [(rows, values)] becomes a [rows × (|values|/rows)]
   parameter read through [Batched.rows_of_param], so the shared
   finite-difference check ({!Liger_fuzz.Oracle.grad_check}, relative
   tolerance 1e-3) covers d loss / d input of the scalar-valued graph
   [f : tape -> Batched.node list -> Batched.node]. *)
let grad_verdict f inputs =
  let store = Param.create_store ~seed:1 () in
  let params =
    List.mapi
      (fun k (rows, a) ->
        let p = Param.matrix store (Printf.sprintf "x%d" k) rows (Array.length a / rows) in
        Tensor.blit_from_array a p.Param.value;
        p)
      inputs
  in
  let leaf tape p = Batched.rows_of_param tape p (Array.init (Param.rows p) Fun.id) in
  Liger_fuzz.Oracle.grad_check ~tol:1e-3 store (fun tape -> f tape (List.map (leaf tape) params))

let grad_check name f inputs =
  match grad_verdict f inputs with
  | Liger_fuzz.Oracle.Pass -> ()
  | Fail msg | Skip msg -> Alcotest.failf "%s: %s" name msg

let rand_vec rng n = Array.init n (fun _ -> Rng.uniform rng (-1.5) 1.5)

(* a one-lane input *)
let lane x = (1, x)

let test_grad_add_mul_tanh () =
  let rng = Rng.create 31 in
  for _ = 1 to 5 do
    let x = rand_vec rng 4 and y = rand_vec rng 4 in
    grad_check "add-mul-tanh"
      (fun t -> function
        | [ a; b ] ->
            Batched.sum_all t (Batched.tanh_ t (Batched.mul t (Batched.add t a b) b))
        | _ -> assert false)
      [ lane x; lane y ]
  done

let test_grad_sub_neg_scale () =
  let rng = Rng.create 32 in
  let x = rand_vec rng 6 and y = rand_vec rng 6 in
  grad_check "sub-neg-scale"
    (fun t -> function
      | [ a; b ] ->
          Batched.sum_all t (Batched.scale t 2.5 (Batched.sub t a (Batched.scale t (-1.0) b)))
      | _ -> assert false)
    [ (2, x); (2, y) ]

let test_grad_sigmoid_relu () =
  let rng = Rng.create 33 in
  let x = rand_vec rng 5 in
  grad_check "sigmoid"
    (fun t -> function [ a ] -> Batched.sum_all t (Batched.sigmoid t a) | _ -> assert false)
    [ lane x ];
  (* keep values away from the relu kink *)
  let x = Array.map (fun v -> if Float.abs v < 0.1 then v +. 0.3 else v) x in
  grad_check "relu"
    (fun t -> function [ a ] -> Batched.sum_all t (Batched.relu t a) | _ -> assert false)
    [ lane x ]

(* column concat and slice; a lane's dot product is sum(c ⊙ c) *)
let test_grad_dot_concat () =
  let rng = Rng.create 34 in
  let x = rand_vec rng 6 and y = rand_vec rng 4 in
  grad_check "concat-slice-dot"
    (fun t -> function
      | [ a; b ] ->
          let c = Batched.concat_cols t [ a; b ] in
          let s = Batched.one_minus t (Batched.slice_cols t c 1 3) in
          Batched.add t (Batched.sum_all t (Batched.mul t c c)) (Batched.sum_all t s)
      | _ -> assert false)
    [ (2, x); (2, y) ]

let test_grad_softmax () =
  let rng = Rng.create 35 in
  let x = rand_vec rng 8 and w = rand_vec rng 8 in
  let mask = Tensor.of_rows [| [| 1.0; 1.0; 0.0; 1.0 |]; [| 1.0; 1.0; 1.0; 1.0 |] |] in
  grad_check "softmax-weighted"
    (fun t -> function
      | [ a; b ] ->
          Batched.add t
            (Batched.sum_all t (Batched.mul t (Batched.softmax_rows t a) b))
            (Batched.sum_all t (Batched.mul t (Batched.masked_softmax_rows t a ~mask) b))
      | _ -> assert false)
    [ (2, x); (2, w) ]

let test_grad_weighted_sum () =
  let rng = Rng.create 36 in
  let w = rand_vec rng 6 and v1 = rand_vec rng 8 and v2 = rand_vec rng 8 in
  let v3 = rand_vec rng 8 in
  grad_check "weighted_sum"
    (fun t -> function
      | [ w; v1; v2; v3 ] ->
          let out = Batched.weighted_sum t w [| v1; v2; v3 |] in
          Batched.sum_all t (Batched.mul t out out)
      | _ -> assert false)
    [ (2, w); (2, v1); (2, v2); (2, v3) ]

(* [group_max]: per-group elementwise max routed to the winning row *)
let test_grad_max_pool () =
  (* separate the values so perturbation never flips the argmax *)
  let rows =
    [| 1.0; -2.0; 0.5; -1.0; 2.0; 0.0; 0.3; 0.7; -0.4; -0.6; 0.9; 1.2 |]
  in
  grad_check "group_max"
    (fun t -> function
      | [ a ] ->
          let m = Batched.group_max t a ~groups:[| 0; 0; 1; 1 |] ~n_groups:2 in
          Batched.sum_all t (Batched.mul t m m)
      | _ -> assert false)
    [ (4, rows) ]

(* mean over each group's rows: [group_sum] and a 1/n scale *)
let test_grad_mean_pool () =
  let rng = Rng.create 38 in
  let v = rand_vec rng 12 in
  grad_check "mean_pool"
    (fun t -> function
      | [ a ] ->
          let sum = Batched.group_sum t a ~groups:[| 0; 0; 0 |] ~n_groups:1 in
          let m = Batched.scale t (1.0 /. 3.0) sum in
          Batched.sum_all t (Batched.mul t m m)
      | _ -> assert false)
    [ (3, v) ]

let test_grad_cross_entropy () =
  let rng = Rng.create 39 in
  let x = rand_vec rng 10 in
  grad_check "softmax_ce"
    (fun t -> function
      | [ a ] ->
          Batched.sum_all t
            (fst (Batched.softmax_xent_rows t a ~targets:[| 2; 4 |] ~weights:[| 1.0; 0.5 |]))
      | _ -> assert false)
    [ (2, x) ]

(* d loss / d W and d loss / d X through a parameter GEMM *)
let test_grad_matvec_param () =
  let store = Param.create_store ~seed:1 () in
  let w = Param.matrix store "w" 3 4 in
  let x = Param.matrix store "x" 2 4 in
  Testutil.grad_check ~tol:1e-3 store (fun tape ->
      let y = Batched.matmul_nt tape (Batched.rows_of_param tape x [| 0; 1 |]) w in
      Batched.sum_all tape (Batched.mul tape y y))

let test_grad_embedding_row () =
  let store = Param.create_store ~seed:2 () in
  let e = Param.embedding store "emb" 6 3 in
  let tape = Batched.tape () in
  (* a repeated id accumulates both lanes' gradient *)
  let r = Batched.rows_of_param tape e [| 4; 1; 4 |] in
  let loss = Batched.sum_all tape (Batched.mul tape r r) in
  Batched.backward tape loss;
  (* gradient of sum(r^2) is 2r per use: rows 4 (twice) and 1 only *)
  for i = 0 to 5 do
    let uses = if i = 4 then 2.0 else if i = 1 then 1.0 else 0.0 in
    for j = 0 to 2 do
      let g = Tensor.get e.Param.grad i j in
      if uses > 0.0 then
        check_float ~eps:1e-9 "row grad" (2.0 *. uses *. Tensor.get e.Param.value i j) g
      else check_float ~eps:1e-12 "other rows zero" 0.0 g
    done
  done

let test_grad_shared_subexpression () =
  (* A node used twice must receive gradient contributions from both uses. *)
  let rng = Rng.create 41 in
  let x = rand_vec rng 3 in
  grad_check "shared"
    (fun t -> function
      | [ a ] ->
          let y = Batched.tanh_ t a in
          Batched.sum_all t (Batched.add t (Batched.mul t y y) y)
      | _ -> assert false)
    [ lane x ]

(* ------------------------------------------------------------------ *)
(* Optimizers                                                          *)
(* ------------------------------------------------------------------ *)

(* Fit y = W x on random data; loss should shrink by a lot. *)
let converges opt_maker =
  let store = Param.create_store ~seed:9 () in
  let w = Param.matrix store "w" 2 3 in
  let target = Tensor.of_rows [| [| 1.0; -2.0; 0.5 |]; [| 0.0; 1.0; 2.0 |] |] in
  let rng = Rng.create 10 in
  let opt = opt_maker () in
  let loss_at_start = ref 0.0 and loss_at_end = ref 0.0 in
  for step = 1 to 400 do
    let x = rand_vec rng 3 in
    let y = Array.make 2 0.0 in
    Tensor.matvec target x y;
    let tape = Batched.tape () in
    let pred = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:3 x) w in
    let diff = Batched.sub tape pred (Batched.const_arr tape ~rows:1 ~cols:2 y) in
    let loss = Batched.sum_all tape (Batched.mul tape diff diff) in
    if step = 1 then loss_at_start := Batched.scalar_value loss;
    if step = 400 then loss_at_end := Batched.scalar_value loss;
    Batched.backward tape loss;
    Optimizer.step opt store
  done;
  (!loss_at_start, !loss_at_end)

let test_sgd_converges () =
  let start, final = converges (fun () -> Optimizer.sgd ~lr:0.05 ()) in
  Alcotest.(check bool) "sgd improves 100x" true (final < start /. 100.0)

let test_adam_converges () =
  let start, final = converges (fun () -> Optimizer.adam ~lr:0.02 ()) in
  Alcotest.(check bool) "adam improves 100x" true (final < start /. 100.0)

let test_sgd_momentum_converges () =
  let start, final = converges (fun () -> Optimizer.sgd ~momentum:0.9 ~lr:0.01 ()) in
  Alcotest.(check bool) "momentum sgd improves 100x" true (final < start /. 100.0)

let test_weight_decay_shrinks () =
  (* with zero gradients, decoupled weight decay must shrink parameters *)
  let store = Param.create_store ~seed:77 () in
  let p = Param.matrix store "p" 2 2 in
  let before = Array.map Float.abs (Tensor.to_array p.Param.grad) in
  ignore before;
  let norm_before = Tensor.l2_norm p.Param.value in
  let opt = Optimizer.adam ~lr:0.1 ~weight_decay:0.1 () in
  for _ = 1 to 10 do
    Optimizer.step opt store
  done;
  Alcotest.(check bool) "norm shrank" true (Tensor.l2_norm p.Param.value < norm_before)

let test_clip_grads () =
  let store = Param.create_store ~seed:3 () in
  let p = Param.matrix store "p" 1 4 in
  Tensor.fill p.Param.grad 10.0;
  let norm = Optimizer.clip_grads store ~max_norm:1.0 in
  Alcotest.(check bool) "pre-norm reported" true (norm > 19.0);
  check_float ~eps:1e-9 "post-norm is max_norm" 1.0 (Param.grad_norm store)

let test_zero_grads () =
  let store = Param.create_store ~seed:4 () in
  let p = Param.matrix store "p" 2 2 in
  Tensor.fill p.Param.grad 5.0;
  Param.zero_grads store;
  check_float "zeroed" 0.0 (Param.grad_norm store)

let test_param_duplicate_rejected () =
  let store = Param.create_store () in
  ignore (Param.matrix store "w" 2 2);
  Alcotest.check_raises "dup" (Invalid_argument "Param.add: duplicate parameter w")
    (fun () -> ignore (Param.matrix store "w" 2 2))

let test_num_params () =
  let store = Param.create_store () in
  ignore (Param.matrix store "a" 3 4);
  ignore (Param.vector store "b" 5);
  Alcotest.(check int) "count" 17 (Param.num_params store)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let store = Param.create_store ~seed:5 () in
  ignore (Param.matrix store "w1" 3 4);
  ignore (Param.vector store "b1" 3);
  let path = Filename.temp_file "liger" ".params" in
  Serialize.save_store store path;
  let store2 = Param.create_store ~seed:99 () in
  ignore (Param.matrix store2 "w1" 3 4);
  ignore (Param.vector store2 "b1" 3);
  Serialize.load_store store2 path;
  Sys.remove path;
  Param.iter store (fun p ->
      let q = Param.find store2 p.Param.name in
      Array.iteri
        (fun i x ->
          check_float ~eps:0.0 "roundtrip exact" x (Tensor.get_idx q.Param.value i))
        (Tensor.to_array p.Param.value))

let test_serialize_shape_mismatch () =
  let store = Param.create_store ~seed:6 () in
  ignore (Param.matrix store "w" 2 2);
  let path = Filename.temp_file "liger" ".params" in
  Serialize.save_store store path;
  let store2 = Param.create_store () in
  ignore (Param.matrix store2 "w" 3 3);
  Alcotest.(check bool) "raises" true
    (try
       Serialize.load_store store2 path;
       false
     with Failure _ -> true);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qvec =
  QCheck.(array_of_size (Gen.int_range 1 8) (float_range (-3.0) 3.0))

let prop_softmax_distribution =
  QCheck.Test.make ~name:"softmax is a distribution" ~count:200 qvec (fun a ->
      let s = Tensor.softmax a in
      let sum = Array.fold_left ( +. ) 0.0 s in
      Float.abs (sum -. 1.0) < 1e-9 && Array.for_all (fun x -> x >= 0.0) s)

let prop_axpy_linear =
  QCheck.Test.make ~name:"axpy linearity" ~count:200
    QCheck.(pair (float_range (-2.0) 2.0) qvec)
    (fun (a, x) ->
      let y = Array.make (Array.length x) 1.0 in
      Tensor.axpy a x y;
      Array.for_all2 (fun yi xi -> feq ~eps:1e-9 yi ((a *. xi) +. 1.0)) y x)

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot symmetric" ~count:200 qvec (fun x ->
      let y = Array.map (fun v -> v *. 0.5) x in
      feq ~eps:1e-9 (Tensor.dot x y) (Tensor.dot y x))

let prop_grad_check_random_graph =
  (* Random composite graphs must pass finite-difference checks. *)
  QCheck.Test.make ~name:"autodiff matches finite differences" ~count:30
    QCheck.(pair small_int qvec)
    (fun (seed, x) ->
      QCheck.assume (Array.length x >= 2);
      let rng = Rng.create seed in
      let pick = Rng.int rng 4 in
      match
        grad_verdict
          (fun t -> function
            | [ a ] ->
                let y =
                  match pick with
                  | 0 -> Batched.tanh_ t a
                  | 1 -> Batched.sigmoid t a
                  | 2 -> Batched.mul t a a
                  | _ -> Batched.softmax_rows t a
                in
                Batched.sum_all t (Batched.mul t y a)
            | _ -> assert false)
          [ lane x ]
      with
      | Liger_fuzz.Oracle.Pass -> true
      | Fail msg | Skip msg -> QCheck.Test.fail_report msg)

(* property: a checkpoint save/load restores every parameter bit-exactly
   (the text format prints %.17g, which is lossless for float64) *)
let prop_serialize_bit_exact =
  QCheck.Test.make ~name:"serialize save/load roundtrip is bit-exact" ~count:30
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, n_params) ->
      let store = Param.create_store ~seed:(seed + 1) () in
      for i = 0 to n_params - 1 do
        let rows = 1 + (seed + i) mod 4 and cols = 1 + (seed + (2 * i)) mod 5 in
        ignore (Param.matrix store (Printf.sprintf "p%d" i) rows cols)
      done;
      let path = Filename.temp_file "liger" ".params" in
      Serialize.save_store store path;
      let store2 = Param.create_store ~seed:(seed + 1000) () in
      for i = 0 to n_params - 1 do
        let rows = 1 + (seed + i) mod 4 and cols = 1 + (seed + (2 * i)) mod 5 in
        ignore (Param.matrix store2 (Printf.sprintf "p%d" i) rows cols)
      done;
      Serialize.load_store store2 path;
      Sys.remove path;
      Param.iter store (fun p ->
          let q = Param.find store2 p.Param.name in
          Array.iteri
            (fun i x ->
              (* bit-exact: compare the representations, not within epsilon *)
              let y = Tensor.get_idx q.Param.value i in
              if Int64.bits_of_float x <> Int64.bits_of_float y then
                QCheck.Test.fail_reportf "%s[%d]: %.17g reloaded as %.17g" p.Param.name i
                  x y)
            (Tensor.to_array p.Param.value));
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_softmax_distribution; prop_axpy_linear; prop_dot_symmetric;
      prop_grad_check_random_graph; prop_serialize_bit_exact ]

let () =
  Alcotest.run "tensor"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "matvec vs naive" `Quick test_matvec_matches_naive;
          Alcotest.test_case "axpy" `Quick test_axpy;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "softmax distribution" `Quick test_softmax_sums_to_one;
          Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
          Alcotest.test_case "of_rows/get" `Quick test_of_rows_and_get;
          Alcotest.test_case "argmax" `Quick test_argmax;
          Alcotest.test_case "outer_acc" `Quick test_outer_acc;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "add/mul/tanh grads" `Quick test_grad_add_mul_tanh;
          Alcotest.test_case "sub/neg/scale grads" `Quick test_grad_sub_neg_scale;
          Alcotest.test_case "sigmoid/relu grads" `Quick test_grad_sigmoid_relu;
          Alcotest.test_case "concat/dot grads" `Quick test_grad_dot_concat;
          Alcotest.test_case "softmax grads" `Quick test_grad_softmax;
          Alcotest.test_case "weighted_sum grads" `Quick test_grad_weighted_sum;
          Alcotest.test_case "max_pool grads" `Quick test_grad_max_pool;
          Alcotest.test_case "mean_pool grads" `Quick test_grad_mean_pool;
          Alcotest.test_case "cross-entropy grads" `Quick test_grad_cross_entropy;
          Alcotest.test_case "matvec param grads" `Quick test_grad_matvec_param;
          Alcotest.test_case "embedding row grads" `Quick test_grad_embedding_row;
          Alcotest.test_case "shared subexpression" `Quick test_grad_shared_subexpression;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "sgd converges" `Quick test_sgd_converges;
          Alcotest.test_case "adam converges" `Quick test_adam_converges;
          Alcotest.test_case "clip grads" `Quick test_clip_grads;
          Alcotest.test_case "sgd momentum" `Quick test_sgd_momentum_converges;
          Alcotest.test_case "weight decay" `Quick test_weight_decay_shrinks;
          Alcotest.test_case "zero grads" `Quick test_zero_grads;
          Alcotest.test_case "duplicate param rejected" `Quick test_param_duplicate_rejected;
          Alcotest.test_case "num_params" `Quick test_num_params;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "shape mismatch" `Quick test_serialize_shape_mismatch;
        ] );
      ("qcheck", qcheck_cases);
    ]
