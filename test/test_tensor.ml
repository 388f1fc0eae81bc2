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

(* Every kind of draw, from several seeds and from split generators: a
   change to the generator's state handling must keep every bit. *)
let test_rng_pinned_stream () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let child = Rng.split rng in
      for _ = 1 to 20 do
        let next = Rng.next rng in
        let n = Rng.int rng 1000 in
        let r = Rng.int_range rng (-32) 32 in
        let f = Int64.bits_of_float (Rng.float rng 2.5) in
        let b = Rng.bool rng in
        let p = Rng.bernoulli rng 0.3 in
        let g = Int64.bits_of_float (Rng.gaussian child) in
        Printf.bprintf buf "%Ld %d %d %Ld %b %b %Ld\n" next n r f b p g
      done)
    [ 0; 1; 7; -3; max_int ];
  Alcotest.(check string) "draws digest" "465cb7a0dbdca2fe23a391230aeb5b99" (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_rng_coin_is_bernoulli_half () =
  let a = Rng.create 29 and b = Rng.create 29 in
  for _ = 1 to 100_000 do
    if Rng.coin a <> Rng.bernoulli b 0.5 then Alcotest.fail "coin and bernoulli 0.5 disagree"
  done;
  Alcotest.(check int64) "streams in step" (Rng.next a) (Rng.next b)

let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 31 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int rng 10 + Rng.int_range rng (-5) 5;
    if Rng.bool rng then incr acc;
    if Rng.coin rng then incr acc;
    if Rng.bernoulli rng 0.5 then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "drew" true (!acc > 0);
  if words > 100.0 then Alcotest.failf "50,000 draws allocated %.0f words" words

let test_rng_choose_list_is_choose () =
  for len = 1 to 9 do
    let l = List.init len (fun i -> (i * 7) + 3) in
    for seed = 0 to 11 do
      let a = Rng.create seed and b = Rng.create seed in
      for _ = 1 to 5 do
        Alcotest.(check int) "same element" (Rng.choose a (Array.of_list l)) (Rng.choose_list b l)
      done;
      Alcotest.(check int64) "streams in step" (Rng.next a) (Rng.next b)
    done
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.choose_list: empty list") (fun () ->
      ignore (Rng.choose_list (Rng.create 1) []))

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

let test_of_rows_and_get () =
  let m = Tensor.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "m(1,0)" 3.0 (Tensor.get m 1 0);
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Tensor.of_rows: ragged")
    (fun () -> ignore (Tensor.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_argmax () =
  Alcotest.(check int) "argmax" 2 (Tensor.argmax [| 0.1; 0.5; 0.9; 0.2 |]);
  Alcotest.(check int) "ties to first" 0 (Tensor.argmax [| 1.0; 1.0 |])

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

let test_grad_sigmoid () =
  let rng = Rng.create 33 in
  let x = rand_vec rng 5 in
  grad_check "sigmoid"
    (fun t -> function [ a ] -> Batched.sum_all t (Batched.sigmoid t a) | _ -> assert false)
    [ lane x ]

(* column concat and slice; a lane's dot product is sum(c ⊙ c) *)
let test_grad_dot_concat () =
  let rng = Rng.create 34 in
  let x = rand_vec rng 6 and y = rand_vec rng 4 in
  grad_check "concat-slice-dot"
    (fun t -> function
      | [ a; b ] ->
          let c = Batched.concat_cols t [ a; b ] in
          let s = Batched.scale t (-1.0) (Batched.slice_cols t c 1 3) in
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
    let y =
      Array.init 2 (fun i ->
          let acc = ref 0.0 in
          for j = 0 to 2 do
            acc := !acc +. (Tensor.get target i j *. x.(j))
          done;
          !acc)
    in
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

let test_adam_converges () =
  let start, final = converges (fun () -> Optimizer.adam ~lr:0.02 ()) in
  Alcotest.(check bool) "adam improves 100x" true (final < start /. 100.0)

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
    [ prop_grad_check_random_graph; prop_serialize_bit_exact ]

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
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "coin is bernoulli 0.5" `Quick test_rng_coin_is_bernoulli_half;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          Alcotest.test_case "choose_list is choose" `Quick test_rng_choose_list_is_choose;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "of_rows/get" `Quick test_of_rows_and_get;
          Alcotest.test_case "argmax" `Quick test_argmax;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "add/mul/tanh grads" `Quick test_grad_add_mul_tanh;
          Alcotest.test_case "sub/neg/scale grads" `Quick test_grad_sub_neg_scale;
          Alcotest.test_case "sigmoid grads" `Quick test_grad_sigmoid;
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
          Alcotest.test_case "adam converges" `Quick test_adam_converges;
          Alcotest.test_case "clip grads" `Quick test_clip_grads;
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
