(* Batched-engine equivalence suite: the contract is that every lib/nn
   layer's *_batch variant computes, per lane, the same function as its
   unbatched counterpart (within float-reassociation tolerance), that
   padded lanes and masked slots receive EXACTLY zero gradient, and that
   the GEMM kernels agree with a naive reference bitwise-deterministically
   across parallel schedules.  Ends with full-model loss_batch vs loss and
   predict_batch vs predict for all four models, pinned forward bits of a
   ragged batch, and Train.fit determinism across pool sizes at batch 3
   and at batch 1. *)

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

let store_grads store =
  Param.fold store ~init:[] (fun acc p ->
      (p.Param.name, Tensor.to_array p.Param.grad) :: acc)

let check_grads ?(tol = 1e-6) tag expected actual =
  List.iter
    (fun (name, e) -> check_close ~tol (tag ^ "/grad " ^ name) e (List.assoc name actual))
    expected

(* Unbatched reference loss: sum over lanes of sum(y_l .* y_l), all on one
   tape so one backward accumulates every lane's parameter gradient. *)
let sq_loss_unbatched tape ys =
  List.fold_left
    (fun acc y -> Autodiff.add tape acc (Autodiff.sum tape (Autodiff.mul tape y y)))
    (Autodiff.scalar tape 0.0) ys

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

let test_add_rows_cycle () =
  let btape = Batched.tape () in
  let a = Batched.const_arr btape ~rows:4 ~cols:2 [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let b = Batched.const_arr btape ~rows:2 ~cols:2 [| 10.; 20.; 30.; 40. |] in
  let out = Batched.add_rows_cycle btape a b in
  check_close ~tol:0.0 "cycle row0" [| 11.; 22. |] (Batched.row_value out 0);
  check_close ~tol:0.0 "cycle row1" [| 33.; 44. |] (Batched.row_value out 1);
  check_close ~tol:0.0 "cycle row2" [| 15.; 26. |] (Batched.row_value out 2);
  check_close ~tol:0.0 "cycle row3" [| 37.; 48. |] (Batched.row_value out 3);
  Batched.backward btape (Batched.sum_all btape out);
  (* d(sum)/da = 1 everywhere; d(sum)/db sums the two blocks *)
  for i = 0 to 3 do
    check_close ~tol:0.0 "cycle da" [| 1.; 1. |] (Batched.row_grad a i)
  done;
  for i = 0 to 1 do
    check_close ~tol:0.0 "cycle db" [| 2.; 2. |] (Batched.row_grad b i)
  done

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
(* Per-layer batched-vs-unbatched equivalence (shared parameter store)  *)
(* ------------------------------------------------------------------ *)

let lanes = 3

(* Runs the unbatched builder (one tape, all lanes), snapshots loss+grads,
   zeroes, runs the batched builder, and compares. *)
let equivalence ?(tol = 1e-6) name store ~unbatched ~batched =
  let tape = Autodiff.tape () in
  let loss = unbatched tape in
  let expected = Autodiff.scalar_value loss in
  Autodiff.backward tape loss;
  let eg = store_grads store in
  Param.zero_grads store;
  let btape = Batched.tape () in
  let bloss = batched btape in
  let actual = Batched.scalar_value bloss in
  Batched.backward btape bloss;
  let ag = store_grads store in
  Param.zero_grads store;
  check_close ~tol (name ^ "/loss") [| expected |] [| actual |];
  check_grads ~tol name eg ag

let test_linear_equiv () =
  let store = Param.create_store ~seed:31 () in
  let layer = Linear.create store "lin" ~dim_in:4 ~dim_out:3 in
  let rng = Rng.create 32 in
  let xs = Array.init lanes (fun _ -> rand_arr rng 4) in
  equivalence "linear" store
    ~unbatched:(fun tape ->
      sq_loss_unbatched tape
        (Array.to_list
           (Array.map (fun x -> Linear.forward_tanh layer tape (Autodiff.const tape x)) xs)))
    ~batched:(fun btape ->
      let x =
        Batched.const_arr btape ~rows:lanes ~cols:4 (Array.concat (Array.to_list xs))
      in
      sq_loss_batched btape (Linear.forward_tanh_batch layer btape x))

let test_embedding_equiv () =
  let v = Vocab.create () in
  List.iter (fun s -> ignore (Vocab.add v s)) [ "alpha"; "beta"; "gamma" ];
  Vocab.freeze v;
  let store = Param.create_store ~seed:33 () in
  let emb = Embedding_layer.create store "emb" v ~dim:5 in
  let ids = [| 4; 6; 4 |] in
  (* duplicate id: scatter-add must accumulate *)
  equivalence "embedding" store
    ~unbatched:(fun tape ->
      sq_loss_unbatched tape
        (Array.to_list (Array.map (fun i -> Embedding_layer.embed_id emb tape i) ids)))
    ~batched:(fun btape ->
      sq_loss_batched btape (Embedding_layer.embed_ids emb btape ids))

let rnn_equiv kind name =
  let store = Param.create_store ~seed:34 () in
  let cell = Rnn_cell.create ~kind store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 35 in
  let steps = 3 in
  let xs = Array.init steps (fun _ -> Array.init lanes (fun _ -> rand_arr rng 3)) in
  equivalence name store
    ~unbatched:(fun tape ->
      let finals =
        List.init lanes (fun l ->
            let inputs = List.init steps (fun s -> Autodiff.const tape xs.(s).(l)) in
            match List.rev (Rnn_cell.run cell tape inputs) with
            | h :: _ -> h
            | [] -> assert false)
      in
      sq_loss_unbatched tape finals)
    ~batched:(fun btape ->
      let step s =
        ( Batched.const_arr btape ~rows:lanes ~cols:3 (Array.concat (Array.to_list xs.(s))),
          None )
      in
      let h = Rnn_cell.last_batch cell btape ~lanes (List.init steps step) in
      sq_loss_batched btape h)

let test_gru_equiv () = rnn_equiv Rnn_cell.Gru "rnn_cell.gru"
let test_vanilla_equiv () = rnn_equiv Rnn_cell.Vanilla "rnn_cell.vanilla"

let test_lstm_equiv () =
  let store = Param.create_store ~seed:36 () in
  let cell = Lstm.create store "lstm" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 37 in
  let steps = 3 in
  let xs = Array.init steps (fun _ -> Array.init lanes (fun _ -> rand_arr rng 3)) in
  equivalence "lstm" store
    ~unbatched:(fun tape ->
      let finals =
        List.init lanes (fun l ->
            let inputs = List.init steps (fun s -> Autodiff.const tape xs.(s).(l)) in
            Lstm.last cell tape inputs)
      in
      sq_loss_unbatched tape finals)
    ~batched:(fun btape ->
      let step s =
        ( Batched.const_arr btape ~rows:lanes ~cols:3 (Array.concat (Array.to_list xs.(s))),
          None )
      in
      sq_loss_batched btape (Lstm.last_batch cell btape ~lanes (List.init steps step)))

(* perturb the zero-initialised scorer direction so attention gradients are
   not trivially zero through the projection *)
let kick_attention_v store name =
  let p = Param.find store name in
  let rng = Rng.create 99 in
  for i = 0 to Tensor.size p.Param.value - 1 do
    Tensor.set_idx p.Param.value i (Rng.uniform rng (-0.5) 0.5)
  done

let test_attention_equiv () =
  let store = Param.create_store ~seed:38 () in
  let att = Attention.create store "att" ~dim_h:4 ~dim_q:3 ~dim_att:5 in
  kick_attention_v store "att.v";
  let rng = Rng.create 39 in
  let k = 3 in
  let qs = Array.init lanes (fun _ -> rand_arr rng 3) in
  let hs = Array.init k (fun _ -> Array.init lanes (fun _ -> rand_arr rng 4)) in
  equivalence "attention" store
    ~unbatched:(fun tape ->
      let fused =
        List.init lanes (fun l ->
            let q = Autodiff.const tape qs.(l) in
            let cands = Array.map (fun slot -> Autodiff.const tape slot.(l)) hs in
            snd (Attention.fuse att tape ~q cands))
      in
      sq_loss_unbatched tape fused)
    ~batched:(fun btape ->
      let q =
        Batched.const_arr btape ~rows:lanes ~cols:3 (Array.concat (Array.to_list qs))
      in
      let cands =
        Array.map
          (fun slot ->
            Batched.const_arr btape ~rows:lanes ~cols:4 (Array.concat (Array.to_list slot)))
          hs
      in
      let mask = Tensor.create lanes k in
      Tensor.fill mask 1.0;
      sq_loss_batched btape (snd (Attention.fuse_batch att btape ~q ~mask cands)))

let trees =
  Encode.
    [
      Node ("add", [ Leaf "x"; Node ("mul", [ Leaf "y"; Leaf "two" ]) ]);
      Leaf "lone";
      Node ("neg", [ Node ("abs", [ Leaf "z" ]) ]);
    ]

(* deterministic token -> R^3 so both paths embed identically *)
let tok_vec tok =
  let h = Hashtbl.hash tok in
  Array.init 3 (fun i -> float_of_int (((h lsr (4 * i)) land 15) - 8) /. 8.0)

let test_treelstm_equiv () =
  let store = Param.create_store ~seed:40 () in
  let tl = Treelstm.create store "tl" ~dim_in:3 ~dim_hidden:4 in
  equivalence ~tol:1e-6 "treelstm" store
    ~unbatched:(fun tape ->
      sq_loss_unbatched tape
        (List.map
           (fun tr ->
             Treelstm.embed_tree tl tape ~embed:(fun tok -> Autodiff.const tape (tok_vec tok)) tr)
           trees))
    ~batched:(fun btape ->
      let roots =
        Treelstm.embed_forest tl btape
          ~embed:(fun labels ->
            Batched.const_arr btape ~rows:(Array.length labels) ~cols:3
              (Array.concat (Array.to_list (Array.map tok_vec labels))))
          trees
      in
      sq_loss_batched btape roots)

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
  let k = 2 in
  let mems = Array.init k (fun _ -> Array.init lanes (fun _ -> rand_arr rng 5)) in
  let progs = Array.init lanes (fun _ -> rand_arr rng 5) in
  (* ragged targets: lane 1 finishes earlier, exercising weight-0 steps *)
  let targets = [| [ 4; 5 ]; [ 6 ]; [ 5; 4 ] |] in
  let tape = Autodiff.tape () in
  let per_lane =
    List.init lanes (fun l ->
        let memory = Array.map (fun slot -> Autodiff.const tape slot.(l)) mems in
        Decoder.loss dec tape ~memory
          ~program_embedding:(Autodiff.const tape progs.(l))
          ~target_ids:targets.(l))
  in
  let expected = List.map Autodiff.scalar_value per_lane in
  let total =
    List.fold_left (fun acc l -> Autodiff.add tape acc l) (Autodiff.scalar tape 0.0) per_lane
  in
  Autodiff.backward tape total;
  let eg = store_grads store in
  Param.zero_grads store;
  let btape = Batched.tape () in
  let memory =
    Array.map
      (fun slot ->
        Batched.const_arr btape ~rows:lanes ~cols:5 (Array.concat (Array.to_list slot)))
      mems
  in
  let mask = Tensor.create lanes k in
  Tensor.fill mask 1.0;
  let losses =
    Decoder.loss_batch dec btape ~memory ~memory_mask:mask
      ~program_embedding:
        (Batched.const_arr btape ~rows:lanes ~cols:5 (Array.concat (Array.to_list progs)))
      ~target_ids:targets
  in
  List.iteri
    (fun l e -> check_close ~tol:1e-6 "decoder/lane loss" [| e |] (Batched.row_value losses l))
    expected;
  Batched.backward btape (Batched.sum_all btape losses);
  let ag = store_grads store in
  Param.zero_grads store;
  check_grads ~tol:1e-6 "decoder" eg ag

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
(* Finite-difference gradcheck directly on the batched path            *)
(* ------------------------------------------------------------------ *)

let bgrad_check ?(eps = 1e-5) ?(tol = 2e-3) store build =
  let btape = Batched.tape () in
  let loss = build btape in
  Batched.backward btape loss;
  let grads = store_grads store in
  Param.zero_grads store;
  let eval () =
    let bt = Batched.tape () in
    let l = build bt in
    let v = Batched.scalar_value l in
    Batched.discard bt;
    v
  in
  Param.iter store (fun p ->
      let analytic = List.assoc p.Param.name grads in
      let value = p.Param.value in
      Array.iteri
        (fun i _ ->
          let orig = Tensor.get_idx value i in
          Tensor.set_idx value i (orig +. eps);
          let up = eval () in
          Tensor.set_idx value i (orig -. eps);
          let down = eval () in
          Tensor.set_idx value i orig;
          let numeric = (up -. down) /. (2.0 *. eps) in
          if Float.abs (analytic.(i) -. numeric) > tol *. (1.0 +. Float.abs numeric) then
            Alcotest.failf "%s[%d]: analytic %.6g numeric %.6g" p.Param.name i analytic.(i)
              numeric)
        analytic)

let test_batched_gru_gradcheck () =
  let store = Param.create_store ~seed:61 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 62 in
  let x1 = rand_arr rng 6 and x2 = rand_arr rng 6 in
  bgrad_check store (fun btape ->
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
  bgrad_check store (fun btape ->
      sq_loss_batched btape (Rnn_cell.last_batch gru btape ~lanes:3 (steps btape)));
  let store = Param.create_store ~seed:69 () in
  let lstm = Lstm.create store "lstm" ~dim_in:3 ~dim_hidden:4 in
  bgrad_check store (fun btape ->
      sq_loss_batched btape (Lstm.last_batch lstm btape ~lanes:3 (steps btape)))

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
  bgrad_check store (fun btape ->
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
  bgrad_check store (fun btape ->
      let roots =
        Treelstm.embed_forest tl btape
          ~embed:(fun labels ->
            Batched.const_arr btape ~rows:(Array.length labels) ~cols:3
              (Array.concat (Array.to_list (Array.map tok_vec labels))))
          trees
      in
      sq_loss_batched btape roots)

let test_batched_decoder_gradcheck () =
  let store, dec = make_decoder () in
  let rng = Rng.create 66 in
  let mems = Array.init 2 (fun _ -> rand_arr rng 10) in
  let progs = rand_arr rng 10 in
  bgrad_check ~tol:5e-3 store (fun btape ->
      let memory = Array.map (fun m -> Batched.const_arr btape ~rows:2 ~cols:5 m) mems in
      let mask = Tensor.create 2 2 in
      Tensor.fill mask 1.0;
      let losses =
        Decoder.loss_batch dec btape ~memory ~memory_mask:mask
          ~program_embedding:(Batched.const_arr btape ~rows:2 ~cols:5 progs)
          ~target_ids:[| [ 4 ]; [ 5; 6 ] |]
      in
      Batched.sum_all btape losses)

(* ------------------------------------------------------------------ *)
(* Full model and training loop                                        *)
(* ------------------------------------------------------------------ *)

let small_corpus =
  lazy
    (let enc =
       {
         Liger_core.Common.default_enc_config with
         Liger_core.Common.max_paths = 3;
         max_concrete = 2;
         max_steps = 10;
       }
     in
     Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4321)
       ~name:"batched-test" ~n:20)

let test_model_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let module LM = Liger_core.Liger_model in
  let wrap, model =
    Liger_eval.Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab LM.Naming
  in
  let chunk =
    Array.of_list
      (List.filteri (fun i _ -> i < 4) corpus.Liger_dataset.Pipeline.train)
  in
  if Array.length chunk = 0 then Alcotest.fail "empty train split";
  (* per-example unbatched losses and accumulated grads *)
  let expected =
    Array.map
      (fun ex ->
        let tape = Autodiff.tape () in
        let loss = wrap.Liger_eval.Train.train_loss tape ex in
        let v = Autodiff.scalar_value loss in
        Autodiff.backward tape loss;
        v)
      chunk
  in
  let eg = store_grads wrap.Liger_eval.Train.store in
  Param.zero_grads wrap.Liger_eval.Train.store;
  let btape = Batched.tape () in
  let losses, _ = LM.loss_batch model btape chunk in
  Array.iteri
    (fun l e ->
      check_close ~tol:1e-5 "model/lane loss" [| e |] (Batched.row_value losses l))
    expected;
  Batched.backward btape (Batched.sum_all btape losses);
  let ag = store_grads wrap.Liger_eval.Train.store in
  Param.zero_grads wrap.Liger_eval.Train.store;
  check_grads ~tol:1e-5 "model" eg ag

(* Per-lane equivalence of a whole model's batched loss against its
   per-example [Autodiff] loss: for each lane, the lane's loss value and
   the gradient of that lane's loss alone (the others weighted 0); every
   gradient entry the example leaves exactly zero must stay exactly zero,
   so padding and the other lanes leak nothing; finally the gradient of
   the summed batch loss against the per-example sum. *)
let check_model_lanes name (wrap : Liger_eval.Train.model) chunk =
  let store = wrap.Liger_eval.Train.store in
  let hooks = Option.get wrap.Liger_eval.Train.batched in
  let n = Array.length chunk in
  let unbatched ex =
    let tape = Autodiff.tape () in
    let loss = wrap.Liger_eval.Train.train_loss tape ex in
    let v = Autodiff.scalar_value loss in
    Autodiff.backward tape loss;
    v
  in
  let batched weights =
    let btape = Batched.tape () in
    let losses = hooks.Liger_eval.Train.train_loss_batch btape chunk in
    let values = Array.init n (fun g -> (Batched.row_value losses g).(0)) in
    Batched.backward btape
      (Batched.sum_all btape
         (Batched.mul btape losses (Batched.const_arr btape ~rows:n ~cols:1 weights)));
    values
  in
  Param.zero_grads store;
  Array.iteri
    (fun i ex ->
      let expected = unbatched ex in
      let eg = store_grads store in
      Param.zero_grads store;
      let values = batched (Array.init n (fun g -> if g = i then 1.0 else 0.0)) in
      let ag = store_grads store in
      Param.zero_grads store;
      let tag = Printf.sprintf "%s/lane %d" name i in
      check_close ~tol:1e-5 (tag ^ " loss") [| expected |] [| values.(i) |];
      check_grads ~tol:1e-5 tag eg ag;
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
  Array.iter (fun ex -> ignore (unbatched ex)) chunk;
  let eg = store_grads store in
  Param.zero_grads store;
  ignore (batched (Array.make n 1.0));
  let ag = store_grads store in
  Param.zero_grads store;
  check_grads ~tol:1e-5 (name ^ "/batch") eg ag

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
let test_classify_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let relabel i (ex : Liger_core.Common.enc_example) =
    { ex with Liger_core.Common.label = Liger_core.Common.Class (i mod 3); target_ids = [ i mod 3 ] }
  in
  let train = List.mapi relabel corpus.Liger_dataset.Pipeline.train in
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

(* [predict_batch] over a batch returns exactly the per-example
   [predict] results, for every model *)
let test_predict_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let vocab = corpus.Liger_dataset.Pipeline.vocab in
  let train = corpus.Liger_dataset.Pipeline.train in
  let examples =
    Array.of_list (corpus.Liger_dataset.Pipeline.valid @ corpus.Liger_dataset.Pipeline.test)
  in
  List.iter
    (fun (wrap : Liger_eval.Train.model) ->
      let hooks = Option.get wrap.Liger_eval.Train.batched in
      let got = hooks.Liger_eval.Train.predict_batch examples in
      Array.iteri
        (fun i ex ->
          if wrap.Liger_eval.Train.predict ex <> got.(i) then
            Alcotest.failf "%s: batched prediction %d differs from predict"
              wrap.Liger_eval.Train.name i)
        examples)
    [
      fst (Liger_eval.Zoo.liger ~vocab naming);
      fst (Liger_eval.Zoo.dypro ~vocab naming);
      Liger_eval.Zoo.code2seq ~train naming;
      Liger_eval.Zoo.code2vec ~train naming;
    ]

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
   lockstep padded recurrences and assume the same libm. *)
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
  let losses (wrap : Liger_eval.Train.model) =
    let hooks = Option.get wrap.Liger_eval.Train.batched in
    let btape = Batched.tape () in
    let l = hooks.Liger_eval.Train.train_loss_batch btape chunk in
    let v = Array.init (Array.length chunk) (fun g -> (Batched.row_value l g).(0)) in
    Batched.discard btape;
    v
  in
  let liger_wrap, liger = Liger_eval.Zoo.liger ~vocab naming in
  let check name expected xs = Alcotest.(check string) name expected (bits_digest xs) in
  check "liger losses" "3a10daeebf64e1cc8fd374d7af97c0c0" (losses liger_wrap);
  check "liger embed_programs" "d75f7861b905561e7b878ea403edf933"
    (Array.concat (Array.to_list (Liger_core.Liger_model.embed_programs liger chunk)));
  check "dypro losses" "587da2f05007171b4a975b29e96ec5a4" (losses (fst (Liger_eval.Zoo.dypro ~vocab naming)));
  check "code2seq losses" "c68338b8bf991af14926f8cd31bab75d" (losses (Liger_eval.Zoo.code2seq ~train naming))

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
            log = false;
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

let () =
  Alcotest.run "batched"
    [
      ( "gemm",
        [
          Alcotest.test_case "nt/nn/tn vs naive" `Quick test_gemm_vs_naive;
          Alcotest.test_case "sliced windows" `Quick test_gemm_slices;
          Alcotest.test_case "parallel bitwise" `Quick test_gemm_parallel_bitwise;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "stack_to_cols" `Quick test_stack_to_cols;
          Alcotest.test_case "add_rows_cycle" `Quick test_add_rows_cycle;
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
          Alcotest.test_case "lstm" `Quick test_lstm_equiv;
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
          Alcotest.test_case "gru and lstm (compacted lanes)" `Quick
            test_compacted_step_gradcheck;
          Alcotest.test_case "attention (split proj)" `Quick test_batched_attention_gradcheck;
          Alcotest.test_case "treelstm forest" `Quick test_batched_treelstm_gradcheck;
          Alcotest.test_case "decoder" `Slow test_batched_decoder_gradcheck;
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
