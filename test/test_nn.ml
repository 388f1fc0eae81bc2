(* Tests for the NN layer zoo: parameter-space gradient checks for every
   layer entry point (linear, embedding, vanilla RNN, GRU, LSTM, TreeLSTM,
   attention, decoder) and small end-to-end learning sanity checks. *)

open Liger_tensor
open Liger_nn
open Liger_trace

let rand_input rng n = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)

(* a [rows × (|a|/rows)] constant leaf *)
let const tape ~rows a = Batched.const_arr tape ~rows ~cols:(Array.length a / rows) a

let sq_loss tape y = Batched.sum_all tape (Batched.mul tape y y)

(* three steps over two lanes; lane 1 stops after two (masked step) *)
let ragged_steps tape xs =
  List.mapi (fun s x -> (const tape ~rows:2 x, if s < 2 then None else Some [| 1.0; 0.0 |])) xs

(* ------------------------------------------------------------------ *)
(* Gradient checks                                                      *)
(* ------------------------------------------------------------------ *)

(* both fused activations *)
let test_linear_grads () =
  let store = Param.create_store ~seed:1 () in
  let layer = Linear.create store "lin" ~dim_in:3 ~dim_out:2 in
  let rng = Rng.create 2 in
  let x = rand_input rng 6 in
  Testutil.grad_check store (fun tape ->
      let x = const tape ~rows:2 x in
      Batched.add tape
        (sq_loss tape (Linear.forward_tanh_batch layer tape x))
        (sq_loss tape (Linear.forward_sigmoid_batch layer tape x)))

let test_slice_grads () =
  let store = Param.create_store ~seed:3 () in
  let p = Param.matrix store "p" 1 6 in
  Testutil.grad_check store (fun tape ->
      let v = Batched.of_param tape ~lanes:2 p in
      let a = Batched.slice_cols tape v 0 3 in
      let b = Batched.scale tape (-1.0) (Batched.slice_cols tape v 3 3) in
      Batched.sum_all tape (Batched.mul tape a b))

let rnn_grads ~seed kind =
  let store = Param.create_store ~seed () in
  let cell = Rnn_cell.create ~kind store "rnn" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create (seed + 1) in
  let xs = List.init 3 (fun _ -> rand_input rng 6) in
  Testutil.grad_check store (fun tape ->
      sq_loss tape (Rnn_cell.last_batch cell tape ~lanes:2 (ragged_steps tape xs)))

let test_vanilla_rnn_grads () = rnn_grads ~seed:4 Rnn_cell.Vanilla
let test_gru_grads () = rnn_grads ~seed:6 Rnn_cell.Gru

let test_treelstm_grads () =
  let store = Param.create_store ~seed:10 () in
  let cell = Treelstm.create store "tree" ~dim_in:3 ~dim_hidden:3 in
  let emb = Param.embedding store "emb" 5 3 in
  let trees =
    [
      Encode.Node
        ( "Assign",
          [
            Encode.Leaf "x";
            Encode.Node ("Binop", [ Encode.Leaf "+"; Encode.Leaf "x"; Encode.Leaf "1" ]);
          ] );
      Encode.Leaf "x";
    ]
  in
  let label_id = function
    | "Assign" -> 0 | "x" -> 1 | "Binop" -> 2 | "+" -> 3 | _ -> 4
  in
  Testutil.grad_check store (fun tape ->
      let embed labels = Batched.rows_of_param tape emb (Array.map label_id labels) in
      sq_loss tape (Treelstm.embed_forest cell tape ~embed trees))

let test_attention_grads () =
  let store = Param.create_store ~seed:11 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:2 ~dim_att:4 in
  let rng = Rng.create 12 in
  let q = rand_input rng 4 in
  let hs = Array.init 3 (fun _ -> rand_input rng 6) in
  let mask = Tensor.create 2 3 in
  Tensor.fill mask 1.0;
  Testutil.grad_check store (fun tape ->
      let q = const tape ~rows:2 q in
      let hs = Array.map (const tape ~rows:2) hs in
      sq_loss tape (snd (Attention.fuse_batch att tape ~q ~mask hs)))

let test_decoder_grads () =
  let store = Param.create_store ~seed:13 () in
  let vocab = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id vocab t)) [ "foo"; "bar" ];
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:3 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:3 ~dim_mem:3 in
  let rng = Rng.create 14 in
  let mem = Array.init 2 (fun _ -> rand_input rng 3) in
  let prog = rand_input rng 3 in
  let mask = Tensor.create 1 2 in
  Tensor.fill mask 1.0;
  Testutil.grad_check ~tol:5e-3 store (fun tape ->
      let memory = Array.map (const tape ~rows:1) mem in
      let program_embedding = const tape ~rows:1 prog in
      Batched.sum_all tape
        (Decoder.loss_batch dec tape ~memory ~memory_mask:mask ~program_embedding
           ~target_ids:[| [ 4; 5 ] |]))

(* The 8th layer: embedding rows are parameters too; only the rows used
   in the forward pass receive gradient, a repeated id from both uses. *)
let test_embedding_grads () =
  let store = Param.create_store ~seed:15 () in
  let vocab = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id vocab t)) [ "foo"; "bar" ];
  Vocab.freeze vocab;
  let e = Embedding_layer.create store "emb" vocab ~dim:3 in
  Testutil.grad_check store (fun tape ->
      let y = Embedding_layer.embed_ids e tape [| 4; Vocab.unk_id; 4 |] in
      let w = Batched.const_arr tape ~rows:3 ~cols:3 [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
      Batched.sum_all tape (Batched.mul tape (Batched.mul tape y y) w))

(* ------------------------------------------------------------------ *)
(* Behaviour                                                            *)
(* ------------------------------------------------------------------ *)

let test_attention_weights_are_distribution () =
  let store = Param.create_store ~seed:15 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:3 ~dim_att:4 in
  let rng = Rng.create 16 in
  let tape = Batched.tape () in
  let q = const tape ~rows:1 (rand_input rng 3) in
  let hs = Array.init 4 (fun _ -> const tape ~rows:1 (rand_input rng 3)) in
  let mask = Tensor.create 1 4 in
  Tensor.fill mask 1.0;
  let w = Attention.weights_batch att tape ~q ~mask hs in
  let sum = Array.fold_left ( +. ) 0.0 (Batched.row_value w 0) in
  Alcotest.(check bool) "sums to 1" true (Float.abs (sum -. 1.0) < 1e-9);
  Batched.discard tape

let test_fuse_uniform () =
  let tape = Batched.tape () in
  let hs = [| const tape ~rows:1 [| 1.0; 2.0 |]; const tape ~rows:1 [| 3.0; 4.0 |] |] in
  let mask = Tensor.create 1 2 in
  Tensor.fill mask 1.0;
  let w, fused = Attention.fuse_uniform_batch tape ~mask hs in
  Alcotest.(check (array (float 1e-9))) "weights" [| 0.5; 0.5 |] (Batched.row_value w 0);
  Alcotest.(check (array (float 1e-9))) "mean" [| 2.0; 3.0 |] (Batched.row_value fused 0);
  Batched.discard tape

let test_embedding_unseen_maps_to_unk () =
  let store = Param.create_store ~seed:17 () in
  let vocab = Vocab.create () in
  ignore (Vocab.id vocab "known");
  Vocab.freeze vocab;
  let e = Embedding_layer.create store "emb" vocab ~dim:4 in
  let tape = Batched.tape () in
  let unseen = Embedding_layer.embed_batch e tape [| "never-seen" |] in
  let unk = Embedding_layer.embed_ids e tape [| Vocab.unk_id |] in
  Alcotest.(check (array (float 0.0))) "same row" (Batched.row_value unk 0)
    (Batched.row_value unseen 0);
  Batched.discard tape

(* A GRU must learn to classify whether a +/-1 sequence has positive sum. *)
let test_gru_learns_sign_task () =
  let store = Param.create_store ~seed:18 () in
  let cell = Rnn_cell.create store "gru" ~dim_in:2 ~dim_hidden:8 in
  let out = Linear.create store "out" ~dim_in:8 ~dim_out:2 in
  let opt = Optimizer.adam ~lr:0.01 () in
  let rng = Rng.create 19 in
  let sample () =
    let len = 3 + Rng.int rng 5 in
    let xs = List.init len (fun _ -> if Rng.bool rng then 1 else -1) in
    let sum = List.fold_left ( + ) 0 xs in
    (xs, if sum > 0 then 1 else 0)
  in
  let encode x = if x > 0 then [| 1.0; 0.0 |] else [| 0.0; 1.0 |] in
  let step train (xs, label) =
    let tape = Batched.tape () in
    let inputs = List.map (fun x -> (const tape ~rows:1 (encode x), None)) xs in
    let h = Rnn_cell.last_batch cell tape ~lanes:1 inputs in
    let logits = Linear.forward_batch out tape h in
    let loss, _ = Batched.softmax_xent_rows tape logits ~targets:[| label |] ~weights:[| 1.0 |] in
    let correct = Tensor.argmax (Batched.row_value logits 0) = label in
    if train then begin
      Batched.backward tape loss;
      Optimizer.step opt store
    end
    else Batched.discard tape;
    correct
  in
  for _ = 1 to 600 do
    ignore (step true (sample ()))
  done;
  let correct = ref 0 in
  let n = 100 in
  for _ = 1 to n do
    if step false (sample ()) then incr correct
  done;
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %d%% >= 90%%" !correct)
    true (!correct >= 90)

(* The decoder must learn to emit a fixed 2-token name from a constant
   program embedding: a pure capacity/wiring check. *)
let test_decoder_learns_constant_sequence () =
  let store = Param.create_store ~seed:20 () in
  let vocab = Vocab.create () in
  let ids = List.map (Vocab.id vocab) [ "get"; "max"; "other" ] in
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:6 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:6 ~dim_mem:4 in
  let opt = Optimizer.adam ~lr:0.02 () in
  let mem_raw = [| [| 1.0; 0.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0; 0.0 |] |] in
  let prog_raw = [| 0.5; -0.5; 0.25; 0.0 |] in
  let memory_mask = Tensor.create 1 2 in
  Tensor.fill memory_mask 1.0;
  let target = [ List.nth ids 0; List.nth ids 1 ] in
  for _ = 1 to 150 do
    let tape = Batched.tape () in
    let memory = Array.map (const tape ~rows:1) mem_raw in
    let program_embedding = const tape ~rows:1 prog_raw in
    let loss =
      Decoder.loss_batch dec tape ~memory ~memory_mask ~program_embedding ~target_ids:[| target |]
    in
    Batched.backward tape loss;
    Optimizer.step opt store
  done;
  let tape = Batched.tape () in
  let memory = Array.map (const tape ~rows:1) mem_raw in
  let program_embedding = const tape ~rows:1 prog_raw in
  let decoded = Decoder.decode_batch dec tape ~memory ~memory_mask ~program_embedding in
  Batched.discard tape;
  Alcotest.(check (list int)) "decodes getMax" target decoded.(0)

let test_treelstm_distinguishes_trees () =
  (* different trees must produce different embeddings (no collapse) *)
  let store = Param.create_store ~seed:21 () in
  let cell = Treelstm.create store "tree" ~dim_in:4 ~dim_hidden:4 in
  let emb = Param.embedding store "emb" 8 4 in
  let labels = Hashtbl.create 8 in
  let label_id tok =
    match Hashtbl.find_opt labels tok with
    | Some i -> i
    | None ->
        let i = Hashtbl.length labels in
        Hashtbl.add labels tok i;
        i
  in
  let t1 = Encode.Node ("Binop", [ Encode.Leaf "+"; Encode.Leaf "x"; Encode.Leaf "x" ]) in
  let t2 = Encode.Node ("Binop", [ Encode.Leaf "*"; Encode.Leaf "x"; Encode.Leaf "2" ]) in
  let tape = Batched.tape () in
  let embed toks = Batched.rows_of_param tape emb (Array.map label_id toks) in
  let h = Treelstm.embed_forest cell tape ~embed [ t1; t2 ] in
  let h1 = Batched.row_value h 0 and h2 = Batched.row_value h 1 in
  Batched.discard tape;
  let d = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i a -> Float.abs (a -. h2.(i))) h1) in
  Alcotest.(check bool) "embeddings differ" true (d > 1e-6)

let test_rnn_run_lengths () =
  let store = Param.create_store ~seed:22 () in
  let cell = Rnn_cell.create store "gru" ~dim_in:2 ~dim_hidden:3 in
  let tape = Batched.tape () in
  let xs = List.init 5 (fun _ -> (const tape ~rows:1 [| 1.0; 0.0 |], None)) in
  Alcotest.(check int) "one state per input" 5
    (List.length (Rnn_cell.run_batch cell tape ~lanes:1 xs));
  let h = Rnn_cell.last_batch cell tape ~lanes:2 [] in
  Alcotest.(check (pair int int)) "empty -> initial state" (2, 3) (Batched.lanes h, Batched.dim h);
  Batched.discard tape

let () =
  Alcotest.run "nn"
    [
      ( "gradients",
        [
          Alcotest.test_case "linear" `Quick test_linear_grads;
          Alcotest.test_case "slice_cols" `Quick test_slice_grads;
          Alcotest.test_case "vanilla rnn" `Quick test_vanilla_rnn_grads;
          Alcotest.test_case "gru" `Quick test_gru_grads;
          Alcotest.test_case "treelstm" `Quick test_treelstm_grads;
          Alcotest.test_case "attention" `Quick test_attention_grads;
          Alcotest.test_case "decoder" `Quick test_decoder_grads;
          Alcotest.test_case "embedding" `Quick test_embedding_grads;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "attention distribution" `Quick test_attention_weights_are_distribution;
          Alcotest.test_case "uniform fusion" `Quick test_fuse_uniform;
          Alcotest.test_case "unk embedding" `Quick test_embedding_unseen_maps_to_unk;
          Alcotest.test_case "gru learns sign task" `Slow test_gru_learns_sign_task;
          Alcotest.test_case "decoder learns sequence" `Slow test_decoder_learns_constant_sequence;
          Alcotest.test_case "treelstm distinguishes" `Quick test_treelstm_distinguishes_trees;
          Alcotest.test_case "rnn run lengths" `Quick test_rnn_run_lengths;
        ] );
    ]
