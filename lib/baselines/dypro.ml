(** DYPRO (Wang 2019): the dynamic-only baseline.

    DYPRO embeds each {e concrete} execution trace separately — there is no
    symbolic dimension and no grouping by path — and pools the per-trace
    embeddings into the program embedding.  Per §6.1 we feed it "the
    variable names together with their values": each variable embeds as the
    concatenation of its name-token embedding and its value embedding (an
    RNN over the flattened value for composites), a state RNN folds the
    variables, and a trace RNN folds the states.

    Compared to LiGer's encoder this is exactly the "remove static features
    and ungroup the traces" architecture the paper contrasts against
    (§6.3.1 explains the difference from LiGer-without-static). *)

open Liger_tensor
open Liger_trace
open Liger_nn
open Liger_core

type t = {
  task : Liger_model.task;
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  f1 : Rnn_cell.t;        (* value RNN *)
  f2 : Rnn_cell.t;        (* state RNN over (name ++ value) vectors *)
  trace_rnn : Rnn_cell.t;
  decoder : Decoder.t option;
  classifier : Linear.t option;
}

let create ?(dim = 16) ?(seed = 11) vocab (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let embedding = Embedding_layer.create store "vocab" vocab ~dim in
  let f1 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f1" ~dim_in:dim ~dim_hidden:dim in
  let f2 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f2" ~dim_in:(2 * dim) ~dim_hidden:dim in
  let trace_rnn = Rnn_cell.create ~kind:Rnn_cell.Gru store "trace" ~dim_in:dim ~dim_hidden:dim in
  let decoder, classifier =
    match task with
    | Liger_model.Naming ->
        (Some (Decoder.create store "dec" embedding ~dim_hidden:dim ~dim_mem:dim), None)
    | Liger_model.Classify n -> (None, Some (Linear.create store "cls" ~dim_in:dim ~dim_out:n))
  in
  { task; store; vocab; embedding; f1; f2; trace_rnn; decoder; classifier }

let store t = t.store
let num_params t = Param.num_params t.store

let embed_value t tape (tokens : int array) =
  if Array.length tokens = 1 then Embedding_layer.embed_id t.embedding tape tokens.(0)
  else
    Rnn_cell.last t.f1 tape
      (List.map (Embedding_layer.embed_id t.embedding tape) (Array.to_list tokens))

let embed_state t tape ~var_name_ids (vars : int array array) =
  let inputs =
    List.mapi
      (fun i tokens ->
        let name_id =
          if i < Array.length var_name_ids then var_name_ids.(i) else Vocab.unk_id
        in
        Autodiff.concat tape
          [ Embedding_layer.embed_id t.embedding tape name_id; embed_value t tape tokens ])
      (Array.to_list vars)
  in
  Rnn_cell.last t.f2 tape inputs

(* Embed the k-th concrete trace of an encoded path. *)
let encode_concrete t tape ~var_name_ids (tr : Common.enc_trace) k =
  let h = ref (Rnn_cell.init_state t.trace_rnn tape) in
  let mem = ref [] in
  Array.iter
    (fun (step : Common.enc_step) ->
      let x = embed_state t tape ~var_name_ids step.Common.var_tokens.(k) in
      h := Rnn_cell.step t.trace_rnn tape ~h:!h ~x;
      mem := !h :: !mem)
    tr.Common.steps;
  (List.rev !mem, !h)

(** Encode every concrete trace the view exposes; program embedding is the
    max-pool over trace embeddings. *)
let encode t tape ?(view = Common.full_view) (ex : Common.enc_example) =
  let var_name_ids = ex.Common.var_name_ids in
  let mems = ref [] and finals = ref [] in
  Array.iter
    (fun tr ->
      for k = 0 to Common.select_concrete view tr - 1 do
        let mem, final = encode_concrete t tape ~var_name_ids tr k in
        mems := mem :: !mems;
        finals := final :: !finals
      done)
    (Common.select_traces view ex);
  let finals = Array.of_list (List.rev !finals) in
  let program_embedding =
    if Array.length finals = 0 then
      Autodiff.const tape (Array.make (Rnn_cell.dim_hidden t.trace_rnn) 0.0)
    else Autodiff.max_pool tape finals
  in
  (program_embedding, Array.of_list (List.concat (List.rev !mems)))

let loss t tape ?view (ex : Common.enc_example) =
  let program_embedding, memory = encode t tape ?view ex in
  match (t.task, t.decoder, t.classifier) with
  | Liger_model.Naming, Some dec, _ ->
      Decoder.loss dec tape ~memory ~program_embedding ~target_ids:ex.Common.target_ids
  | Liger_model.Classify _, _, Some cls -> (
      let logits = Linear.forward cls tape program_embedding in
      match ex.Common.target_ids with
      | [ c ] -> fst (Autodiff.softmax_cross_entropy tape logits c)
      | _ -> invalid_arg "Dypro.loss: classification target must be one class")
  | _ -> invalid_arg "Dypro.loss: task/head mismatch"

let predict_name t tape ?view (ex : Common.enc_example) =
  match t.decoder with
  | None -> invalid_arg "Dypro.predict_name: not a naming model"
  | Some dec ->
      let program_embedding, memory = encode t tape ?view ex in
      List.map (Vocab.name t.vocab) (Decoder.decode dec tape ~memory ~program_embedding)

let predict_class t tape ?view (ex : Common.enc_example) =
  match t.classifier with
  | None -> invalid_arg "Dypro.predict_class: not a classification model"
  | Some cls ->
      let program_embedding, _ = encode t tape ?view ex in
      Tensor.argmax (Autodiff.value (Linear.forward cls tape program_embedding))

(** The program embedding vector itself (frozen; for probing). *)
let embed_program t ?view (ex : Common.enc_example) =
  let tape = Autodiff.tape () in
  let program_embedding, _ = encode t tape ?view ex in
  let v = Array.copy (Autodiff.value program_embedding) in
  Autodiff.discard tape;
  v

(** Frozen per-statement embeddings (same contract as
    {!Liger_core.Liger_model.statement_embeddings}): per statement id, the
    mean of every trace-RNN state produced while executing that statement,
    over all concrete traces the view exposes. *)
let statement_embeddings t ?(view = Common.full_view) (ex : Common.enc_example) =
  let tape = Autodiff.tape () in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (tr : Common.enc_trace) ->
      for k = 0 to Common.select_concrete view tr - 1 do
        let mem, _ = encode_concrete t tape ~var_name_ids:ex.Common.var_name_ids tr k in
        List.iteri
          (fun j h ->
            let sid = tr.Common.steps.(j).Common.memo_key lsr 1 in
            let v = Autodiff.value h in
            match Hashtbl.find_opt tbl sid with
            | Some (sum, n) ->
                Array.iteri (fun i x -> sum.(i) <- sum.(i) +. x) v;
                Hashtbl.replace tbl sid (sum, n + 1)
            | None -> Hashtbl.add tbl sid (Array.copy v, 1))
          mem
      done)
    (Common.select_traces view ex);
  Autodiff.discard tape;
  Hashtbl.fold
    (fun sid (sum, n) acc ->
      (sid, Array.map (fun x -> x /. float_of_int n) sum) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ===== Batched encoding (flat Bigarray engine) =====

   One lane of the trace GRU per (trace, concrete execution) pair across
   the batch, grouped by example in the unbatched order.  Every distinct
   (variable names, state) pair is embedded once by {!Batch_pack.States};
   lanes pool into their example with [group_max], and the decoder memory
   keeps the unbatched (trace, execution, step) order.  The result is a
   {!Liger_model.batch_encoding}. *)

let encode_batch t btape ~view (exs : Common.enc_example array) =
  let g_n = Array.length exs in
  if g_n = 0 then invalid_arg "Dypro.encode_batch: empty batch";
  let d = Rnn_cell.dim_hidden t.trace_rnn in
  let pack = Batch_pack.States.create ~names:true in
  let lanes_rev = ref [] in
  Array.iteri
    (fun g (ex : Common.enc_example) ->
      let names = ex.Common.var_name_ids in
      Array.iter
        (fun (tr : Common.enc_trace) ->
          for k = 0 to Common.select_concrete view tr - 1 do
            let states =
              Array.map
                (fun (step : Common.enc_step) ->
                  Batch_pack.States.add pack ~names step.Common.var_tokens.(k))
                tr.Common.steps
            in
            lanes_rev := (g, states) :: !lanes_rev
          done)
        (Common.select_traces view ex))
    exs;
  let lanes = Array.of_list (List.rev !lanes_rev) in
  let l_n = Array.length lanes in
  if l_n = 0 then
    {
      Liger_model.benc_prog = Batched.zeros btape ~rows:g_n ~cols:d;
      benc_mem = [| Batched.zeros btape ~rows:g_n ~cols:d |];
      benc_mem_mask = Tensor.zeros g_n 1;
    }
  else begin
    let lane_ex = Array.map fst lanes in
    let n_steps = Array.map (fun (_, states) -> Array.length states) lanes in
    let h = ref (Rnn_cell.init_state_batch t.trace_rnn btape ~lanes:l_n) in
    let mem_rev = ref [] in
    (match Batch_pack.States.embed pack btape ~embedding:t.embedding ~f1:t.f1 ~f2:t.f2 with
    | None -> ()  (* no lane has a step *)
    | Some state_vecs ->
        let max_s = Array.fold_left Stdlib.max 0 n_steps in
        for j = 0 to max_s - 1 do
          let idx = Array.map (fun (_, s) -> if j < Array.length s then s.(j) else 0) lanes in
          let mask = Array.map (fun n -> if j < n then 1.0 else 0.0) n_steps in
          h :=
            Rnn_cell.step_batch ~mask t.trace_rnn btape ~h:!h
              ~x:(Batched.gather_rows btape state_vecs idx);
          mem_rev := !h :: !mem_rev
        done);
    let benc_mem, benc_mem_mask =
      Batch_pack.trace_memory btape (List.rev !mem_rev) ~lane_ex ~n_steps ~n_groups:g_n ~dim:d
    in
    {
      Liger_model.benc_prog = Batched.group_max btape !h ~groups:lane_ex ~n_groups:g_n;
      benc_mem;
      benc_mem_mask;
    }
  end

(** Batched training loss: per-example losses as a [G×1] node on [btape];
    per lane equal to {!loss} up to float reassociation. *)
let loss_batch t btape ?(view = Common.full_view) (exs : Common.enc_example array) =
  let enc = encode_batch t btape ~view exs in
  match (t.task, t.decoder, t.classifier) with
  | Liger_model.Naming, Some dec, _ ->
      Decoder.loss_batch dec btape ~memory:enc.benc_mem ~memory_mask:enc.benc_mem_mask
        ~program_embedding:enc.benc_prog
        ~target_ids:(Array.map (fun (ex : Common.enc_example) -> ex.Common.target_ids) exs)
  | Liger_model.Classify _, _, Some cls ->
      Batch_pack.class_losses btape
        (Linear.forward_batch cls btape enc.benc_prog)
        exs ~who:"Dypro.loss_batch"
  | _ -> invalid_arg "Dypro.loss_batch: task/head mismatch"

(** Batched greedy naming prediction; one sub-token list per example. *)
let predict_name_batch t ?(view = Common.full_view) exs =
  match t.decoder with
  | None -> invalid_arg "Dypro.predict_name_batch: not a naming model"
  | Some dec ->
      Batch_pack.infer exs (fun btape ->
          let enc = encode_batch t btape ~view exs in
          Decoder.decode_batch dec btape ~memory:enc.benc_mem ~memory_mask:enc.benc_mem_mask
            ~program_embedding:enc.benc_prog
          |> Array.map (List.map (Vocab.name t.vocab)))

(** Batched class prediction; one class id per example. *)
let predict_class_batch t ?(view = Common.full_view) exs =
  match t.classifier with
  | None -> invalid_arg "Dypro.predict_class_batch: not a classification model"
  | Some cls ->
      Batch_pack.infer exs (fun btape ->
          let enc = encode_batch t btape ~view exs in
          Batch_pack.argmax_rows (Linear.forward_batch cls btape enc.benc_prog))
