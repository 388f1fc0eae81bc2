(** Attention decoder emitting a method name as a sub-token sequence
    (§5.1.2).

    The decoder GRU is initialized from the program embedding H_P; at each
    step it attends over the flow of all blended traces (the flattened
    collection of per-step encoder states H^e_{i,j}), consumes the previous
    sub-token's embedding concatenated with the context vector, and emits a
    distribution over the vocabulary.  Training uses teacher forcing;
    inference is greedy (the corpus names are short, beam search buys
    nothing at our scale).  One lane per example throughout. *)

open Liger_tensor
open Liger_trace
module P = Liger_obs.Profile

let layer = P.register_layer "decoder"

type t = {
  cell : Rnn_cell.t;
  bridge : Linear.t;  (* program embedding -> initial decoder state *)
  out : Linear.t;     (* hidden ++ context -> vocabulary logits *)
  att : Attention.t;
  embedding : Embedding_layer.t;
  max_len : int;
}

let create ?(kind = Rnn_cell.Gru) ?(max_len = 8) store name embedding ~dim_hidden ~dim_mem =
  let dim_emb = Embedding_layer.dim embedding in
  {
    cell =
      Rnn_cell.create ~kind store (name ^ ".cell") ~dim_in:(dim_emb + dim_mem) ~dim_hidden;
    bridge = Linear.create store (name ^ ".bridge") ~dim_in:dim_mem ~dim_out:dim_hidden;
    out =
      Linear.create store (name ^ ".out") ~dim_in:(dim_hidden + dim_mem)
        ~dim_out:(Embedding_layer.vocab_size embedding);
    att = Attention.create store (name ^ ".att") ~dim_h:dim_mem ~dim_q:dim_hidden ~dim_att:dim_hidden;
    embedding;
    max_len;
  }

let init_batch_impl t btape ~program_embedding =
  Linear.forward_tanh_batch t.bridge btape program_embedding

let init_batch t btape ~program_embedding =
  if P.scope_on () then P.with_layer layer (fun () -> init_batch_impl t btape ~program_embedding)
  else init_batch_impl t btape ~program_embedding

(* [memory] is K padded slot nodes (lanes × dim_mem) with a lanes × K
   validity mask; each lane attends only over its own valid slots. *)
let step_batch_impl t ?hproj btape ~memory ~memory_mask ~h ~prev_ids =
  let context =
    snd (Attention.fuse_batch t.att btape ?hproj ~q:h ~mask:memory_mask memory)
  in
  let x =
    Batched.concat_cols btape
      [ Embedding_layer.embed_ids t.embedding btape prev_ids; context ]
  in
  let h' = Rnn_cell.step_batch t.cell btape ~h ~x in
  let logits =
    Linear.forward_batch t.out btape (Batched.concat_cols btape [ h'; context ])
  in
  (h', logits)

let step_batch t ?hproj btape ~memory ~memory_mask ~h ~prev_ids =
  if P.scope_on () then
    P.with_layer layer (fun () ->
        step_batch_impl t ?hproj btape ~memory ~memory_mask ~h ~prev_ids)
  else step_batch_impl t ?hproj btape ~memory ~memory_mask ~h ~prev_ids

(** Teacher-forced negative log-likelihood of each lane's [target_ids]
    (without the terminating [eos], which is appended here): per-example
    summed NLL as a [G×1] node.
    Lanes run in lockstep to the longest target; steps past a lane's own
    [eos] carry weight 0 in the cross-entropy, contributing exactly zero
    loss and zero gradient (the decoder state keeps stepping, but nothing
    downstream reads it). *)
let loss_batch t btape ~memory ~memory_mask ~program_embedding ~target_ids =
  let g_lanes = Batched.lanes program_embedding in
  if Array.length target_ids <> g_lanes then
    invalid_arg "Decoder.loss_batch: target count mismatch";
  let full = Array.map (fun ids -> Array.of_list (ids @ [ Vocab.eos_id ])) target_ids in
  let max_t = Array.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 full in
  let h = ref (init_batch t btape ~program_embedding) in
  let prev = ref (Array.make g_lanes Vocab.sos_id) in
  let total = ref (Batched.zeros btape ~rows:g_lanes ~cols:1) in
  (* the memory never changes across decode steps: project it through the
     attention scorer once and reuse it every step *)
  let hproj = Attention.project_batch t.att btape memory in
  for step = 0 to max_t - 1 do
    let live g = step < Array.length full.(g) in
    let weights = Array.init g_lanes (fun g -> if live g then 1.0 else 0.0) in
    let targets = Array.init g_lanes (fun g -> if live g then full.(g).(step) else 0) in
    let h', logits = step_batch t btape ~hproj ~memory ~memory_mask ~h:!h ~prev_ids:!prev in
    let nll, _ = Batched.softmax_xent_rows btape logits ~targets ~weights in
    total := Batched.add btape !total nll;
    h := h';
    (* fresh array per step: backward closures capture the id arrays *)
    prev := Array.init g_lanes (fun g -> if live g then full.(g).(step) else Vocab.eos_id)
  done;
  !total

(** Greedy decoding; one predicted id list per lane (eos excluded). *)
let decode_batch t btape ~memory ~memory_mask ~program_embedding =
  let g_lanes = Batched.lanes program_embedding in
  let h = ref (init_batch t btape ~program_embedding) in
  let prev = ref (Array.make g_lanes Vocab.sos_id) in
  let finished = Array.make g_lanes false in
  let out = Array.make g_lanes [] in
  let hproj = Attention.project_batch t.att btape memory in
  (try
     for _ = 1 to t.max_len do
       if Array.for_all Fun.id finished then raise Exit;
       let h', logits = step_batch t btape ~hproj ~memory ~memory_mask ~h:!h ~prev_ids:!prev in
       let next = Array.make g_lanes Vocab.eos_id in
       for g = 0 to g_lanes - 1 do
         if not finished.(g) then begin
           let id = Tensor.argmax (Batched.row_value logits g) in
           if id = Vocab.eos_id then finished.(g) <- true
           else begin
             out.(g) <- id :: out.(g);
             next.(g) <- id
           end
         end
       done;
       h := h';
       prev := next
     done
   with Exit -> ());
  Array.map List.rev out
