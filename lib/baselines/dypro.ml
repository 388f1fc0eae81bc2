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
open Liger_nn
open Liger_core

type t = {
  store : Param.store;
  embedding : Embedding_layer.t;
  f1 : Rnn_cell.t;        (* value RNN *)
  f2 : Rnn_cell.t;        (* state RNN over (name ++ value) vectors *)
  trace_rnn : Rnn_cell.t;
  head : Head.t;
}

let create ?(dim = 16) ?(seed = 11) vocab (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let embedding = Embedding_layer.create store "vocab" vocab ~dim in
  let f1 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f1" ~dim_in:dim ~dim_hidden:dim in
  let f2 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f2" ~dim_in:(2 * dim) ~dim_hidden:dim in
  let trace_rnn = Rnn_cell.create ~kind:Rnn_cell.Gru store "trace" ~dim_in:dim ~dim_hidden:dim in
  { store; embedding; f1; f2; trace_rnn; head = Head.create store embedding ~dim task }

(* ===== Encoding (flat Bigarray engine) =====

   One lane of the trace GRU per (trace, concrete execution) pair across
   the batch, grouped by example in (trace, execution) order.  Every
   distinct (variable names, state) pair is embedded once by
   {!Batch_pack.States}; lanes pool into their example with [group_max]
   (the max-pool over trace embeddings), and the decoder memory keeps the
   (trace, execution, step) order.  The result is a {!Head.encoding}. *)

let encode_batch t ?(view = Common.full_view) btape (exs : Common.enc_example array) =
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
      Head.program = Batched.zeros btape ~rows:g_n ~cols:d;
      memory = [| Batched.zeros btape ~rows:g_n ~cols:d |];
      memory_mask = Tensor.zeros g_n 1;
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
    let memory, memory_mask =
      Batch_pack.trace_memory btape (List.rev !mem_rev) ~lane_ex ~n_steps ~n_groups:g_n ~dim:d
    in
    { Head.program = Batched.group_max btape !h ~groups:lane_ex ~n_groups:g_n; memory; memory_mask }
  end

(** Program embeddings (frozen; for probing and the drift probe): one
    forward over the batch, one vector per example. *)
let embed_programs t ?view exs = Liger_model.programs (fun btape -> encode_batch t ?view btape) exs

(** Frozen program and per-statement embeddings, one forward over the
    batch (same contract as {!Liger_core.Liger_model.embed_statements}):
    per statement id, the mean of every trace-RNN state produced while
    executing that statement, over all concrete traces the view exposes. *)
let embed_statements t ?(view = Common.full_view) (exs : Common.enc_example array) =
  let sids ex =
    Array.concat
      (List.concat_map
         (fun (tr : Common.enc_trace) ->
           let row =
             Array.map (fun (s : Common.enc_step) -> s.Common.memo_key lsr 1) tr.Common.steps
           in
           List.init (Common.select_concrete view tr) (fun _ -> row))
         (Array.to_list (Common.select_traces view ex)))
  in
  Liger_model.statements (fun btape -> encode_batch t ~view btape) ~sids exs
