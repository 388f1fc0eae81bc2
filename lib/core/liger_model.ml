(** LiGer: the blended neural program-embedding model (§5).

    The encoder follows Figure 5 layer by layer:

    - {e Vocabulary embedding}: one table over D_s ∪ D_d ({!Embedding_layer}).
    - {e Fusion}: per blended-trace step, a TreeLSTM embeds the statement
      (static dimension), RNN f1 embeds each composite variable value and
      RNN f2 each program state (dynamic dimension); attention a1 —
      conditioned on the running trace embedding H^e_{i,j-1} — fuses the
      feature vectors into one step embedding h_{i,j}.  The first step uses
      even weights, as in the paper.
    - {e Executions embedding}: RNN f3 folds the step embeddings into
      H^e_{i,j}; the final state represents the whole blended trace.
    - {e Programs embedding}: max-pooling over all blended traces yields
      H_P.

    The encoder ends in the task head every model shares ({!Head}): for
    method-name prediction a decoder attends over the flow of all blended
    traces, and for semantics classification a linear layer + softmax reads
    H_P (§6.2).

    The ablation switches of §6.3 are first-class: [use_static = false]
    removes the statement component, [use_dynamic = false] gives statements
    the full fusion weight, and [use_attention = false] distributes fusion
    weights evenly. *)

open Liger_tensor
open Liger_trace
open Liger_nn

type task = Head.task = Naming | Classify of int

(* f1/f2 are vanilla RNNs, as in the paper *)
type config = {
  dim : int;                 (* hidden size = embedding size *)
  use_static : bool;
  use_dynamic : bool;
  use_attention : bool;
  trace_cell : Rnn_cell.kind;  (* f3; GRU by default for trainability *)
}

let default_config =
  {
    dim = 16;
    use_static = true;
    use_dynamic = true;
    use_attention = true;
    trace_cell = Rnn_cell.Gru;
  }

type t = {
  config : config;
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  treelstm : Treelstm.t option;
  f1 : Rnn_cell.t option;
  f2 : Rnn_cell.t option;
  fusion : Attention.t option;
  f3 : Rnn_cell.t;
  head : Head.t;
}

let create ?(config = default_config) ?(seed = 7) vocab task =
  if not (config.use_static || config.use_dynamic) then
    invalid_arg "Liger_model.create: at least one feature dimension required";
  let store = Param.create_store ~seed () in
  let d = config.dim in
  let embedding = Embedding_layer.create store "vocab" vocab ~dim:d in
  let treelstm =
    if config.use_static then Some (Treelstm.create store "sta" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let f1 =
    if config.use_dynamic then
      Some (Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f1" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let f2 =
    if config.use_dynamic then
      Some (Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f2" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let fusion =
    if config.use_attention && config.use_static && config.use_dynamic then
      Some (Attention.create store "a1" ~dim_h:d ~dim_q:d ~dim_att:d)
    else None
  in
  let f3 = Rnn_cell.create ~kind:config.trace_cell store "f3" ~dim_in:d ~dim_hidden:d in
  let head = Head.create store embedding ~dim:d task in
  { config; store; vocab; embedding; treelstm; f1; f2; fusion; f3; head }

let store t = t.store
let vocab t = t.vocab

(** Per-encode diagnostics: average fusion attention allocated to the static
    feature vector (§6.1.2 reports ~0.598). *)
type stats = { mutable static_weight_sum : float; mutable fused_steps : int }

let new_stats () = { static_weight_sum = 0.0; fused_steps = 0 }

let mean_static_weight s =
  if s.fused_steps = 0 then Float.nan
  else s.static_weight_sum /. float_of_int s.fused_steps

(* ===== Encoding (flat Bigarray engine; see DESIGN.md) =====

   One tape encodes a whole mini-batch (a single example is a batch of
   one): trace lanes across all examples run fusion + f3 step by step,
   each step computing only the lanes whose trace is still running,
   statement trees are deduplicated batch-wide by [memo_key] and embedded
   as one level-packed forest, and f1/f2 pack every composite variable /
   program state in the batch into single live-lane-compacted
   recurrences.  Finished lanes and padded slots carry exactly zero
   gradient (untouched rows, masked softmax, weight-0 losses), and every
   lane is computed from its own rows alone, so an example's results do
   not depend on the rest of its batch.  The result is the
   {!Head.encoding} the task head reads. *)

let encode_batch t ?(view = Common.full_view) ?(stats = new_stats ()) btape
    (exs : Common.enc_example array) =
  let d = t.config.dim in
  let g_n = Array.length exs in
  if g_n = 0 then invalid_arg "Liger_model.encode_batch: empty batch";
  (* Trace lanes, grouped by example in order (= decoder memory order). *)
  let lane_ex_rev = ref [] and lane_tr_rev = ref [] in
  Array.iteri
    (fun g ex ->
      Array.iter
        (fun tr ->
          lane_ex_rev := g :: !lane_ex_rev;
          lane_tr_rev := tr :: !lane_tr_rev)
        (Common.select_traces view ex))
    exs;
  let lane_ex = Array.of_list (List.rev !lane_ex_rev) in
  let lane_tr = Array.of_list (List.rev !lane_tr_rev) in
  let l_n = Array.length lane_tr in
  if l_n = 0 then
    {
      Head.program = Batched.zeros btape ~rows:g_n ~cols:d;
      memory = [| Batched.zeros btape ~rows:g_n ~cols:d |];
      memory_mask = Tensor.zeros g_n 1;
    }
  else begin
    let n_steps =
      Array.map (fun (tr : Common.enc_trace) -> Array.length tr.Common.steps) lane_tr
    in
    let max_s = Array.fold_left Stdlib.max 0 n_steps in
    let n_conc =
      Array.map
        (fun tr -> if t.config.use_dynamic then Common.select_concrete view tr else 0)
        lane_tr
    in
    let max_c = Array.fold_left Stdlib.max 0 n_conc in
    (* --- static: batch-wide tree dedup + one level-packed forest --- *)
    let tree_roots, tree_of =
      if (not t.config.use_static) || max_s = 0 then (None, [||])
      else begin
        let memo = Hashtbl.create 64 in
        let trees_rev = ref [] and n_trees = ref 0 in
        let tree_of =
          Array.init l_n (fun l ->
              Array.map
                (fun (step : Common.enc_step) ->
                  match Hashtbl.find_opt memo step.Common.memo_key with
                  | Some i -> i
                  | None ->
                      let i = !n_trees in
                      incr n_trees;
                      Hashtbl.add memo step.Common.memo_key i;
                      trees_rev := step.Common.tree :: !trees_rev;
                      i)
                lane_tr.(l).Common.steps)
        in
        let trees = Array.of_list (List.rev !trees_rev) in
        let labels, children, roots =
          Treelstm.flatten
            ~label:(function Common.ILeaf id | Common.INode (id, _) -> id)
            ~children:(function Common.ILeaf _ -> [] | Common.INode (_, cs) -> cs)
            trees
        in
        let embed ids = Embedding_layer.embed_ids t.embedding btape ids in
        let roots_node =
          Treelstm.embed_forest_flat (Option.get t.treelstm) btape ~embed ~labels
            ~children ~roots
        in
        (Some roots_node, tree_of)
      end
    in
    (* --- dynamic: pack every distinct program state / composite variable
       batch-wide ({!Batch_pack.States}) --- *)
    let pack = Batch_pack.States.create ~names:false in
    let state_idx =
      Array.init l_n (fun l ->
          Array.init n_steps.(l) (fun j ->
              Array.init n_conc.(l) (fun k ->
                  Batch_pack.States.add pack lane_tr.(l).Common.steps.(j).Common.var_tokens.(k))))
    in
    let state_vecs =
      if not t.config.use_dynamic then None
      else
        Batch_pack.States.embed pack btape ~embedding:t.embedding ~f1:(Option.get t.f1)
          ~f2:(Option.get t.f2)
    in
    (* --- fusion + trace recurrence f3 over the lanes still running --- *)
    let k_static = if t.config.use_static && max_s > 0 then 1 else 0 in
    let k_dynamic = if state_vecs = None then 0 else max_c in
    let k_total = k_static + k_dynamic in
    if max_s > 0 && k_total = 0 then invalid_arg "Liger_model.encode_batch: no feature vectors";
    let h_trace = ref (Rnn_cell.init_state_batch t.f3 btape ~lanes:l_n) in
    let mem_nodes_rev = ref [] in
    for j = 0 to max_s - 1 do
      (* the lanes whose trace has a step [j], in lane order: every gather,
         mask, fusion and f3 step below has one row per live lane *)
      let live = Array.of_list (List.filter (fun l -> j < n_steps.(l)) (List.init l_n Fun.id)) in
      let n_live = Array.length live in
      let cands_rev = ref [] and valid_rev = ref [] in
      if k_static = 1 then begin
        let idx = Array.map (fun l -> tree_of.(l).(j)) live in
        cands_rev := Batched.gather_rows btape (Option.get tree_roots) idx :: !cands_rev;
        valid_rev := Array.make n_live true :: !valid_rev
      end;
      (match state_vecs with
      | Some sv ->
          for k = 0 to k_dynamic - 1 do
            let ok l = k < n_conc.(l) in
            let idx = Array.map (fun l -> if ok l then state_idx.(l).(j).(k) else 0) live in
            cands_rev := Batched.gather_rows btape sv idx :: !cands_rev;
            valid_rev := Array.map ok live :: !valid_rev
          done
      | None -> ());
      let cands = Array.of_list (List.rev !cands_rev) in
      let valid = Array.of_list (List.rev !valid_rev) in
      let cmask = Tensor.zeros n_live k_total in
      Array.iteri
        (fun k col ->
          Array.iteri (fun i ok -> if ok then Tensor.set cmask i k 1.0) col)
        valid;
      let n_valid = Array.make n_live 0 in
      Array.iter
        (fun col -> Array.iteri (fun i ok -> if ok then n_valid.(i) <- n_valid.(i) + 1) col)
        valid;
      let h_j =
        if k_total = 1 then cands.(0)
        else
          match t.fusion with
          | Some att when j > 0 && t.config.use_attention ->
              let q =
                if n_live = l_n then !h_trace else Batched.gather_rows btape !h_trace live
              in
              let w, fused = Attention.fuse_batch att btape ~q ~mask:cmask cands in
              if t.config.use_static then begin
                let wv = Batched.value w in
                for i = 0 to n_live - 1 do
                  if n_valid.(i) > 1 then begin
                    stats.static_weight_sum <-
                      stats.static_weight_sum +. Tensor.get wv i 0;
                    stats.fused_steps <- stats.fused_steps + 1
                  end
                done
              end;
              fused
          | _ -> snd (Attention.fuse_uniform_batch btape ~mask:cmask cands)
      in
      h_trace := Rnn_cell.step_live t.f3 btape ~h:!h_trace ~live ~x:h_j;
      mem_nodes_rev := !h_trace :: !mem_nodes_rev
    done;
    (* program embedding: max over each example's trace finals; an example
       with no traces gets an exactly-zero row *)
    let program = Batched.group_max btape !h_trace ~groups:lane_ex ~n_groups:g_n in
    (* decoder memory: per example, its lanes' steps in (trace, step) order *)
    let memory, memory_mask =
      Batch_pack.trace_memory btape (List.rev !mem_nodes_rev) ~lane_ex ~n_steps ~n_groups:g_n
        ~dim:d
    in
    { Head.program; memory; memory_mask }
  end

(** Program embeddings of any encoder: one gradient-free forward of
    [encode] over [exs], one vector per example. *)
let programs encode exs =
  Batch_pack.infer encode exs (fun _ enc ->
      Array.init (Array.length exs) (fun g -> Batched.row_value enc.Head.program g))

(** Frozen program and per-statement embeddings of any encoder, one
    forward over the batch.  Per example: its program embedding, and for
    each statement id the mean of the memory slots whose statement
    [sids ex] lists in slot order, as [(sid, vector)] pairs in
    statement-id order. *)
let statements encode ~sids exs =
  Batch_pack.infer encode exs (fun _ enc ->
      Array.mapi
        (fun g ex ->
          (Batched.row_value enc.Head.program g, Batch_pack.statement_means enc.memory g (sids ex)))
        exs)

(** Program embeddings: one forward over a [G]-lane batch, one vector per
    example.  This is the serving entry point ([liger serve]): the forward
    deduplicates trees/states and gathers exact rows, so each lane's
    vector is bitwise identical whether the example is embedded alone or
    inside a larger batch — the property the request coalescer's equality
    test pins down. *)
let embed_programs t ?view (exs : Common.enc_example array) =
  programs (fun btape -> encode_batch t ?view btape) exs

(** Fusion statistics of one forward over [exs] (§6.1.2's attention
    inspection). *)
let fusion_stats t ?view (exs : Common.enc_example array) =
  let stats = new_stats () in
  ignore (Batch_pack.infer (encode_batch t ?view ~stats) exs (fun _ _ -> [||]));
  stats

(** Frozen program and per-statement embeddings for the probing readouts
    ({!Liger_eval.Probe}): {!statements} over the step embeddings
    H^e_{i,j}, the decoder memory, laid out per example in (trace, step)
    order, so a statement's vector is the mean over every step that
    executes it in all traces the view exposes. *)
let embed_statements t ?(view = Common.full_view) (exs : Common.enc_example array) =
  let sids ex =
    Array.concat
      (List.map
         (fun (tr : Common.enc_trace) ->
           Array.map (fun (s : Common.enc_step) -> s.Common.memo_key lsr 1) tr.Common.steps)
         (Array.to_list (Common.select_traces view ex)))
  in
  statements (fun btape -> encode_batch t ~view btape) ~sids exs

(** Head predictions, one id list per example: greedy sub-token ids for a
    naming model. *)
let predict_name_ids_batch t ?view (exs : Common.enc_example array) =
  Batch_pack.infer (fun btape -> encode_batch t ?view btape) exs (Head.predict t.head)
