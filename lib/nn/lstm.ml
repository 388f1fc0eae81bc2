(** A standard single-layer LSTM cell (kept alongside the GRU for ablations
    and as the sequential special case of the TreeLSTM). *)

open Liger_tensor
module P = Liger_obs.Profile

let layer = P.register_layer "lstm"

type t = {
  gates : Linear.t;  (* [i; f; o; u] stacked: 4H x (in + H) *)
  dim_hidden : int;
  h0 : Param.t;
  c0 : Param.t;
}

type state = { h : Autodiff.node; c : Autodiff.node }

let create store name ~dim_in ~dim_hidden =
  {
    gates =
      Linear.create store (name ^ ".gates") ~dim_in:(dim_in + dim_hidden)
        ~dim_out:(4 * dim_hidden);
    dim_hidden;
    h0 = Param.vector store (name ^ ".h0") dim_hidden;
    c0 = Param.vector store (name ^ ".c0") dim_hidden;
  }

let init_state t tape =
  { h = Autodiff.of_param tape t.h0; c = Autodiff.of_param tape t.c0 }

let step_impl t tape ~state ~x =
  let d = t.dim_hidden in
  let xh = Autodiff.concat tape [ x; state.h ] in
  let pre = Linear.forward t.gates tape xh in
  let i = Autodiff.sigmoid tape (Autodiff.slice tape pre 0 d) in
  let f = Autodiff.sigmoid tape (Autodiff.slice tape pre d d) in
  let o = Autodiff.sigmoid tape (Autodiff.slice tape pre (2 * d) d) in
  let u = Autodiff.tanh_ tape (Autodiff.slice tape pre (3 * d) d) in
  let c =
    Autodiff.add tape (Autodiff.mul tape f state.c) (Autodiff.mul tape i u)
  in
  let h = Autodiff.mul tape o (Autodiff.tanh_ tape c) in
  { h; c }

let step t tape ~state ~x =
  if P.scope_on () then P.with_layer layer (fun () -> step_impl t tape ~state ~x)
  else step_impl t tape ~state ~x

let run t tape xs =
  let state = ref (init_state t tape) in
  List.map
    (fun x ->
      state := step t tape ~state:!state ~x;
      !state.h)
    xs

let last t tape xs =
  match List.rev (run t tape xs) with [] -> (init_state t tape).h | h :: _ -> h

(* --- batched (lanes × dim) variants --- *)

type bstate = { bh : Batched.node; bc : Batched.node }

let init_state_batch t btape ~lanes =
  {
    bh = Batched.of_param btape ~lanes t.h0;
    bc = Batched.of_param btape ~lanes t.c0;
  }

let step_batch_impl t btape ~state ~x =
  let d = t.dim_hidden in
  let xh = Batched.concat_cols btape [ x; state.bh ] in
  let pre = Linear.forward_batch t.gates btape xh in
  let i = Batched.sigmoid btape (Batched.slice_cols btape pre 0 d) in
  let f = Batched.sigmoid btape (Batched.slice_cols btape pre d d) in
  let o = Batched.sigmoid btape (Batched.slice_cols btape pre (2 * d) d) in
  let u = Batched.tanh_ btape (Batched.slice_cols btape pre (3 * d) d) in
  let c = Batched.muladd2 btape f state.bc i u in
  let h = Batched.mul btape o (Batched.tanh_ btape c) in
  { bh = h; bc = c }

let step_masked_impl ?mask t btape ~state ~x =
  match mask with
  | None -> step_batch_impl t btape ~state ~x
  | Some m ->
      if Array.length m <> Batched.lanes state.bh then
        invalid_arg "Lstm.step_batch: mask length mismatch";
      let live = Rnn_cell.live_lanes m in
      if live = [||] then state
      else if Array.length live = Array.length m then step_batch_impl t btape ~state ~x
      else
        let rows n = Batched.gather_rows btape n live in
        let next =
          step_batch_impl t btape ~state:{ bh = rows state.bh; bc = rows state.bc } ~x:(rows x)
        in
        {
          bh = Batched.merge_rows btape state.bh ~idx:live next.bh;
          bc = Batched.merge_rows btape state.bc ~idx:live next.bc;
        }

(** One batched LSTM step; with [?mask] only the live lanes are computed,
    as in {!Rnn_cell.step_batch}: padded lanes keep both [h] and [c]
    bit-for-bit and their inputs receive exactly zero gradient. *)
let step_batch ?mask t btape ~state ~x =
  if P.scope_on () then P.with_layer layer (fun () -> step_masked_impl ?mask t btape ~state ~x)
  else step_masked_impl ?mask t btape ~state ~x

let run_batch t btape ~lanes steps =
  let state = ref (init_state_batch t btape ~lanes) in
  List.map
    (fun (x, mask) ->
      state := step_batch ?mask t btape ~state:!state ~x;
      !state.bh)
    steps

let last_batch t btape ~lanes steps =
  match List.rev (run_batch t btape ~lanes steps) with
  | [] -> (init_state_batch t btape ~lanes).bh
  | h :: _ -> h
