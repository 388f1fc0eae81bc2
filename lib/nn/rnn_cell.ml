(** Recurrent cells: the paper's vanilla RNN (Equation 1) plus a GRU.

    The paper specifies single-layer vanilla RNNs for its f1/f2/f3; over our
    longer blended traces vanilla recurrences train poorly (vanishing
    gradients), so every construction site accepts either kind and the
    models default to GRU — a capacity-comparable substitution documented in
    DESIGN.md.  Both share the same interface: parameters are created under
    a name prefix; {!step_batch} maps (hidden, input) to the next hidden
    state, one lane per sequence; {!run_batch} folds padded sequences and
    returns every intermediate state. *)

open Liger_tensor
module P = Liger_obs.Profile

let layer = P.register_layer "rnn_cell"

type kind = Vanilla | Gru

type spec =
  | Svanilla of { wx : Param.t; wh : Param.t; b : Param.t }
  | Sgru of { gates : Linear.t; cand : Linear.t }

type t = { spec : spec; dim_hidden : int; h0 : Param.t }

let create ?(kind = Gru) store name ~dim_in ~dim_hidden =
  let h0 = Param.vector store (name ^ ".h0") dim_hidden in
  let spec =
    match kind with
    | Vanilla ->
        Svanilla
          {
            wx = Param.matrix store (name ^ ".wx") dim_hidden dim_in;
            wh = Param.matrix store (name ^ ".wh") dim_hidden dim_hidden;
            b = Param.vector store (name ^ ".b") dim_hidden;
          }
    | Gru ->
        Sgru
          {
            gates =
              Linear.create store (name ^ ".gates") ~dim_in:(dim_in + dim_hidden)
                ~dim_out:(2 * dim_hidden);
            cand =
              Linear.create store (name ^ ".cand") ~dim_in:(dim_in + dim_hidden)
                ~dim_out:dim_hidden;
          }
  in
  { spec; dim_hidden; h0 }

let dim_hidden t = t.dim_hidden

(** Learned initial state broadcast over [lanes] rows. *)
let init_state_batch t btape ~lanes = Batched.of_param btape ~lanes t.h0

let step_batch_impl t btape ~h ~x =
  match t.spec with
  | Svanilla { wx; wh; b } ->
      Batched.tanh_ btape
        (Batched.add_bias btape
           (Batched.add btape (Batched.matmul_nt btape x wx) (Batched.matmul_nt btape h wh))
           b)
  | Sgru { gates; cand } ->
      let d = t.dim_hidden in
      let xh = Batched.concat_cols btape [ x; h ] in
      let rz = Linear.forward_sigmoid_batch gates btape xh in
      let r = Batched.slice_cols btape rz 0 d in
      let z = Batched.slice_cols btape rz d d in
      let x_rh = Batched.concat_cols btape [ x; Batched.mul btape r h ] in
      let h_tilde = Linear.forward_tanh_batch cand btape x_rh in
      Batched.lerp btape z h_tilde h

let step_live_impl t btape ~h ~live ~x =
  if Array.length live = Batched.lanes h then step_batch_impl t btape ~h ~x
  else
    Batched.merge_rows btape h ~idx:live
      (step_batch_impl t btape ~h:(Batched.gather_rows btape h live) ~x)

(** [step_live t btape ~h ~live ~x] steps only the lanes listed in [live]
    (strictly increasing rows of [h]); [x] holds their inputs, one row per
    live lane in order.  The cell runs on the gathered live rows alone and
    {!Batched.merge_rows} writes them back, so every other lane costs no
    cell work, keeps its state bit-for-bit and passes its gradient straight
    through.  With every lane live this is the plain step (no extra node). *)
let step_live t btape ~h ~live ~x =
  if P.scope_on () then P.with_layer layer (fun () -> step_live_impl t btape ~h ~live ~x)
  else step_live_impl t btape ~h ~live ~x

(** The live (1.0) lanes of a step mask, in order. *)
let live_lanes mask =
  Array.of_list (List.filter (fun i -> mask.(i) > 0.5) (List.init (Array.length mask) Fun.id))

let step_masked_impl ?mask t btape ~h ~x =
  match mask with
  | None -> step_batch_impl t btape ~h ~x
  | Some m ->
      if Array.length m <> Batched.lanes h then
        invalid_arg "Rnn_cell.step_batch: mask length mismatch";
      let live = live_lanes m in
      if live = [||] then h
      else if Array.length live = Array.length m then step_batch_impl t btape ~h ~x
      else step_live_impl t btape ~h ~live ~x:(Batched.gather_rows btape x live)

(** One batched recurrence step.  With [?mask] (1.0 live / 0.0 padded) only
    the live lanes are computed ({!step_live} on their rows of [x]): padded
    lanes keep their previous state bit-for-bit and their inputs receive
    exactly zero gradient.  An all-ones mask is the unmasked step; an
    all-zeros mask returns [h] itself. *)
let step_batch ?mask t btape ~h ~x =
  if P.scope_on () then P.with_layer layer (fun () -> step_masked_impl ?mask t btape ~h ~x)
  else step_masked_impl ?mask t btape ~h ~x

(** Fold over padded step inputs [(x, mask)] starting from the broadcast
    initial state; returns the state after each step.  A lane whose masks
    are all 0.0 ends at the initial state, as an empty sequence does. *)
let run_batch t btape ~lanes steps =
  let h = ref (init_state_batch t btape ~lanes) in
  List.map
    (fun (x, mask) ->
      h := step_batch ?mask t btape ~h:!h ~x;
      !h)
    steps

(** Final state of a padded batched sequence. *)
let last_batch t btape ~lanes steps =
  match List.rev (run_batch t btape ~lanes steps) with
  | [] -> init_state_batch t btape ~lanes
  | h :: _ -> h
