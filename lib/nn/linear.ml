(** Dense affine layers. *)

open Liger_tensor
module P = Liger_obs.Profile

let layer = P.register_layer "linear"

type t = { w : Param.t; b : Param.t }

let create store name ~dim_in ~dim_out =
  {
    w = Param.matrix store (name ^ ".w") dim_out dim_in;
    b = Param.vector store (name ^ ".b") dim_out;
  }

(* layer-scope wrappers branch before building the closure, so the
   disabled path is a direct call with no allocation; every entry point
   takes a [lanes × dim_in] node *)

let forward_batch t btape x =
  if P.scope_on () then P.with_layer layer (fun () -> Batched.affine btape ~w:t.w ~b:t.b x)
  else Batched.affine btape ~w:t.w ~b:t.b x

(* saturation samples taken inside the fused activations attribute to
   this scope when no enclosing model layer claimed them *)
let forward_tanh_batch t btape x =
  if P.scope_on () then P.with_layer layer (fun () -> Batched.affine_tanh btape ~w:t.w ~b:t.b x)
  else Batched.affine_tanh btape ~w:t.w ~b:t.b x

let forward_sigmoid_batch t btape x =
  if P.scope_on () then
    P.with_layer layer (fun () -> Batched.affine_sigmoid btape ~w:t.w ~b:t.b x)
  else Batched.affine_sigmoid btape ~w:t.w ~b:t.b x
