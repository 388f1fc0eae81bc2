(** The task head every model ends in.

    The models differ only in their encoder.  Each encoder hands the head
    one {!encoding} per mini-batch, and the head either emits a method name
    as a sequence of sub-tokens with an attention decoder over the
    encoding's memory ({!Liger_nn.Decoder}), or classifies the program
    embedding with a linear layer + softmax (§5, §6.2). *)

open Liger_tensor
open Liger_nn

type task = Naming | Classify of int

type t = Decoder of Decoder.t | Classifier of Linear.t

(** An encoder's output for a [G]-example batch. *)
type encoding = {
  program : Batched.node;       (* G × d program embeddings *)
  memory : Batched.node array;  (* maxM nodes of G × d: decoder memory slots *)
  memory_mask : Tensor.t;       (* G × maxM slot validity *)
}

(** The encoding whose program embeddings are also its one memory slot. *)
let of_program program =
  let memory_mask = Tensor.zeros (Batched.lanes program) 1 in
  Tensor.fill memory_mask 1.0;
  { program; memory = [| program |]; memory_mask }

(** The head for [task] over [dim]-wide encodings, added to [store] after
    the encoder's parameters: a decoder ["dec"] whose token embeddings are
    the encoder's [embedding], or a layer ["cls"] over [Classify n]'s
    [n] classes. *)
let create store embedding ~dim = function
  | Naming -> Decoder (Decoder.create store "dec" embedding ~dim_hidden:dim ~dim_mem:dim)
  | Classify n -> Classifier (Linear.create store "cls" ~dim_in:dim ~dim_out:n)

(** Per-example training losses as a [G×1] node on [btape], one target id
    list per example: the teacher-forced NLL of a decoder's sub-token ids,
    or a classifier's cross-entropy against a single class. *)
let loss t btape enc ~targets =
  match t with
  | Decoder dec ->
      Decoder.loss_batch dec btape ~memory:enc.memory ~memory_mask:enc.memory_mask
        ~program_embedding:enc.program ~target_ids:targets
  | Classifier cls ->
      let targets =
        Array.map
          (function
            | [ c ] -> c | _ -> invalid_arg "Head.loss: classification target must be one class")
          targets
      in
      fst
        (Batched.softmax_xent_rows btape
           (Linear.forward_batch cls btape enc.program)
           ~targets ~weights:(Array.make (Array.length targets) 1.0))

(** Predictions, one id list per example: a decoder's greedy sub-token
    ids, or a classifier's argmax class alone in its list. *)
let predict t btape enc =
  match t with
  | Decoder dec ->
      Decoder.decode_batch dec btape ~memory:enc.memory ~memory_mask:enc.memory_mask
        ~program_embedding:enc.program
  | Classifier cls ->
      let logits = Linear.forward_batch cls btape enc.program in
      Array.init (Batched.lanes logits) (fun g -> [ Tensor.argmax (Batched.row_value logits g) ])
