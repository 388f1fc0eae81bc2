(** code2vec (Alon et al. 2019): the bag-of-path-contexts static baseline.

    Each method is a bag of AST path contexts (left terminal, path, right
    terminal); a context embeds as [tanh(W (left ++ path ++ right))]; a
    global attention vector weights the contexts into a single code vector;
    the prediction is a softmax over {e whole method names} seen in
    training.  Predicting names as monolithic labels — rather than
    composing sub-tokens — is code2vec's defining limitation and the reason
    it trails code2seq in Table 2. *)

open Liger_tensor
open Liger_trace
open Liger_nn
open Liger_core

type enc_context = { left : int; path : int; right : int }

type t = {
  store : Param.store;
  vocab : Vocab.t;            (* terminal + path-token vocabulary *)
  labels : Vocab.t;           (* whole-name label space *)
  embedding : Embedding_layer.t;
  combine : Linear.t;
  attention_vec : Param.t;
  head : Head.t;              (* a classifier over labels, or over classes *)
  contexts : enc_context list Path_memo.t;
}

(** [create vocab ~labels task]: for naming, [labels] must contain every
    training method name (built by {!register_names}); for classification,
    pass the class count. *)
let create ?(dim = 16) ?(seed = 13) vocab ~labels
    (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let n_out =
    match task with Liger_model.Naming -> Vocab.size labels | Liger_model.Classify n -> n
  in
  {
    store;
    vocab;
    labels;
    embedding = Embedding_layer.create store "ctx" vocab ~dim;
    combine = Linear.create store "combine" ~dim_in:(3 * dim) ~dim_out:dim;
    attention_vec = Param.matrix store "att" 1 dim;
    head = Head.Classifier (Linear.create store "out" ~dim_in:dim ~dim_out:n_out);
    contexts = Path_memo.create ();
  }

(* a method's path sample is seeded by its name *)
let path_rng (meth : Liger_lang.Ast.meth) =
  Rng.create (1013 + Hashtbl.hash meth.Liger_lang.Ast.mname)

(** Register a method's tokens (and its name as a label) into building
    vocabularies — call for every training method {e before} [create],
    which freezes nothing itself but requires frozen vocabularies. *)
let register vocab ~labels (meth : Liger_lang.Ast.meth) =
  let contexts = Ast_paths.extract (path_rng meth) (Encode.meth_tree meth) in
  List.iter
    (fun (c : Ast_paths.context) ->
      ignore (Vocab.id vocab c.Ast_paths.left);
      ignore (Vocab.id vocab (Ast_paths.path_token c));
      ignore (Vocab.id vocab c.Ast_paths.right))
    contexts;
  ignore (Vocab.id labels meth.Liger_lang.Ast.mname)

let contexts_of t (ex : Common.enc_example) =
  Path_memo.find t.contexts ex.Common.uid (fun () ->
      let meth = ex.Common.meth in
      Ast_paths.extract (path_rng meth) (Encode.meth_tree meth)
      |> List.map (fun (c : Ast_paths.context) ->
             {
               left = Vocab.id t.vocab c.Ast_paths.left;
               path = Vocab.id t.vocab (Ast_paths.path_token c);
               right = Vocab.id t.vocab c.Ast_paths.right;
             }))

(* the head's target: the whole-name label, or the class *)
let target_ids t (ex : Common.enc_example) =
  match ex.Common.label with
  | Common.Name name -> [ Vocab.id t.labels name ]
  | Common.Class c -> [ c ]

(** Predicted sub-tokens: the predicted whole-name label, split. *)
let subtokens t labels =
  List.concat_map (fun label -> Liger_lang.Subtoken.split (Vocab.name t.labels label)) labels

(* ===== Encoding (flat Bigarray engine) =====

   Contexts across the batch are lanes of one combine GEMM and one scoring
   GEMM against the global attention vector; each example's scores are
   laid out slot-major and turned into one masked softmax row, which
   weights that example's context vectors into its code vector.  A method
   without contexts gets the zero vector.  The result is a {!Head.encoding}
   whose program embedding is the code vector, also its one memory slot. *)

let code_vectors t btape (exs : Common.enc_example array) =
  let g_n = Array.length exs in
  let d = Embedding_layer.dim t.embedding in
  let contexts, rows, _ =
    Batch_pack.flatten (Array.map (fun ex -> Array.of_list (contexts_of t ex)) exs)
  in
  let c_n = Array.length contexts in
  if c_n = 0 then Batched.zeros btape ~rows:g_n ~cols:d
  else begin
    let embed f = Embedding_layer.embed_ids t.embedding btape (Array.map f contexts) in
    let vecs =
      Linear.forward_tanh_batch t.combine btape
        (Batched.concat_cols btape
           [ embed (fun c -> c.left); embed (fun c -> c.path); embed (fun c -> c.right) ])
    in
    let slots, mask = Batch_pack.slots btape vecs rows in
    let k = Array.length slots in
    (* one score per context, gathered slot-major into a G × K matrix *)
    let scores = Batched.matmul_nt btape vecs t.attention_vec in
    let idx =
      Array.init (k * g_n) (fun r ->
          let m = r / g_n and g = r mod g_n in
          if m < Array.length rows.(g) then rows.(g).(m) else 0)
    in
    let w =
      Batched.masked_softmax_rows btape
        (Batched.stack_to_cols btape (Batched.gather_rows btape scores idx) ~lanes:g_n)
        ~mask
    in
    Batched.weighted_sum btape w slots
  end

let encode_batch t btape exs = Head.of_program (code_vectors t btape exs)
