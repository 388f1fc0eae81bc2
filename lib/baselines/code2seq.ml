(** code2seq (Alon et al. 2019): the strongest static baseline in Table 2.

    Differences from code2vec that matter here: terminals are decomposed
    into {e sub-tokens} (summed embeddings), paths are encoded as node-type
    {e sequences} by an RNN rather than hashed whole, and the method name is
    {e generated} sub-token by sub-token with a decoder attending over the
    encoded paths. *)

open Liger_tensor
open Liger_trace
open Liger_nn
open Liger_core
open Liger_lang

type enc_path = {
  left : int list;   (* sub-token ids of the left terminal *)
  path : int list;   (* node-type token ids along the path *)
  right : int list;
}

type t = {
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  path_rnn : Rnn_cell.t;
  combine : Linear.t;
  head : Head.t;
  paths : enc_path list Path_memo.t;
}

let create ?(dim = 16) ?(seed = 17) vocab (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let embedding = Embedding_layer.create store "tok" vocab ~dim in
  let path_rnn = Rnn_cell.create ~kind:Rnn_cell.Gru store "path" ~dim_in:dim ~dim_hidden:dim in
  let combine = Linear.create store "combine" ~dim_in:(3 * dim) ~dim_out:dim in
  let head = Head.create store embedding ~dim task in
  { store; vocab; embedding; path_rnn; combine; head; paths = Path_memo.create () }

let terminal_subtokens tok =
  match Subtoken.split tok with [] -> [ tok ] | ts -> ts

(* a method's path sample is seeded by its name *)
let path_rng (meth : Ast.meth) = Rng.create (2017 + Hashtbl.hash meth.Ast.mname)

(** Register a method's sub-tokens and path node types into a building
    vocabulary — call for every training method {e before} [create]. *)
let register vocab (meth : Ast.meth) =
  (* the method's own sub-tokens are decoder targets *)
  List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens meth.Ast.mname);
  let contexts = Ast_paths.extract (path_rng meth) (Encode.meth_tree meth) in
  List.iter
    (fun (c : Ast_paths.context) ->
      List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens c.Ast_paths.left);
      List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens c.Ast_paths.right);
      List.iter (fun s -> ignore (Vocab.id vocab s)) c.Ast_paths.path)
    contexts

let paths_of t (ex : Common.enc_example) =
  Path_memo.find t.paths ex.Common.uid (fun () ->
      let meth = ex.Common.meth in
      Ast_paths.extract (path_rng meth) (Encode.meth_tree meth)
      |> List.map (fun (c : Ast_paths.context) ->
             {
               left = List.map (Vocab.id t.vocab) (terminal_subtokens c.Ast_paths.left);
               path = List.map (Vocab.id t.vocab) c.Ast_paths.path;
               right = List.map (Vocab.id t.vocab) (terminal_subtokens c.Ast_paths.right);
             }))

(* code2seq owns its vocabulary (built over the raw sources, not traces), so
   decoder targets are re-derived from the label rather than taken from the
   example's main-vocabulary target ids. *)
let target_ids t (ex : Common.enc_example) =
  match ex.Common.label with
  | Common.Name name -> List.map (Vocab.id t.vocab) (Subtoken.split name)
  | Common.Class c -> [ c ]

(* ===== Encoding (flat Bigarray engine) =====

   A method's memory is its encoded paths; the "program embedding" handed
   to the decoder is their mean.  Paths across the batch are lanes:
   terminal sub-token embeddings sum per path with [group_sum], node types
   run through one masked path-RNN recurrence, and the combined path
   vectors pool into their example with [group_sum] and a per-example 1/n
   scale (the mean).  A path-less method attends over one zero slot.  The
   result is a {!Head.encoding}. *)

let encode_batch t btape (exs : Common.enc_example array) =
  let g_n = Array.length exs in
  if g_n = 0 then invalid_arg "Code2seq.encode_batch: empty batch";
  let d = Embedding_layer.dim t.embedding in
  let paths, rows, path_ex =
    Batch_pack.flatten (Array.map (fun ex -> Array.of_list (paths_of t ex)) exs)
  in
  let p_n = Array.length paths in
  if p_n = 0 then
    (* every memory is the single zero slot of a path-less method *)
    Head.of_program (Batched.zeros btape ~rows:g_n ~cols:d)
  else begin
    (* sum of a terminal's sub-token embeddings, one group per path *)
    let terminal side =
      let ids = Array.concat (Array.to_list (Array.map (fun p -> Array.of_list (side p)) paths)) in
      if ids = [||] then Batched.zeros btape ~rows:p_n ~cols:d
      else
        let groups =
          Array.concat
            (Array.to_list (Array.mapi (fun i p -> Array.make (List.length (side p)) i) paths))
        in
        Batched.group_sum btape (Embedding_layer.embed_ids t.embedding btape ids) ~groups
          ~n_groups:p_n
    in
    let left = terminal (fun p -> p.left) and right = terminal (fun p -> p.right) in
    let node_types = Array.map (fun p -> Array.of_list p.path) paths in
    let max_t = Array.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 node_types in
    let steps =
      List.init max_t (fun ti ->
          let live a = ti < Array.length a in
          ( Embedding_layer.embed_ids t.embedding btape
              (Array.map (fun a -> if live a then a.(ti) else 0) node_types),
            Some (Array.map (fun a -> if live a then 1.0 else 0.0) node_types) ))
    in
    let path = Rnn_cell.last_batch t.path_rnn btape ~lanes:p_n steps in
    let encoded =
      Linear.forward_tanh_batch t.combine btape (Batched.concat_cols btape [ left; path; right ])
    in
    let inv_n =
      Array.concat
        (Array.to_list
           (Array.map
              (fun r ->
                let n = Array.length r in
                Array.make d (if n = 0 then 0.0 else 1.0 /. float_of_int n))
              rows))
    in
    let program =
      Batched.mul btape
        (Batched.group_sum btape encoded ~groups:path_ex ~n_groups:g_n)
        (Batched.const_arr btape ~rows:g_n ~cols:d inv_n)
    in
    (* a path-less example attends over one zero slot *)
    let src =
      if Array.exists (fun r -> r = [||]) rows then
        Batched.vstack btape [ encoded; Batched.zeros btape ~rows:1 ~cols:d ]
      else encoded
    in
    let memory, memory_mask =
      Batch_pack.slots btape src (Array.map (fun r -> if r = [||] then [| p_n |] else r) rows)
    in
    { Head.program; memory; memory_mask }
  end
