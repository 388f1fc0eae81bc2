(** The vocabulary embedding layer (§5.1.1): every token of D_s ∪ D_d maps
    to a learned vector.

    The table is sized to a frozen vocabulary; out-of-range ids (tokens
    unseen at training time) use the [unk] row. *)

open Liger_tensor
open Liger_trace
module P = Liger_obs.Profile

let layer = P.register_layer "embedding"

type t = { table : Param.t; vocab : Vocab.t; dim : int }

let create store name vocab ~dim =
  if not (Vocab.is_frozen vocab) then
    invalid_arg "Embedding_layer.create: freeze the vocabulary first";
  { table = Param.embedding store (name ^ ".table") (Vocab.size vocab) dim; vocab; dim }

let dim t = t.dim

let embed_id_impl t tape i =
  let i = if i < 0 || i >= Param.rows t.table then Vocab.unk_id else i in
  Autodiff.row tape t.table i

(** Embedding of a token id. *)
let embed_id t tape i =
  if P.scope_on () then P.with_layer layer (fun () -> embed_id_impl t tape i)
  else embed_id_impl t tape i

(** Embedding of a token string; unseen tokens use the [unk] row (pure
    lookup — never grows the vocabulary, even unfrozen). *)
let embed t tape tok = embed_id t tape (Vocab.lookup t.vocab tok)

let vocab_size t = Vocab.size t.vocab

(* --- batched --- *)

let embed_ids_impl t btape ids =
  let rows = Param.rows t.table in
  let clamp i = if i < 0 || i >= rows then Vocab.unk_id else i in
  Batched.rows_of_param btape t.table (Array.map clamp ids)

(** Batched embedding lookup: one lane per id (out-of-range ids fall back to
    [unk], as in {!embed_id}). *)
let embed_ids t btape ids =
  if P.scope_on () then P.with_layer layer (fun () -> embed_ids_impl t btape ids)
  else embed_ids_impl t btape ids

(** Batched lookup of token strings; unseen tokens use the [unk] row. *)
let embed_batch t btape toks = embed_ids t btape (Array.map (Vocab.lookup t.vocab) toks)
