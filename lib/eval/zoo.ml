(** The model catalogue: every model the paper's evaluation trains, by
    kind, wrapped behind the uniform {!Train.model} interface.

    A wrapper fixes the model's {e view} — how many symbolic traces and how
    many concrete traces per trace it may see — at construction; the
    down-sampling experiments build one wrapper per point, so reduction
    applies to training {e and} testing, as in §6.1.2.  Static baselines
    build their own vocabularies from the raw training sources. *)

open Liger_trace
open Liger_core
open Liger_baselines

(* The wrapper of every model: [encode] turns a batch into the encoding
   [head] reads.  The head trains on each example's [targets] ids, and its
   predicted ids become sub-tokens by [names] for naming, or a class for
   classification. *)
let wrap ~name ~store ?embed ~encode ~targets ~names head (task : Liger_model.task) =
  let prediction =
    match task with
    | Liger_model.Naming -> fun ids -> Train.Subtokens (names ids)
    | Liger_model.Classify _ -> fun ids -> Train.Class (List.hd ids)
  in
  Train.make ~name ~store ?embed
    {
      Train.train_loss_batch =
        (fun btape exs -> Head.loss head btape (encode btape exs) ~targets:(Array.map targets exs));
      predict_batch =
        (fun exs -> Array.map prediction (Batch_pack.infer encode exs (Head.predict head)));
    }

(* the example's sub-token or class ids in the main vocabulary *)
let main_targets (ex : Common.enc_example) = ex.Common.target_ids

(** The models of the evaluation: LiGer (ablated or not), LiGer with the
    paper's vanilla trace RNN, and the three baselines. *)
type kind =
  | Liger of { static : bool; dynamic : bool; attention : bool }
  | Liger_vanilla_f3  (* DESIGN.md deviation 1: paper-faithful vanilla trace RNN *)
  | Dypro_k
  | Code2vec_k
  | Code2seq_k

(** A kind's name, which its wrapper, its results and its run keys carry. *)
let name = function
  | Liger { static = true; dynamic = true; attention = true } -> "LiGer"
  | Liger { static = false; _ } -> "LiGer-nostatic"
  | Liger { dynamic = false; _ } -> "LiGer-nodynamic"
  | Liger { attention = false; _ } -> "LiGer-noattention"
  | Liger_vanilla_f3 -> "LiGer-vanillaF3"
  | Dypro_k -> "DYPRO"
  | Code2vec_k -> "code2vec"
  | Code2seq_k -> "code2seq"

let liger_full = Liger { static = true; dynamic = true; attention = true }
let liger_nostatic = Liger { static = false; dynamic = true; attention = true }
let liger_nodynamic = Liger { static = true; dynamic = false; attention = true }
let liger_noattention = Liger { static = true; dynamic = true; attention = false }

(** The kinds [liger train --model] takes, by their command-line names. *)
let cli_names =
  [ ("liger", liger_full); ("dypro", Dypro_k); ("code2vec", Code2vec_k); ("code2seq", Code2seq_k) ]

(** LiGer (optionally ablated), named after the kind its [config] builds.
    Returns the wrapper and the model itself (the attention-inspection
    experiment needs the latter). *)
let liger ?(config = Liger_model.default_config) ?(view = Common.full_view) ?seed ~vocab task =
  let m = Liger_model.create ~config ?seed vocab task in
  let kind =
    if config.trace_cell = Liger_nn.Rnn_cell.Vanilla then Liger_vanilla_f3
    else
      Liger
        { static = config.use_static; dynamic = config.use_dynamic;
          attention = config.use_attention }
  in
  ( wrap ~name:(name kind) ~store:m.Liger_model.store ~embed:(Liger_model.embed_programs m ~view)
      ~encode:(fun btape -> Liger_model.encode_batch m ~view btape)
      ~targets:main_targets ~names:(List.map (Vocab.name vocab)) m.Liger_model.head task,
    m )

(** DYPRO.  Returns the wrapper and the model itself (probing needs the
    latter's frozen encoder). *)
let dypro ?(dim = 16) ?(view = Common.full_view) ?seed ~vocab task =
  let m = Dypro.create ~dim ?seed vocab task in
  ( wrap ~name:(name Dypro_k) ~store:m.Dypro.store ~embed:(Dypro.embed_programs m ~view)
      ~encode:(fun btape -> Dypro.encode_batch m ~view btape)
      ~targets:main_targets ~names:(List.map (Vocab.name vocab)) m.Dypro.head task,
    m )

(** code2vec; builds its own token and label vocabularies from [train]. *)
let code2vec ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () and labels = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2vec.register vocab ~labels ex.Common.meth) train;
  Vocab.freeze vocab;
  Vocab.freeze labels;
  let m = Code2vec.create ~dim ?seed vocab ~labels task in
  wrap ~name:(name Code2vec_k) ~store:m.Code2vec.store ~encode:(Code2vec.encode_batch m)
    ~targets:(Code2vec.target_ids m) ~names:(Code2vec.subtokens m) m.Code2vec.head task

(** code2seq; builds its own vocabulary from [train]. *)
let code2seq ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2seq.register vocab ex.Common.meth) train;
  Vocab.freeze vocab;
  let m = Code2seq.create ~dim ?seed vocab task in
  wrap ~name:(name Code2seq_k) ~store:m.Code2seq.store ~encode:(Code2seq.encode_batch m)
    ~targets:(Code2seq.target_ids m) ~names:(List.map (Vocab.name vocab)) m.Code2seq.head task

(** A fresh wrapper of [kind] at hidden size [dim] and view [view] for
    [task] on [corpus], and the model itself when [kind] is LiGer. *)
let build kind ~dim ~view (corpus : Liger_dataset.Pipeline.corpus) task =
  let vocab = corpus.Liger_dataset.Pipeline.vocab and train = corpus.Liger_dataset.Pipeline.train in
  let liger config =
    let w, m = liger ~config:{ config with Liger_model.dim } ~view ~vocab task in
    (w, Some m)
  in
  let config = Liger_model.default_config in
  match kind with
  | Liger { static; dynamic; attention } ->
      liger { config with use_static = static; use_dynamic = dynamic; use_attention = attention }
  | Liger_vanilla_f3 -> liger { config with trace_cell = Liger_nn.Rnn_cell.Vanilla }
  | Dypro_k -> (fst (dypro ~dim ~view ~vocab task), None)
  | Code2vec_k -> (code2vec ~dim ~train task, None)
  | Code2seq_k -> (code2seq ~dim ~train task, None)
