(** Wrapping every model behind the uniform {!Train.model} interface.

    A wrapper fixes the model's {e view} — how many symbolic traces and how
    many concrete traces per trace it may see — at construction; the
    down-sampling experiments build one wrapper per point, so reduction
    applies to training {e and} testing, as in §6.1.2.  Static baselines
    build their own vocabularies from the raw training sources. *)

open Liger_trace
open Liger_core
open Liger_baselines

(* one prediction per example, by task *)
let batch_predictions task names_of classes_of exs =
  match task with
  | Liger_model.Naming -> Array.map (fun n -> Train.Subtokens n) (names_of exs)
  | Liger_model.Classify _ -> Array.map (fun c -> Train.Class c) (classes_of exs)

(** LiGer (optionally ablated).  Returns the wrapper and the model itself
    (the attention-inspection experiment needs the latter). *)
let liger ?(config = Liger_model.default_config) ?(view = Common.full_view) ?seed ~vocab task =
  let model = Liger_model.create ~config ?seed vocab task in
  let name =
    match (config.use_static, config.use_dynamic, config.use_attention) with
    | true, true, true -> "LiGer"
    | false, true, _ -> "LiGer-nostatic"
    | true, false, _ -> "LiGer-nodynamic"
    | true, true, false -> "LiGer-noattention"
    | _ -> "LiGer-custom"
  in
  let wrap =
    Train.make ~name ~store:(Liger_model.store model)
      ~embed:(Liger_model.embed_programs model ~view)
      {
        Train.train_loss_batch =
          (fun btape exs -> fst (Liger_model.loss_batch model btape ~view exs));
        predict_batch =
          batch_predictions task
            (fun exs ->
              Array.map
                (List.map (Vocab.name (Liger_model.vocab model)))
                (Liger_model.predict_name_ids_batch model ~view exs))
            (Liger_model.predict_class_batch model ~view);
      }
  in
  (wrap, model)

(** DYPRO.  Returns the wrapper and the model itself (probing needs the
    latter's frozen encoder). *)
let dypro ?(dim = 16) ?(view = Common.full_view) ?seed ~vocab task =
  let model = Dypro.create ~dim ?seed vocab task in
  let wrap =
    Train.make ~name:"DYPRO" ~store:(Dypro.store model) ~embed:(Dypro.embed_programs model ~view)
      {
        Train.train_loss_batch = Dypro.loss_batch model ~view;
        predict_batch =
          batch_predictions task (Dypro.predict_name_batch model ~view)
            (Dypro.predict_class_batch model ~view);
      }
  in
  (wrap, model)

(** code2vec; builds its own token and label vocabularies from [train]. *)
let code2vec ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () and labels = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2vec.register vocab ~labels ex.Common.meth) train;
  Vocab.freeze vocab;
  Vocab.freeze labels;
  let model = Code2vec.create ~dim ?seed vocab ~labels task in
  Train.make ~name:"code2vec" ~store:(Code2vec.store model)
    {
      Train.train_loss_batch = Code2vec.loss_batch model;
      predict_batch =
        batch_predictions task (Code2vec.predict_name_batch model)
          (Code2vec.predict_class_batch model);
    }

(** code2seq; builds its own vocabulary from [train]. *)
let code2seq ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2seq.register vocab ex.Common.meth) train;
  Vocab.freeze vocab;
  let model = Code2seq.create ~dim ?seed vocab task in
  Train.make ~name:"code2seq" ~store:(Code2seq.store model)
    {
      Train.train_loss_batch = Code2seq.loss_batch model;
      predict_batch =
        batch_predictions task (Code2seq.predict_name_batch model)
          (Code2seq.predict_class_batch model);
    }
