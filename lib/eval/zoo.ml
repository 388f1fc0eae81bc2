(** Wrapping every model behind the uniform {!Train.model} interface.

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

(** LiGer (optionally ablated).  Returns the wrapper and the model itself
    (the attention-inspection experiment needs the latter). *)
let liger ?(config = Liger_model.default_config) ?(view = Common.full_view) ?seed ~vocab task =
  let m = Liger_model.create ~config ?seed vocab task in
  let name =
    match (config.use_static, config.use_dynamic, config.use_attention) with
    | true, true, true -> "LiGer"
    | false, true, _ -> "LiGer-nostatic"
    | true, false, _ -> "LiGer-nodynamic"
    | true, true, false -> "LiGer-noattention"
    | _ -> "LiGer-custom"
  in
  ( wrap ~name ~store:m.Liger_model.store ~embed:(Liger_model.embed_programs m ~view)
      ~encode:(fun btape -> Liger_model.encode_batch m ~view btape)
      ~targets:main_targets ~names:(List.map (Vocab.name vocab)) m.Liger_model.head task,
    m )

(** DYPRO.  Returns the wrapper and the model itself (probing needs the
    latter's frozen encoder). *)
let dypro ?(dim = 16) ?(view = Common.full_view) ?seed ~vocab task =
  let m = Dypro.create ~dim ?seed vocab task in
  ( wrap ~name:"DYPRO" ~store:m.Dypro.store ~embed:(Dypro.embed_programs m ~view)
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
  wrap ~name:"code2vec" ~store:m.Code2vec.store ~encode:(Code2vec.encode_batch m)
    ~targets:(Code2vec.target_ids m) ~names:(Code2vec.subtokens m) m.Code2vec.head task

(** code2seq; builds its own vocabulary from [train]. *)
let code2seq ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2seq.register vocab ex.Common.meth) train;
  Vocab.freeze vocab;
  let m = Code2seq.create ~dim ?seed vocab task in
  wrap ~name:"code2seq" ~store:m.Code2seq.store ~encode:(Code2seq.encode_batch m)
    ~targets:(Code2seq.target_ids m) ~names:(List.map (Vocab.name vocab)) m.Code2seq.head task
