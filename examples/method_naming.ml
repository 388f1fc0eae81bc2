(* Method-name prediction end to end on a small generated corpus: builds a
   Java-med-style corpus, trains LiGer, and prints predictions next to the
   gold names for a handful of test methods.

   Run with: dune exec examples/method_naming.exe *)

open Liger_tensor
open Liger_core
open Liger_dataset
open Liger_eval
open Liger_lang

let () =
  let rng = Rng.create 2024 in
  Printf.printf "Building corpus (generate -> filter -> trace -> encode)...\n%!";
  let enc =
    { Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  let corpus = Pipeline.build_naming ~enc_config:enc rng ~name:"example" ~n:150 in
  let n_train, n_valid, n_test = Pipeline.sizes corpus in
  Printf.printf "corpus: %d train / %d valid / %d test methods (vocab %d)\n%!" n_train
    n_valid n_test
    (Liger_trace.Vocab.size corpus.Pipeline.vocab);

  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 16 }
      ~vocab:corpus.Pipeline.vocab Liger_model.Naming
  in
  Printf.printf "Training LiGer (%d params)...\n%!"
    (Liger_tensor.Param.num_params wrapper.Train.store);
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 10 }
      (Rng.create 7) wrapper ~train:corpus.Pipeline.train ~valid:corpus.Pipeline.valid
  in
  Printf.printf "best validation epoch: %d\n\n" history.Train.best_epoch;

  let result = Train.eval_naming wrapper corpus.Pipeline.test in
  Printf.printf "test metrics: %s\n\n" (Fmt.str "%a" Metrics.pp_prf result.Train.prf);

  Printf.printf "%-28s %-28s\n" "gold name" "predicted sub-tokens";
  Printf.printf "%s\n" (String.make 56 '-');
  let shown = List.filteri (fun i _ -> i < 12) corpus.Pipeline.test in
  List.iter2
    (fun (ex : Common.enc_example) (prediction, _) ->
      let predicted =
        match prediction with
        | Train.Subtokens toks -> String.concat " " toks
        | Train.Class _ -> "?"
      in
      Printf.printf "%-28s %-28s\n" ex.Common.meth.Ast.mname predicted)
    shown (Train.predictions wrapper shown)
