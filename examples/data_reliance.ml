(* The data-reliance story (6.1.2) in miniature: train LiGer and DYPRO at a
   full trace budget and at a reduced one, and compare how much each loses.
   LiGer, holding the symbolic dimension, degrades less than DYPRO when
   concrete executions are taken away.

   Run with: dune exec examples/data_reliance.exe *)

open Liger_tensor
open Liger_core
open Liger_dataset
open Liger_eval

let () =
  let rng = Rng.create 555 in
  let enc =
    { Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  Printf.printf "Building corpus...\n%!";
  let corpus = Pipeline.build_naming ~enc_config:enc rng ~name:"reliance" ~n:160 in
  let n_train, _, n_test = Pipeline.sizes corpus in
  Printf.printf "train %d / test %d\n\n%!" n_train n_test;

  let fit_and_score name make_wrapper =
    let wrapper = make_wrapper () in
    let (_ : Train.history) =
      Train.fit
        ~options:{ Train.default_options with Train.epochs = 8 }
        (Rng.create 9) wrapper ~train:corpus.Pipeline.train ~valid:corpus.Pipeline.valid
    in
    let f1 = 100.0 *. (Train.eval_naming wrapper corpus.Pipeline.test).Train.prf.Metrics.f1 in
    Printf.printf "  %-34s F1 = %.2f\n%!" name f1;
    f1
  in
  let view_full = Common.full_view in
  let view_reduced = { Common.n_paths = max_int; n_concrete = 1 } in

  Printf.printf "Full trace budget (%d concrete traces per path):\n" enc.Common.max_concrete;
  let liger_full =
    fit_and_score "LiGer" (fun () ->
        fst (Zoo.liger ~view:view_full ~vocab:corpus.Pipeline.vocab Liger_model.Naming))
  in
  let dypro_full =
    fit_and_score "DYPRO" (fun () ->
        fst (Zoo.dypro ~view:view_full ~vocab:corpus.Pipeline.vocab Liger_model.Naming))
  in

  Printf.printf "\nReduced budget (1 concrete trace per path, train AND test):\n";
  let liger_red =
    fit_and_score "LiGer" (fun () ->
        fst (Zoo.liger ~view:view_reduced ~vocab:corpus.Pipeline.vocab Liger_model.Naming))
  in
  let dypro_red =
    fit_and_score "DYPRO" (fun () ->
        fst (Zoo.dypro ~view:view_reduced ~vocab:corpus.Pipeline.vocab Liger_model.Naming))
  in

  Printf.printf "\nF1 lost when concrete traces drop 3 -> 1:\n";
  Printf.printf "  LiGer: %+.2f      DYPRO: %+.2f\n" (liger_red -. liger_full)
    (dypro_red -. dypro_full);
  Printf.printf
    "\n(The paper's Figure 6a/6b: LiGer's symbolic dimension absorbs the loss;\n\
     \ DYPRO, learning from concrete traces alone, degrades more.)\n"
