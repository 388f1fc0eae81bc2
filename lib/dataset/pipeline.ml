(** End-to-end dataset construction: generate methods, filter them, collect
    executions, group into blended traces, build the vocabulary from the
    training split, and intern every example.

    This is the whole front half of the paper's pipeline (JavaParser +
    instrumentation + Randoop + grouping), producing model-ready corpora. *)

open Liger_lang
open Liger_trace
open Liger_testgen
open Liger_core
open Liger_parallel
module Obs = Liger_obs.Obs

type corpus = {
  name : string;
  train : Common.enc_example list;
  valid : Common.enc_example list;
  test : Common.enc_example list;
  vocab : Vocab.t;
  stats : Stats.table;
}

let sizes c = (List.length c.train, List.length c.valid, List.length c.test)

(** Test-generation budget sized to the encoding caps: there is no point
    collecting more paths/executions than the encoder keeps. *)
let budget_for (cfg : Common.enc_config) =
  {
    Feedback.max_attempts = 250;
    target_paths = cfg.Common.max_paths + 2;
    per_path = cfg.Common.max_concrete;
    fuel = 8_000;
  }

(* Shared tail: blended traces in hand, build vocab from train, encode all.

   Vocabulary building is order-sensitive (interning assigns ids), so it
   stays sequential; encoding against the then-frozen vocabulary is pure
   and runs on the parallel pool.  Uids are reassigned sequentially in
   example order afterwards so the corpus is identical at any job count. *)
let assemble ~name ~enc_config ~stats splits =
  let vocab = Vocab.create () in
  let train_raw, valid_raw, test_raw = splits in
  Obs.Span.with_ ~name:"pipeline.vocab" (fun () ->
      List.iter
        (fun (_, blended, label) -> Common.register_example vocab blended label)
        train_raw;
      Vocab.freeze vocab);
  let encode_all raw =
    Obs.Span.with_ ~name:"pipeline.encode"
      ~args:(fun () -> [ ("examples", string_of_int (List.length raw)) ])
    @@ fun () ->
    Parallel.map_list
      (fun (meth, blended, label) -> Common.encode_example enc_config vocab meth blended label)
      raw
    |> List.map (fun ex -> { ex with Common.uid = Common.fresh_uid () })
  in
  {
    name;
    train = encode_all train_raw;
    valid = encode_all valid_raw;
    test = encode_all test_raw;
    vocab;
    stats;
  }

(** Build a method-name-prediction corpus of [n] generated methods. *)
let build_naming ?(enc_config = Common.default_enc_config) rng ~name ~n =
  Obs.Span.with_ ~name:"pipeline.build_naming" ~args:(fun () -> [ ("corpus", name) ])
  @@ fun () ->
  let items =
    Obs.Span.with_ ~name:"pipeline.generate" (fun () -> Javagen.generate rng ~n)
  in
  let train_items, valid_items, test_items = Javagen.split_by_project items in
  let budget = budget_for enc_config in
  let filter_split split_name items =
    let kept, fstats =
      Obs.Span.with_ ~name:"pipeline.filter" ~args:(fun () -> [ ("split", split_name) ])
        (fun () ->
          Filter.run ~budget rng
            (List.map (fun (it : Javagen.item) -> it.Javagen.candidate) items))
    in
    let raw =
      Obs.Span.with_ ~name:"pipeline.blend" ~args:(fun () -> [ ("split", split_name) ])
      @@ fun () ->
      Parallel.map_list
        (fun (meth, r) ->
          (meth, Feedback.blended meth r, Common.Name meth.Ast.mname))
        kept
    in
    ( raw,
      { Stats.split_name; original = fstats.Filter.original; filtered = fstats.Filter.filtered },
      fstats.Filter.by_reason )
  in
  let train_raw, train_row, r1 = filter_split "Training" train_items in
  let valid_raw, valid_row, r2 = filter_split "Validation" valid_items in
  let test_raw, test_row, r3 = filter_split "Test" test_items in
  let stats =
    {
      Stats.dataset = name;
      rows = [ train_row; valid_row; test_row ];
      reasons = List.fold_left Stats.merge_reasons [] [ r1; r2; r3 ];
    }
  in
  assemble ~name ~enc_config ~stats (train_raw, valid_raw, test_raw)

(** Build the COSET-analogue classification corpus of [n] clean programs. *)
let build_coset ?(enc_config = Common.default_enc_config) rng ~n =
  Obs.Span.with_ ~name:"pipeline.build_coset" @@ fun () ->
  let items, dropped =
    Obs.Span.with_ ~name:"pipeline.generate" (fun () -> Coset.generate rng ~n)
  in
  let train_items, valid_items, test_items = Coset.split rng items in
  let budget = budget_for enc_config in
  let collect split_name items =
    (* one generator per item, split in item order: deterministic at any
       job count *)
    let raw =
      Obs.Span.with_ ~name:"pipeline.blend" ~args:(fun () -> [ ("split", split_name) ])
      @@ fun () ->
      Parallel.filter_map_rng rng
        (fun rng (it : Coset.item) ->
          let r = Feedback.generate ~budget rng it.Coset.meth in
          if r.Feedback.gave_up then None
          else
            Some
              (it.Coset.meth, Feedback.blended it.Coset.meth r, Common.Class it.Coset.class_id))
        items
    in
    ( raw,
      { Stats.split_name; original = List.length items; filtered = List.length raw } )
  in
  let train_raw, train_row = collect "Training" train_items in
  let valid_raw, valid_row = collect "Validation" valid_items in
  let test_raw, test_row = collect "Test" test_items in
  let stats =
    {
      Stats.dataset = "COSET-analogue";
      rows = [ train_row; valid_row; test_row ];
      reasons = [ (Filter.Testgen_timeout, dropped) ];
    }
  in
  assemble ~name:"COSET-analogue" ~enc_config ~stats (train_raw, valid_raw, test_raw)
