(** Inputs, generated from the workload seed.

    Method cost is set mostly by the template a method comes from (a
    Collatz loop costs test generation about a thousand times what a
    three-line getter does), so a plain random draw of a few hundred
    methods makes throughput swing with how many expensive templates the
    seed happened to pick.  Every set below is therefore stratified by
    template: each template appears a fixed number of times in a fixed
    slot, and the seed decides the method in each slot (variant,
    mutations, identifiers, name) and the test inputs generated for it. *)

open Liger_tensor
module Javagen = Liger_dataset.Javagen
module Templates = Liger_dataset.Templates
module Filter = Liger_testgen.Filter
module Ast = Liger_lang.Ast

let templates = Array.of_list (List.map (fun (t : Templates.t) -> t.Templates.base_name) Templates.all)
let n_templates = Array.length templates

let template_index (it : Javagen.item) =
  let name = it.Javagen.template.Templates.base_name in
  let rec find i = if i >= n_templates then invalid_arg name else if templates.(i) = name then i else find (i + 1) in
  find 0

let is_real (it : Javagen.item) = it.Javagen.algo <> "broken" && it.Javagen.algo <> "tiny"

(** Corpus composition per round: one method of every template, plus the
    filter's other inputs in about the shares {!Javagen.default_profile}
    draws them (4% broken, 5% tiny, 6% needing external packages). *)
let broken_per_round = 3
let tiny_per_round = 3
let external_per_round = 4

(** One method of each template in [tpls] (indices into {!templates}),
    plus [broken], [tiny] and [external_] extra candidates.  The order and
    the project (and so the train/validation/test split) of each slot are
    fixed, so every draw hands the pipeline the same shape of work; the
    seed decides the methods in the slots. *)
let stratum ?(project = fun i -> i mod Javagen.default_profile.Javagen.n_projects) rng ~tpls
    ~broken:n_broken ~tiny:n_tiny ~external_:n_external : Javagen.item list =
  let slots = Hashtbl.create 64 in
  let broken = ref [] and tiny = ref [] and external_ = ref [] in
  let need l k = List.length !l < k in
  while Hashtbl.length slots < List.length tpls || need broken n_broken || need tiny n_tiny
        || need external_ n_external do
    let it = Javagen.generate_item rng in
    let with_external b =
      { it with Javagen.candidate = { it.Javagen.candidate with Filter.uses_external = b } }
    in
    match it.Javagen.algo with
    | "broken" -> if need broken n_broken then broken := it :: !broken
    | "tiny" -> if need tiny n_tiny then tiny := it :: !tiny
    | _ ->
        let i = template_index it in
        if List.mem i tpls && not (Hashtbl.mem slots i) then Hashtbl.replace slots i (with_external false)
        else if need external_ n_external then external_ := with_external true :: !external_
  done;
  List.map (Hashtbl.find slots) tpls @ List.rev !broken @ List.rev !tiny @ List.rev !external_
  |> List.mapi (fun i (it : Javagen.item) -> { it with Javagen.project = project i })

(** A slot-to-project map that puts three slots in four in the training
    split ([Javagen.split_by_project] sends projects 0-3 to test, 4-6 to
    validation and 7-15 to training). *)
let mostly_train i = match i mod 8 with 0 -> 0 | 1 -> 4 | _ -> 7 + (i mod 9)

let every k r = List.filter (fun i -> i mod k = r) (List.init n_templates Fun.id)

(** Quarter [q] of a corpus round: the templates whose index is [q] mod 4,
    with a share of the extras; the four quarters make a full round. *)
let corpus_quarter rng q =
  stratum rng ~tpls:(every 4 q) ~broken:(if q < broken_per_round then 1 else 0)
    ~tiny:(if q < tiny_per_round then 1 else 0) ~external_:(if q < external_per_round then 1 else 0)

(** A method the server is sent: its AST, its source text and its AST hash. *)
type served = { meth : Ast.meth; body : string; hash : string }

let served_of meth =
  { meth; body = Liger_lang.Pretty.meth_to_string meth; hash = Liger_serve.Ast_hash.of_meth meth }

(* a real-variant method that typechecks and whose hash is not in [seen] *)
let rec fresh rng ~seen ~accept =
  let it = Javagen.generate_item rng in
  let m = it.Javagen.candidate.Filter.meth in
  if (not (is_real it)) || not (accept it) || Liger_lang.Typecheck.check m <> Ok () then
    fresh rng ~seen ~accept
  else
    let s = served_of m in
    if Hashtbl.mem seen s.hash then fresh rng ~seen ~accept
    else begin
      Hashtbl.replace seen s.hash ();
      s
    end

(** One never-seen method of each template in [tpls], in a seeded order. *)
let served_set rng ~seen tpls =
  let arr = Array.of_list (List.map (fun i -> fresh rng ~seen ~accept:(fun it -> template_index it = i)) tpls) in
  Rng.shuffle rng arr;
  Array.to_list arr
