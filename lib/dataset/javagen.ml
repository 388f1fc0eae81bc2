(** Synthetic corpus generation: the Java-med / Java-large analogues.

    Each generated method is a template variant pushed through the mutation
    engine (renaming, equivalent rewrites, loop conversion, dead code) and
    given a name drawn from the template's synonym set — so names correlate
    with semantics while surface syntax varies independently, the property
    that separates static from dynamic models.  A small fraction of methods
    is generated broken (type errors), trivially small, or flagged as
    depending on external packages, so the Table 1 filtering pipeline has
    its four reasons to fire. *)

open Liger_lang
open Liger_tensor
open Liger_testgen

type item = {
  candidate : Filter.candidate;
  template : Templates.t;
  algo : string;
  project : int;  (* splits are by project, following Alon et al.'s protocol *)
}

(** The corpus's character; probabilities match the rough proportions the
    paper reports losing to each filter. *)
type profile = {
  p_broken : float;
  p_external : float;
  p_tiny : float;
  p_adversarial_rename : float;  (* uninformative identifiers (§6.1.1 Remarks) *)
  n_projects : int;
}

let default_profile =
  { p_broken = 0.04; p_external = 0.06; p_tiny = 0.05; p_adversarial_rename = 0.2; n_projects = 16 }

let parse_template src = Parser.method_of_string src

(* A deliberately ill-typed method (the "does not compile" bucket). *)
let broken_method rng =
  let bad = Ast.mk (Ast.Decl (Ast.Tint, "oops", Ast.Str "not an int")) in
  let body =
    [ Ast.mk (Ast.Decl (Ast.Tint, "x", Ast.Int (Rng.int rng 5)));
      bad;
      Ast.mk (Ast.Return (Ast.Var "x")) ]
  in
  { Ast.mname = "brokenHelper"; params = [ (Ast.Tint, "n") ]; ret = Ast.Tint; body }

(* A method below the size filter ("a couple of lines"). *)
let tiny_method rng =
  let name = Rng.choose rng [| "getValue"; "identity"; "passThrough" |] in
  {
    Ast.mname = name;
    params = [ (Ast.Tint, "x") ];
    ret = Ast.Tint;
    body = [ Ast.mk ~line:1 (Ast.Return (Ast.Var "x")) ];
  }

(* ---------------- per-project coding style ---------------- *)

(* Each project has a fixed syntactic style — loop idiom, identifier
   discipline, rewrite habits.  Splits are by project, so the test split
   contains styles never seen in training (as unseen GitHub projects do);
   this is what makes surface syntax a poor predictor of semantics across
   the split while execution traces remain style-invariant (the Figure 1
   phenomenon). *)
type style = {
  loop_p : float;  (* probability a for-loop is rewritten to while *)
  rename : [ `Keep | `Roles | `Letters | `Uninformative ];
  rewrite : bool;  (* equivalent-expression rewrites *)
  dead : float;    (* dead-code insertion probability *)
  defensive : float;  (* belt-and-braces guard insertion probability *)
}

let style_of_project project =
  let srng = Rng.create ((project * 7919) + 13) in
  {
    loop_p = Rng.choose srng [| 0.0; 0.25; 0.6; 1.0 |];
    rename = Rng.choose srng [| `Keep; `Roles; `Roles; `Letters; `Uninformative |];
    rewrite = Rng.bernoulli srng 0.7;
    dead = Rng.choose srng [| 0.0; 0.3; 0.6 |];
    defensive = Rng.choose srng [| 0.0; 0.35; 0.7 |];
  }

let apply_style rng style meth =
  let meth = if style.rewrite then Mutate.rewrite_exprs rng meth else meth in
  let meth = if style.loop_p > 0.0 then Mutate.for_to_while ~p:style.loop_p rng meth else meth in
  let meth = if Rng.bernoulli rng style.dead then Mutate.insert_dead_code rng meth else meth in
  let meth =
    if Rng.bernoulli rng style.defensive then Mutate.insert_defensive_guard rng meth else meth
  in
  match style.rename with
  | `Keep -> meth
  | `Roles -> Mutate.rename_random rng meth
  | `Letters -> Mutate.rename_letters rng meth
  | `Uninformative -> Mutate.rename_uninformative meth

(* Naming-style prefixes; each project prefers two of them, so the test
   projects contain full-name combinations never seen in training — the
   property that makes whole-name classification (code2vec) lag sub-token
   generation (code2seq and the dynamic models) on mined corpora. *)
let name_prefixes = [| "compute"; "get"; "find"; "calc"; "do"; "run"; "eval"; "make" |]

let project_prefixes project =
  let n = Array.length name_prefixes in
  let a = (project * 7) mod n in
  let b = (a + 1 + (project mod (n - 1))) mod n in
  (name_prefixes.(a), name_prefixes.(b))

let pick_name rng ~project (tpl : Templates.t) =
  (* canonical name dominates, as it does in mined corpora *)
  let base =
    if Rng.bernoulli rng 0.7 then tpl.Templates.base_name
    else Rng.choose_list rng tpl.Templates.synonyms
  in
  if Rng.bernoulli rng 0.65 then base
  else
    let pa, pb = project_prefixes project in
    let prefix = if Rng.bool rng then pa else pb in
    match Subtoken.split base with
    | first :: _ when first = prefix -> base  (* avoid computeComputeSum *)
    | subs -> Subtoken.join (prefix :: subs)

(** Generate one corpus item. *)
let generate_item rng : item =
  let profile = default_profile in
  let tpl = Rng.choose_list rng Templates.all in
  let project = Rng.int rng profile.n_projects in
  if Rng.bernoulli rng profile.p_broken then
    { candidate = { Filter.meth = broken_method rng; uses_external = false };
      template = tpl; algo = "broken"; project }
  else if Rng.bernoulli rng profile.p_tiny then
    { candidate = { Filter.meth = tiny_method rng; uses_external = false };
      template = tpl; algo = "tiny"; project }
  else begin
    let variant = Rng.choose_list rng tpl.Templates.variants in
    let meth = parse_template variant.Templates.source in
    let meth =
      if Rng.bernoulli rng profile.p_adversarial_rename then
        Mutate.rename_uninformative (Mutate.variant ~rename:false rng meth)
      else apply_style rng (style_of_project project) meth
    in
    let meth = { meth with Ast.mname = pick_name rng ~project tpl } in
    { candidate = { Filter.meth; uses_external = Rng.bernoulli rng profile.p_external };
      template = tpl; algo = variant.Templates.algo; project }
  end

(** Generate a corpus of [n] items. *)
let generate rng ~n = List.init n (fun _ -> generate_item rng)

(** Partition a corpus by project id into train/validation/test, mirroring
    the protocol where "methods in training, validation and test sets are
    extracted from distinct projects". *)
let split_by_project items =
  let n = default_profile.n_projects in
  let test_cut = max 1 (n / 4) in
  let valid_cut = test_cut + max 1 (n / 5) in
  let bucket it =
    if it.project < test_cut then `Test
    else if it.project < valid_cut then `Valid
    else `Train
  in
  let train = List.filter (fun it -> bucket it = `Train) items in
  let valid = List.filter (fun it -> bucket it = `Valid) items in
  let test = List.filter (fun it -> bucket it = `Test) items in
  (train, valid, test)
