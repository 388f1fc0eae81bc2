(** The COSET analogue (§6.2): programs solving ten coding problems with a
    variety of algorithms; the task is to classify which algorithm a program
    implements.

    Programs are template variants expanded through the mutation engine.
    Following the paper's cleaning step ("we remove programs that fail to
    pass all test cases"), each generated program is differentially tested
    against its pristine template on random inputs and dropped on any
    disagreement or crash; a small injected-bug rate gives that filter work
    to do. *)

open Liger_lang
open Liger_tensor

type item = {
  meth : Ast.meth;
  problem : string;
  algo : string;
  class_id : int;
}

(** Algorithm classes over the ten COSET problems, in stable order; class
    ids index this list. *)
let classes : string list =
  Templates.coset_problems
  |> List.concat_map (fun p ->
         Templates.by_problem p
         |> List.concat_map (fun (t : Templates.t) ->
                List.map (fun (v : Templates.variant) -> v.Templates.algo) t.Templates.variants))
  |> List.sort_uniq compare

let class_id algo =
  let rec idx i = function
    | [] -> invalid_arg ("Coset.class_id: unknown algorithm " ^ algo)
    | c :: rest -> if c = algo then i else idx (i + 1) rest
  in
  idx 0 classes

let n_classes = List.length classes

(* Inject a data-flow bug: reverse one randomly chosen comparison.  Always
   fires when any comparison exists. *)
let inject_bug rng (m : Ast.meth) =
  let is_cmp = function
    | Ast.Binop ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge), _, _) -> true
    | _ -> false
  in
  let sites = ref 0 in
  let (_ : Ast.meth) =
    Ast.map_meth ~fexpr:(fun e -> if is_cmp e then incr sites; e) ~fstmt:Fun.id m
  in
  let target = if !sites = 0 then -1 else Rng.int rng !sites in
  let seen = ref 0 in
  let fexpr e =
    match e with
    | Ast.Binop ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge) as op, a, b) ->
        let k = !seen in
        incr seen;
        if k <> target then e
        else
          let op' =
            match op with
            | Ast.Lt -> Ast.Ge
            | Ast.Le -> Ast.Gt
            | Ast.Gt -> Ast.Le
            | _ -> Ast.Lt
          in
          Ast.Binop (op', a, b)
    | e -> e
  in
  Ast.map_meth ~fexpr ~fstmt:Fun.id m

let outcomes_agree a b =
  match (a, b) with
  | Interp.Returned x, Interp.Returned y -> Value.equal x y
  | Interp.Timeout, Interp.Timeout -> true
  | Interp.Crashed _, Interp.Crashed _ -> true
  | _ -> false

(** Differential check against the pristine template variant on 12
    random inputs — the "passes all test cases" gate. *)
let passes_tests rng ~reference (m : Ast.meth) =
  let ok = ref true in
  for _ = 1 to 12 do
    if !ok then begin
      let args = Liger_testgen.Randgen.args rng reference in
      if not (outcomes_agree (Interp.run reference args) (Interp.run m args)) then
        ok := false
    end
  done;
  !ok

(** Generate one candidate program, buggy with probability 0.06. *)
let generate_item rng =
  let problem = Rng.choose_list rng Templates.coset_problems in
  let tpl = Rng.choose_list rng (Templates.by_problem problem) in
  let variant = Rng.choose_list rng tpl.Templates.variants in
  let reference = Parser.method_of_string variant.Templates.source in
  let meth = Mutate.variant rng reference in
  let meth = if Rng.bernoulli rng 0.06 then inject_bug rng meth else meth in
  (reference, { meth; problem; algo = variant.Templates.algo; class_id = class_id variant.Templates.algo })

(** Generate [n] {e clean} programs: candidates failing the differential
    test are discarded and regenerated, and the discard count is returned
    (the paper's 85K -> 63.5K reduction).

    Candidates are drawn sequentially (AST construction allocates statement
    ids from a shared counter), then differentially tested in parallel —
    each test with its own generator split in candidate order, so batches
    and verdicts are identical at any job count.  Candidates past the [n]th
    keeper in the final batch are discarded without counting, mirroring the
    one-at-a-time loop that would never have generated them. *)
let generate rng ~n =
  let kept = ref [] in
  let n_kept = ref 0 in
  let dropped = ref 0 in
  while !n_kept < n do
    let batch_size = min 64 (max 8 (n - !n_kept)) in
    let batch =
      (* explicit loop: the draws must consume [rng] in candidate order *)
      let acc = ref [] in
      for _ = 1 to batch_size do
        let reference, item = generate_item rng in
        acc := (reference, item, Rng.split rng) :: !acc
      done;
      List.rev !acc
    in
    let verdicts =
      Liger_parallel.Parallel.map_list
        (fun (reference, item, trng) ->
          Liger_obs.Obs.Span.with_ ~name:"coset.check"
            ~args:(fun () -> [ ("algo", item.algo) ])
            (fun () ->
              ( item,
                Typecheck.is_well_typed item.meth && passes_tests trng ~reference item.meth )))
        batch
    in
    List.iter
      (fun (item, ok) ->
        if !n_kept < n then
          if ok then begin
            Liger_obs.Metrics.incr "coset.kept";
            kept := item :: !kept;
            incr n_kept
          end
          else begin
            Liger_obs.Metrics.incr "coset.dropped";
            incr dropped
          end)
      verdicts
  done;
  (List.rev !kept, !dropped)

(** Uniform random split with the paper's proportions (roughly 72/14/14). *)
let split rng items =
  let arr = Array.of_list items in
  Rng.shuffle rng arr;
  let n = Array.length arr in
  let n_test = n * 14 / 100 and n_valid = n * 14 / 100 in
  let test = Array.to_list (Array.sub arr 0 n_test) in
  let valid = Array.to_list (Array.sub arr n_test n_valid) in
  let train = Array.to_list (Array.sub arr (n_test + n_valid) (n - n_test - n_valid)) in
  (train, valid, test)
