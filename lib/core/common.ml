(** Shared types for all models: labeled examples and their pre-interned
    encodings.

    Training touches every example once per epoch, so everything that does
    not depend on the model parameters — statement trees, state token ids,
    sub-token targets — is resolved against the frozen vocabulary once, when
    the dataset is built.  Down-sampling experiments then merely select
    sub-ranges of the encoded traces; they never re-run the encoder.

    Within one example, the token ids of each distinct value and the tree
    of each statement head are looked up once and the result is shared by
    every step and execution that repeats it.  The memo is per example
    because examples are encoded in parallel; sharing changes no value,
    since no reader writes into an [itree] or a [var_tokens] row. *)

open Liger_lang
open Liger_trace

type label =
  | Name of string   (* method-name prediction: decoded as sub-tokens *)
  | Class of int     (* semantics classification *)

(** Statement trees with interned labels (fast TreeLSTM input). *)
type itree = ILeaf of int | INode of int * itree list

(* interning is a pure lookup (unseen → unk): the encode path must never
   mutate the vocabulary — serving encodes user-submitted methods whose
   identifiers were not in the training set ({!Vocab.lookup}) *)
let rec intern_tree vocab = function
  | Encode.Leaf tok -> ILeaf (Vocab.lookup vocab tok)
  | Encode.Node (label, children) ->
      INode (Vocab.lookup vocab label, List.map (intern_tree vocab) children)

(** One encoded blended-trace step: the statement tree, a memoization key
    (statements repeat across loop iterations, so per-forward TreeLSTM
    results are cached on it), and per-concrete-trace per-variable token
    ids. *)
type enc_step = {
  tree : itree;
  memo_key : int;                 (* sid * 2 + branch bit *)
  var_tokens : int array array array;  (* [concrete][variable][token] *)
}

type enc_trace = {
  steps : enc_step array;
  n_concrete : int;
  n_lines : int;  (* lines this path covers; kept for reporting *)
}

type enc_example = {
  uid : int;                 (* unique per encoded example; memoization key *)
  meth : Ast.meth;
  traces : enc_trace array;  (* in Mincover.reduction_order *)
  label : label;
  target_ids : int list;     (* Name: sub-token ids; Class: singleton *)
  var_name_ids : int array;  (* "var_<x>" token per state-layout position;
                                DYPRO consumes names alongside values (§6.1) *)
}

(** Encoding configuration: caps applied when interning. *)
type enc_config = {
  max_paths : int;     (* symbolic traces kept per method (full setting) *)
  max_concrete : int;  (* concrete traces kept per path (full setting) *)
  max_steps : int;     (* blended-trace truncation *)
}

let default_enc_config =
  { max_paths = 6; max_concrete = 4; max_steps = 24 }

(* Atomic: examples are encoded in parallel.  Pipelines that need
   jobs-independent uids reassign them sequentially after the parallel
   encode (see [Pipeline.assemble]). *)
let uid_counter = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add uid_counter 1 + 1

(** Reset the uid counter.  Only for tests and benchmarks that rebuild a
    corpus from the same seed and compare byte-for-byte; uids are
    memoization keys scoped to a model's lifetime, so never reset while any
    model trained on previously encoded examples is still in use. *)
let reset_uids () = Atomic.set uid_counter 0

let memo_key_of (step : Blended.step) =
  (step.Blended.stmt.Ast.sid * 2)
  + (match step.Blended.branch with Some true -> 1 | _ -> 0)

(* One example's interned statement heads (by sid and branch) and values *)
type memo = {
  trees : (int * bool option, itree) Hashtbl.t;
  values : (Value.t option, int array) Hashtbl.t;
  mutable states : int;  (* states encoded *)
}

(** Intern one blended trace. *)
let encode_trace cfg vocab memo (b : Blended.t) : enc_trace =
  let b = Blended.truncate cfg.max_steps (Blended.limit_concrete cfg.max_concrete b) in
  let value_ids v =
    match Hashtbl.find_opt memo.values v with
    | Some ids -> ids
    | None ->
        let ids =
          Array.of_list (List.map (Vocab.lookup vocab) (Encode.value_tokens v))
        in
        Hashtbl.add memo.values v ids;
        ids
  in
  let steps =
    List.map
      (fun (step : Blended.step) ->
        let head = (step.Blended.stmt.Ast.sid, step.Blended.branch) in
        let tree =
          match Hashtbl.find_opt memo.trees head with
          | Some t -> t
          | None ->
              let t =
                intern_tree vocab
                  (Encode.stmt_tree ?branch:step.Blended.branch step.Blended.stmt)
              in
              Hashtbl.add memo.trees head t;
              t
        in
        let var_tokens =
          Array.map
            (fun env ->
              memo.states <- memo.states + 1;
              Array.of_list (List.map (fun (_, v) -> value_ids v) env))
            step.Blended.states
        in
        { tree; memo_key = memo_key_of step; var_tokens })
      b.Blended.steps
  in
  {
    steps = Array.of_list steps;
    n_concrete = b.Blended.n_concrete;
    n_lines = List.length b.Blended.lines;
  }

(** Intern one labeled method with its blended traces.  Traces are put in
    {!Mincover.reduction_order} so that taking a prefix preserves line
    coverage — the selection the symbolic-reduction experiments make. *)
let encode_example cfg vocab meth (blended : Blended.t list) label : enc_example =
  Liger_obs.Obs.Span.with_ ~name:"encode.example"
    ~args:(fun () -> [ ("method", meth.Ast.mname) ])
  @@ fun () ->
  Liger_obs.Metrics.incr "encode.examples";
  let ordered = Mincover.reduction_order blended in
  let chosen = List.filteri (fun i _ -> i < cfg.max_paths) ordered in
  Liger_obs.Metrics.add "encode.traces" (List.length chosen);
  let target_ids =
    match label with
    | Name name -> List.map (fun t -> Vocab.lookup vocab t) (Subtoken.split name)
    | Class c -> [ c ]
  in
  let var_name_ids =
    Array.of_list
      (List.map (fun x -> Vocab.lookup vocab ("var_" ^ x)) (Ast.declared_vars meth))
  in
  let memo = { trees = Hashtbl.create 64; values = Hashtbl.create 64; states = 0 } in
  let traces = Array.of_list (List.map (encode_trace cfg vocab memo) chosen) in
  Liger_obs.Metrics.add "encode.states" memo.states;
  Liger_obs.Metrics.add "encode.values_tokenized" (Hashtbl.length memo.values);
  { uid = fresh_uid (); meth; traces; label; target_ids; var_name_ids }

(** Register every token of [blended] (and the name's sub-tokens) into a
    building vocabulary; call over the training split before freezing.
    Each statement head, variable name and value of the method is
    tokenized once ({!Encode.register_blended}). *)
let register_example vocab (blended : Blended.t list) label =
  let seen = Encode.new_seen () in
  List.iter (Encode.register_blended seen vocab) blended;
  Liger_obs.Metrics.add "encode.values_tokenized" (Hashtbl.length seen.Encode.values);
  match label with
  | Name name -> List.iter (fun t -> ignore (Vocab.id vocab t)) (Subtoken.split name)
  | Class _ -> ()

(* ---------------- run-time trace selection ---------------- *)

(** A view selecting how much of an encoded example a model may see: the
    down-sampling experiments shrink these two knobs. *)
type view = { n_paths : int; n_concrete : int }

let full_view = { n_paths = max_int; n_concrete = max_int }

let select_traces view (ex : enc_example) =
  let n = min (Array.length ex.traces) (max 1 view.n_paths) in
  Array.sub ex.traces 0 n

let select_concrete view (tr : enc_trace) = min tr.n_concrete (max 1 view.n_concrete)

(** Total concrete executions a view exposes for an example (Figures 6/7's
    x-axis bookkeeping). *)
let executions_in_view view ex =
  Array.fold_left
    (fun acc tr -> acc + select_concrete view tr)
    0 (select_traces view ex)
