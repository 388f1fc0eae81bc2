(** The differential oracle battery.

    Each oracle takes a seed (all randomness is recreated from it, so a
    verdict is a pure function of [(seed, program)] — which is what makes
    shrinking and replay deterministic) and a generated well-typed method,
    and returns {!Pass}, {!Fail} or {!Skip}.  The seven oracles:

    1. [roundtrip]   — pretty-print → lex/parse → AST equality;
    2. [soundness]   — well-typed programs never raise interpreter
                       type-confusion errors on random inputs;
    3. [symexec]     — a solved symbolic path replayed concretely follows
                       the same (sid, branch) signature and returns the
                       value the symbolic engine predicted;
    4. [analysis]    — constant folding preserves outcome classes and
                       return values; the return-value slicer preserves
                       returned values;
    5. [autodiff]    — backprop gradients match central finite differences
                       on randomly shaped, multi-lane model fragments
                       (ignores the program: the random shapes come from
                       the seed);
    6. [absint]      — every concrete state observed by the interpreter
                       lies inside the abstract interpreter's interval ×
                       parity envelope at that statement;
    7. [determinism] — the jobs=1 and jobs=N parallel pipelines produce
                       identical per-method testgen summaries (batch-level:
                       it maps a whole chunk of programs over the pool). *)

open Liger_lang
open Liger_tensor
open Liger_symexec
open Liger_testgen
open Liger_trace
open Liger_nn
open Liger_analysis
module Parallel = Liger_parallel.Parallel

type verdict = Pass | Fail of string | Skip of string

type kind =
  | Per_prog of (seed:int -> Ast.meth -> verdict)
  | Per_batch of (seed:int -> Ast.meth array -> (int * string) list)
      (* failing (index, message) pairs over a chunk of programs *)

type t = { name : string; doc : string; kind : kind }

(* ------------------------------------------------------------------ *)
(* 1. pretty-printer / parser roundtrip                                 *)
(* ------------------------------------------------------------------ *)

(* ids and lines are synthetic; a reparse can't reproduce them *)
let strip_ids =
  Ast.map_meth ~fexpr:Fun.id ~fstmt:(fun s -> { s with Ast.sid = 0; Ast.line = 0 })

(* [- (Int n)] and [Int (-n)] print identically, so compare modulo the
   folding the parser itself performs on negative literals *)
let norm_neg =
  Ast.map_meth ~fstmt:Fun.id ~fexpr:(function
    | Ast.Unop (Ast.Neg, Ast.Int n) -> Ast.Int (-n)
    | e -> e)

let canon m = strip_ids (norm_neg m)

let check_roundtrip ~seed:_ (m : Ast.meth) =
  let src = Pretty.meth_to_string m in
  match Parser.method_of_string src with
  | exception e -> Fail ("reparse failed: " ^ Printexc.to_string e)
  | m' ->
      if Ast.equal_meth (canon m) (canon m') then Pass
      else Fail "pretty-print/parse roundtrip changed the AST"

(* ------------------------------------------------------------------ *)
(* 2. typecheck soundness under the interpreter                         *)
(* ------------------------------------------------------------------ *)

(* The interpreter's dynamic type errors, as opposed to its legitimate
   runtime faults (division by zero, bad index, builtin range errors...).
   A well-typed program must never produce one of these. *)
let is_type_confusion msg =
  List.exists
    (fun prefix -> String.length msg >= String.length prefix
                   && String.sub msg 0 (String.length prefix) = prefix)
    [ "expected "; "type error"; "unbound variable"; "no field";
      "length of non-sequence"; "unknown builtin"; "arity mismatch" ]

let soundness_runs = 8

let check_soundness ~seed (m : Ast.meth) =
  let rng = Rng.create seed in
  let pool = Randgen.create_pool () in
  let rec go i =
    if i >= soundness_runs then Pass
    else
      let args = Randgen.args ~pool rng m in
      match Interp.run ~fuel:4000 m args with
      | Interp.Crashed msg when is_type_confusion msg ->
          Fail
            (Printf.sprintf "type confusion %S on args [%s]" msg
               (String.concat "; " (List.map Value.to_display args)))
      | _ ->
          List.iter (Randgen.remember pool) args;
          go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* 3. symbolic path replay vs. concrete ground truth                    *)
(* ------------------------------------------------------------------ *)

let symexec_config = { Symexec.max_paths = 24; max_steps = 300; max_unrolls = 12 }
let symexec_replays = 4  (* solved paths replayed per program *)

let sig_to_string s =
  String.concat ","
    (List.map
       (fun (sid, b) ->
         match b with
         | None -> string_of_int sid
         | Some b -> Printf.sprintf "%d%c" sid (if b then 'T' else 'F'))
       s)

let check_symexec ~seed (m : Ast.meth) =
  let rng = Rng.create seed in
  let shape = Symexec.shape_of_params m.Ast.params in
  let vars = Symexec.shape_inputs m shape in
  let results = Symexec.explore ~config:symexec_config m ~shape in
  let checked = ref 0 in
  let rec go = function
    | [] -> if !checked = 0 then Skip "no solvable returning path" else Pass
    | r :: rest -> (
        match r.Symexec.outcome with
        | Symexec.Sym_aborted _ -> go rest
        | Symexec.Sym_returned sym_ret -> (
            if !checked >= symexec_replays then Pass
            else
              match Solver.solve rng ~vars r.Symexec.pc with
              | None -> go rest
              | Some model -> (
                  match
                    ( List.map (fun (_, v) -> Symval.eval model v) shape,
                      Symval.eval model sym_ret )
                  with
                  | exception Interp.Runtime_error msg ->
                      (* the path condition should rule out crashing
                         evaluations; treat residue as a failure *)
                      Fail ("model evaluation crashed: " ^ msg)
                  | args, expected ->
                      incr checked;
                      let sg = ref [] in
                      let outcome =
                        Interp.run ~fuel:(symexec_config.Symexec.max_steps + 50)
                          ~on_step:(fun s ->
                            sg := (s.Interp.step_sid, s.Interp.step_branch) :: !sg)
                          m args
                      in
                      let concrete_sig = List.rev !sg in
                      if concrete_sig <> r.Symexec.signature then
                        Fail
                          (Printf.sprintf
                             "path signature diverged on args [%s]: symbolic [%s] vs \
                              concrete [%s]"
                             (String.concat "; " (List.map Value.to_display args))
                             (sig_to_string r.Symexec.signature)
                             (sig_to_string concrete_sig))
                      else
                        match outcome with
                        | Interp.Returned v when Value.equal v expected -> go rest
                        | Interp.Returned v ->
                            Fail
                              (Printf.sprintf "return value diverged: symbolic %s vs concrete %s"
                                 (Value.to_display expected) (Value.to_display v))
                        | Interp.Timeout -> Fail "concrete replay timed out on a bounded path"
                        | Interp.Crashed msg ->
                            Fail
                              (Printf.sprintf "concrete replay crashed (%s) on args [%s]" msg
                                 (String.concat "; " (List.map Value.to_display args))))))
  in
  go results

(* ------------------------------------------------------------------ *)
(* 4. analysis semantic preservation                                    *)
(* ------------------------------------------------------------------ *)

let analysis_runs = 6

(* Statement-level slice: keep control flow, returns and definitions of
   return-relevant variables (exactly [Slice.slice_sids]). *)
let slice_meth (m : Ast.meth) =
  let keep = Slice.slice_sids m in
  let rec go_block b =
    List.filter_map
      (fun s ->
        let node =
          match s.Ast.node with
          | Ast.If (c, b1, b2) -> Some (Ast.If (c, go_block b1, go_block b2))
          | Ast.While (c, b) -> Some (Ast.While (c, go_block b))
          | Ast.For (init, c, u, b) -> Some (Ast.For (init, c, u, go_block b))
          | n -> if List.mem s.Ast.sid keep then Some n else None
        in
        Option.map (fun node -> { s with Ast.node }) node)
      b
  in
  { m with Ast.body = go_block m.Ast.body }

let outcome_class = function
  | Interp.Returned _ -> "returned"
  | Interp.Timeout -> "timeout"
  | Interp.Crashed _ -> "crashed"

let check_analysis ~seed (m : Ast.meth) =
  let rng = Rng.create seed in
  let folded = Constprop.fold_meth m in
  let sliced = slice_meth m in
  let pool = Randgen.create_pool () in
  let rec go i =
    if i >= analysis_runs then Pass
    else
      let args = Randgen.args ~pool rng m in
      let o1 = Interp.run ~fuel:4000 m (List.map Value.snapshot args) in
      let o2 = Interp.run ~fuel:4000 folded (List.map Value.snapshot args) in
      match (o1, o2) with
      | Interp.Returned x, Interp.Returned y when not (Value.equal x y) ->
          Fail
            (Printf.sprintf "constant folding changed the return value: %s vs %s"
               (Value.to_display x) (Value.to_display y))
      | o1, o2 when outcome_class o1 <> outcome_class o2 ->
          Fail
            (Printf.sprintf "constant folding changed the outcome: %s vs %s"
               (outcome_class o1) (outcome_class o2))
      | Interp.Returned x, _ -> (
          (* slicing must preserve the returned value whenever the original
             returns; it may legitimately remove crashes/timeouts of
             sliced-away statements, so other outcome classes are free *)
          match Interp.run ~fuel:4000 sliced (List.map Value.snapshot args) with
          | Interp.Returned y when Value.equal x y ->
              List.iter (Randgen.remember pool) args;
              go (i + 1)
          | o ->
              Fail
                (Printf.sprintf "slicing changed a returned run: %s vs %s (%s)"
                   (Value.to_display x) (outcome_class o)
                   (match o with Interp.Crashed msg -> msg | _ -> "")))
      | _ ->
          List.iter (Randgen.remember pool) args;
          go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* 5. autodiff vs. central finite differences                           *)
(* ------------------------------------------------------------------ *)

(* Finite differences in float64 with eps = 1e-5 leave ~1e-6 of truncation
   and cancellation noise on O(1) values, so the default relative
   tolerance is 5e-3 — the fragments below stack several nonlinearities,
   which amplifies the noise beyond what a single layer needs (the layer
   tests pass a tighter [~tol]). *)
let fd_eps = 1e-5
let fd_tol = 5e-3

(** [grad_check ?tol store build] compares the backward gradient of every
    parameter entry in [store] with its central finite difference, where
    [build] records a 1×1 loss on a fresh tape from scratch each call.  A
    mismatch beyond [tol] relative to [1 + |numeric|] fails with the first
    offending entry.  Inputs whose gradient matters are parameters too. *)
let grad_check ?(tol = fd_tol) store build =
  let tape = Batched.tape () in
  let loss = build tape in
  Batched.backward tape loss;
  let grads =
    Param.fold store ~init:[] (fun acc p ->
        (p.Param.name, Tensor.to_array p.Param.grad) :: acc)
  in
  Param.zero_grads store;
  let eval () =
    let tape = Batched.tape () in
    let v = Batched.scalar_value (build tape) in
    Batched.discard tape;
    v
  in
  let bad = ref None in
  Param.iter store (fun p ->
      if !bad = None then
        let analytic = List.assoc p.Param.name grads in
        let value = p.Param.value in
        Array.iteri
          (fun i _ ->
            if !bad = None then begin
              let orig = Tensor.get_idx value i in
              Tensor.set_idx value i (orig +. fd_eps);
              let up = eval () in
              Tensor.set_idx value i (orig -. fd_eps);
              let down = eval () in
              Tensor.set_idx value i orig;
              let numeric = (up -. down) /. (2.0 *. fd_eps) in
              if Float.abs (analytic.(i) -. numeric) > tol *. (1.0 +. Float.abs numeric)
              then
                bad :=
                  Some
                    (Printf.sprintf "%s[%d]: analytic %.6g vs numeric %.6g" p.Param.name i
                       analytic.(i) numeric)
            end)
          analytic);
  match !bad with None -> Pass | Some msg -> Fail msg

let rand_vec rng n = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)

let rec rand_tree rng depth =
  let labels = [| "Assign"; "Binop"; "x"; "y"; "+"; "1" |] in
  let label = labels.(Rng.int rng (Array.length labels)) in
  if depth <= 0 || Rng.bernoulli rng 0.4 then Encode.Leaf label
  else
    Encode.Node (label, List.init (Rng.int_range rng 1 3) (fun _ -> rand_tree rng (depth - 1)))

(* A randomly shaped fragment touching one of the layer families, over
   1-3 lanes; recurrences get ragged lengths (masked steps), attention a
   random validity mask.  The loss is sum(y*y) over the final node, a
   1×1 scalar. *)
let check_autodiff ~seed (_ : Ast.meth) =
  let rng = Rng.create seed in
  let store = Param.create_store ~seed:(1 + (seed land 0xFFFF)) () in
  let lanes = Rng.int_range rng 1 3 in
  let d_in = Rng.int_range rng 2 4 in
  let d_h = Rng.int_range rng 2 4 in
  let steps = Rng.int_range rng 1 3 in
  let lens = Array.init lanes (fun _ -> Rng.int_range rng 1 steps) in
  let xs = List.init steps (fun _ -> rand_vec rng (lanes * d_in)) in
  let const tape ~cols a = Batched.const_arr tape ~rows:(Array.length a / cols) ~cols a in
  let padded tape =
    List.mapi
      (fun s x ->
        (const tape ~cols:d_in x, Some (Array.map (fun n -> if s < n then 1.0 else 0.0) lens)))
      xs
  in
  let scalarize tape y = Batched.sum_all tape (Batched.mul tape y y) in
  let build =
    match Rng.int rng 7 with
    | 0 ->
        let l = Linear.create store "lin" ~dim_in:d_in ~dim_out:d_h in
        let forward =
          if Rng.bool rng then Linear.forward_tanh_batch else Linear.forward_sigmoid_batch
        in
        fun tape -> scalarize tape (forward l tape (const tape ~cols:d_in (List.hd xs)))
    | 1 ->
        let cell = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "rnn" ~dim_in:d_in ~dim_hidden:d_h in
        fun tape -> scalarize tape (Rnn_cell.last_batch cell tape ~lanes (padded tape))
    | 2 ->
        let cell = Rnn_cell.create ~kind:Rnn_cell.Gru store "gru" ~dim_in:d_in ~dim_hidden:d_h in
        fun tape -> scalarize tape (Rnn_cell.last_batch cell tape ~lanes (padded tape))
    | 3 ->
        let cell = Lstm.create store "lstm" ~dim_in:d_in ~dim_hidden:d_h in
        fun tape -> scalarize tape (Lstm.last_batch cell tape ~lanes (padded tape))
    | 4 ->
        let cell = Treelstm.create store "tree" ~dim_in:d_h ~dim_hidden:d_h in
        let emb = Param.embedding store "emb" 6 d_h in
        let trees = List.init lanes (fun _ -> rand_tree rng 2) in
        let label_id = function
          | "Assign" -> 0 | "Binop" -> 1 | "x" -> 2 | "y" -> 3 | "+" -> 4 | _ -> 5
        in
        fun tape ->
          let embed labels = Batched.rows_of_param tape emb (Array.map label_id labels) in
          scalarize tape (Treelstm.embed_forest cell tape ~embed trees)
    | 5 ->
        let att = Attention.create store "att" ~dim_h:d_in ~dim_q:d_h ~dim_att:d_h in
        let k = Rng.int_range rng 1 3 in
        let q = rand_vec rng (lanes * d_h) in
        let hs = Array.init k (fun _ -> rand_vec rng (lanes * d_in)) in
        (* slot 0 is always valid, the others at random *)
        let mask = Tensor.zeros lanes k in
        for i = 0 to lanes - 1 do
          for j = 0 to k - 1 do
            if j = 0 || Rng.bool rng then Tensor.set mask i j 1.0
          done
        done;
        fun tape ->
          let q = const tape ~cols:d_h q in
          let hs = Array.map (const tape ~cols:d_in) hs in
          scalarize tape (snd (Attention.fuse_batch att tape ~q ~mask hs))
    | _ ->
        let vocab = Vocab.create () in
        List.iter (fun t -> ignore (Vocab.add vocab t)) [ "get"; "max"; "sum" ];
        Vocab.freeze vocab;
        let embedding = Embedding_layer.create store "emb" vocab ~dim:d_in in
        let dec = Decoder.create store "dec" embedding ~dim_hidden:d_h ~dim_mem:d_in in
        let k = Rng.int_range rng 1 2 in
        let mem = Array.init k (fun _ -> rand_vec rng (lanes * d_in)) in
        let prog = rand_vec rng (lanes * d_in) in
        let targets =
          Array.init lanes (fun _ -> List.init (Rng.int_range rng 1 2) (fun _ -> 4 + Rng.int rng 3))
        in
        let mask = Tensor.zeros lanes k in
        Tensor.fill mask 1.0;
        fun tape ->
          Batched.sum_all tape
            (Decoder.loss_batch dec tape
               ~memory:(Array.map (const tape ~cols:d_in) mem)
               ~memory_mask:mask ~program_embedding:(const tape ~cols:d_in prog)
               ~target_ids:targets)
  in
  grad_check store build

(* ------------------------------------------------------------------ *)
(* 6. abstract interpretation soundness                                 *)
(* ------------------------------------------------------------------ *)

(* Every concrete state the interpreter passes through must lie inside the
   abstract envelope: after executing statement [sid], each bound variable's
   value must be a member of the abstract value the interval×parity analysis
   computed for the post-state of that statement ([record] fires after the
   statement, so the right envelope is [after], not [before]).  A bound
   concrete variable that the analysis maps to ⊥ — or a concretely executed
   statement the analysis claims is unreached — is a soundness bug. *)

let absint_runs = 6

let check_absint ~seed (m : Ast.meth) =
  let r = Absint.analyze m in
  let rng = Rng.create seed in
  let pool = Randgen.create_pool () in
  let bad = ref None in
  let observe (s : Interp.step) =
    if !bad = None then
      match Cfg.node_of_sid r.Absint.cfg s.Interp.step_sid with
      | None ->
          bad :=
            Some (Printf.sprintf "executed statement #%d has no CFG node" s.Interp.step_sid)
      | Some u ->
          let env = r.Absint.after.(u) in
          List.iter
            (fun (x, v) ->
              match v with
              | None -> ()
              | Some v ->
                  if !bad = None && not (Absint.value_in (Absint.env_lookup env x) v) then
                    bad :=
                      Some
                        (Printf.sprintf "after #%d, %s = %s escapes its abstract value %s"
                           s.Interp.step_sid x (Value.to_display v)
                           (Absint.aval_to_string (Absint.env_lookup env x))))
            s.Interp.step_env
  in
  let rec go i =
    if i >= absint_runs then Pass
    else
      let args = Randgen.args ~pool rng m in
      ignore (Interp.run ~fuel:4000 ~on_step:observe m args);
      match !bad with
      | Some msg ->
          Fail
            (Printf.sprintf "%s on args [%s]" msg
               (String.concat "; " (List.map Value.to_display args)))
      | None ->
          List.iter (Randgen.remember pool) args;
          go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* 7. jobs=1 vs jobs=N pipeline determinism                             *)
(* ------------------------------------------------------------------ *)

let det_budget = { Feedback.max_attempts = 30; target_paths = 6; per_path = 2; fuel = 2000 }

(* Everything observable about one testgen run, comparable across pools. *)
let det_summary (r : Feedback.result) =
  ( r.Feedback.n_attempts,
    r.Feedback.n_crashes,
    r.Feedback.n_timeouts,
    r.Feedback.gave_up,
    List.map Exec_trace.path_key r.Feedback.traces )

let det_summary_to_string (a, c, t, g, keys) =
  Printf.sprintf "attempts=%d crashes=%d timeouts=%d gave_up=%b paths=[%s]" a c t g
    (String.concat ";" (List.map (fun (h, n) -> Printf.sprintf "%d/%d" h n) keys))

let check_determinism ~seed (meths : Ast.meth array) =
  let orig = Parallel.jobs () in
  let with_jobs n =
    Parallel.set_jobs n;
    Parallel.map_rng (Rng.create seed)
      (fun r m -> det_summary (Feedback.generate ~budget:det_budget r m))
      meths
  in
  let seq = with_jobs 1 in
  let par = with_jobs (max 2 orig) in
  Parallel.set_jobs orig;
  let failures = ref [] in
  Array.iteri
    (fun i a ->
      let b = par.(i) in
      if a <> b then
        failures :=
          ( i,
            Printf.sprintf "jobs=1 {%s} vs jobs=%d {%s}" (det_summary_to_string a)
              (max 2 orig) (det_summary_to_string b) )
          :: !failures)
    seq;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all : t list =
  [
    { name = "roundtrip"; doc = "pretty-print -> parse -> AST equality";
      kind = Per_prog check_roundtrip };
    { name = "soundness"; doc = "well-typed programs never type-confuse the interpreter";
      kind = Per_prog check_soundness };
    { name = "symexec"; doc = "solved symbolic paths replay concretely";
      kind = Per_prog check_symexec };
    { name = "analysis"; doc = "constant folding and slicing preserve behaviour";
      kind = Per_prog check_analysis };
    { name = "autodiff"; doc = "backprop matches central finite differences";
      kind = Per_prog check_autodiff };
    { name = "absint"; doc = "concrete states stay inside the abstract envelope";
      kind = Per_prog check_absint };
    { name = "determinism"; doc = "jobs=1 and jobs=N testgen summaries agree";
      kind = Per_batch check_determinism };
  ]

let find name = List.find_opt (fun o -> o.name = name) all

(** Run any oracle against a single program (batch oracles see a singleton
    chunk) — the uniform entry point shrinking and replay use. *)
let check_one (o : t) ~seed m =
  match o.kind with
  | Per_prog f -> f ~seed m
  | Per_batch f -> (
      match f ~seed [| m |] with
      | [] -> Pass
      | (_, msg) :: _ -> Fail msg)
