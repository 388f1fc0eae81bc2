(** Execution traces and their two projections (Definitions 2.1–2.3).

    An execution trace π is the sequence of (statement, post-state) steps an
    input induces; its {e symbolic trace} σ is the statement projection and
    its {e state trace} ε is the state projection.  Two executions follow the
    same program path iff their symbolic signatures — statement ids plus
    branch outcomes — are equal; this is the grouping key for blended
    traces.

    Memory: stored steps are truncated to [keep_steps] (model encoders cap
    traces far below that anyway), and only the stored steps' states are
    copied out of the interpreter, but path identity and line coverage are
    computed over the {e full} execution: the path is identified by a rolling
    hash of the complete signature plus its length, and the covered lines
    are accumulated during execution.  [prepare] compiles a method and
    builds its statement-to-line table once, for any number of [run]s. *)

open Liger_lang

type t = {
  input : Value.t list;
  outcome : Interp.outcome;
  steps : Interp.step list;  (* first [keep_steps] steps only *)
  n_steps : int;             (* full execution length *)
  sig_hash : int;            (* hash of the full symbolic signature *)
  lines : int list;          (* full line coverage, sorted *)
}

let combine_hash h sid branch =
  let b = match branch with None -> 0 | Some false -> 1 | Some true -> 2 in
  (h * 1000003) lxor ((sid * 3) + b) land max_int

(** A method ready to run many times: compiled once, with its statements'
    ids sorted and each mapped to an index into its distinct lines. *)
type prepared = {
  code : Interp.compiled;
  sids : int array;        (* sorted, distinct *)
  line_ix : int array;     (* line_ix.(k): index in [line_vals] of [sids.(k)]'s line *)
  line_vals : int array;   (* the method's distinct lines, sorted *)
}

(* The position of [x] in the sorted array [a], or -1. *)
let rec find a x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let y = Array.unsafe_get a mid in
    if y = x then mid else if y < x then find a x (mid + 1) hi else find a x lo mid

let prepare (meth : Ast.meth) =
  let line_of = Hashtbl.create 64 in
  Ast.iter_stmts (fun s -> Hashtbl.replace line_of s.Ast.sid s.Ast.line) meth.Ast.body;
  let by_sid = List.sort compare (Hashtbl.fold (fun sid line acc -> (sid, line) :: acc) line_of []) in
  let line_vals = Array.of_list (List.sort_uniq compare (List.map snd by_sid)) in
  let n = Array.length line_vals in
  {
    code = Interp.compile meth;
    sids = Array.of_list (List.map fst by_sid);
    line_ix = Array.of_list (List.map (fun (_, line) -> find line_vals line 0 n) by_sid);
    line_vals;
  }

(** Run a prepared method on [input] and record its execution trace.  Only
    the first [keep_steps] steps' states are copied. *)
let run ?fuel ?(keep_steps = 192) p input =
  let kept = ref [] in
  let n = ref 0 in
  let h = ref 0 in
  let covered = Array.make (Array.length p.line_vals) false in
  let on_step sid branch copy =
    if !n < keep_steps then
      kept := { Interp.step_sid = sid; step_branch = branch; step_env = copy () } :: !kept;
    incr n;
    h := combine_hash !h sid branch;
    let k = find p.sids sid 0 (Array.length p.sids) in
    if k >= 0 then Array.unsafe_set covered (Array.unsafe_get p.line_ix k) true
  in
  let outcome = Interp.exec ?fuel ~on_step p.code input in
  let lines = ref [] in
  for k = Array.length covered - 1 downto 0 do
    if covered.(k) then lines := p.line_vals.(k) :: !lines
  done;
  { input; outcome; steps = List.rev !kept; n_steps = !n; sig_hash = !h; lines = !lines }

(** Run [meth] on [input] and record its execution trace. *)
let collect ?fuel ?keep_steps meth input = run ?fuel ?keep_steps (prepare meth) input

let ok t = match t.outcome with Interp.Returned _ -> true | _ -> false

let length t = t.n_steps

(** The (truncated) symbolic signature: statement ids with branch outcomes.
    Definition 2.2's σ is recovered from this by resolving ids against the
    method body.  Full-path identity is [(sig_hash, n_steps)]. *)
let path_signature t =
  List.map (fun s -> (s.Interp.step_sid, s.Interp.step_branch)) t.steps

(** A key identifying the complete program path. *)
let path_key t = (t.sig_hash, t.n_steps)

(** Definition 2.3's state trace ε: the sequence of program states. *)
let state_trace t = List.map (fun s -> s.Interp.step_env) t.steps

(** Distinct source lines exercised over the whole execution. *)
let lines_covered (_meth : Ast.meth) t = t.lines

(** Pretty-print an execution trace in the style of Figure 2: one line per
    step showing the full program state. *)
let to_display (meth : Ast.meth) t =
  let by_sid = Hashtbl.create 64 in
  Ast.iter_stmts (fun s -> Hashtbl.replace by_sid s.Ast.sid s) meth.Ast.body;
  let buf = Buffer.create 256 in
  List.iter
    (fun (step : Interp.step) ->
      let stmt_str =
        match Hashtbl.find_opt by_sid step.Interp.step_sid with
        | Some s -> Pretty.stmt_head_to_string s
        | None -> "?"
      in
      let branch =
        match step.Interp.step_branch with
        | Some true -> " [taken]"
        | Some false -> " [not taken]"
        | None -> ""
      in
      let state =
        String.concat "; "
          (List.map
             (fun (x, v) ->
               Printf.sprintf "%s:%s" x
                 (match v with Some v -> Value.to_display v | None -> "⊥"))
             step.Interp.step_env)
      in
      Buffer.add_string buf (Printf.sprintf "%-30s%s  {%s}\n" stmt_str branch state))
    t.steps;
  if t.n_steps > List.length t.steps then
    Buffer.add_string buf
      (Printf.sprintf "... (%d further steps not stored)\n"
         (t.n_steps - List.length t.steps));
  Buffer.contents buf
