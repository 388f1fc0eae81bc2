(** A small search-based constraint solver.

    Finds concrete assignments for the integer/boolean inputs of a path
    condition by minimizing the classic {e branch distance} objective
    (Korel's alternating variable method): random restarts followed by
    pattern-step hill climbing per variable.  Not complete — but over the
    bounded integer domains our corpus uses it solves the conditions bounded
    symbolic execution produces almost always, which is all a test generator
    needs (unsolved paths are simply not covered, as with any SBST tool).

    {b Compiled, incremental scoring.}  [solve] compiles the path condition
    once, in time linear in its size: the model is an [int array] (booleans
    as 0/1), each [Input] resolves to an index into it, and each constraint
    becomes a closure computing its branch distance.  Every constraint's
    current distance is kept; a move of variable [i] re-scores only the
    constraints that mention [i], and the objective is then re-summed over
    all constraints in path-condition order.  This float scoring is the
    only scoring done in OCaml.

    {b Tabulated single-input objective.}  A failed search runs the whole
    budget.  When its condition reads one bound input, the objective is a
    pure function of that input's value (the same constraints summed in
    [pc] order; every other constraint is constant), so the search keeps
    it in a table indexed by the value: 2 entries for a bool, one per
    value of the fixed domain [int_min]..[int_max] (65) for an int, each
    filled on first use by a float scoring and returned on every later
    one.  A move of a variable the condition does not read returns the
    current entry.

    {b Integer kernel.}  A condition over several inputs whose constraints
    all compare two int inputs, or an int input and an int constant
    (possibly under [Not]), whose constants lie within ±2^30 and which has
    fewer than 2^20 constraints, compiles to a flat [int] array instead,
    with no closure.  Each comparison is then one of three integer
    distances of [t = x - y + c] ([max 0 t], [|t|], or 1 when [t = 0]),
    and the objective is their [int] sum.  Models stay in the domain, well
    inside the bound, so every distance is at most 2^31 + 1 and every
    partial sum below 2^52, all exactly representable: [float_of_int] of
    the objective is the float the float scoring returns.

    {b The search in C.}  [solve] runs the [Table] and [Ints] searches in
    [search_stubs.c] and [search], the OCaml loop, for [Floats], whose
    constraints are OCaml closures a C loop would call once per move.  The
    C loop reads the problem (kinds, dependency lists, [code], table) in
    place and allocates nothing on the OCaml heap.  It steps the
    xorshift128+ state held in the [Rng.t] bytes and writes it back,
    drawing exactly what [Rng.int], [Rng.int_range], [Rng.bool] and
    [Rng.coin] draw, in the same order, with the same restarts, steps,
    deltas, clamps and tie coins.  The [Ints] loop owns the integer
    scoring: it keeps each constraint's distance in a buffer of its own
    and compares objectives as [int]s, exact by the bounds above.  A
    missing [Table] entry is filled by [fill], one OCaml call per entry
    (at most 65 per solve), which stores the float scoring in the
    kernel's own table.

    {b The reference.}  [float_problem] compiles a condition to the
    [Floats] kernel whatever its shape, and [search] over it is what both
    C loops are tested against.  A table entry is the float scoring of a
    model that reads the same value, and an int objective is
    [float_of_int] of the float sum, so both loops compare the same values
    as the reference, tie where it ties and draw what it draws:
    [test_symexec] checks the model, the next draw and [evals].  Only
    [computed] differs, on [Table], where it counts the entries filled.

    {b Bitwise contract.}  The branch distance below is the one the
    interpreted definition gives — [Symval.eval] over an association-list
    model, a leaf's [Interp.Runtime_error] scoring [big_penalty] — and the
    sum adds the same floats in the same order, or, in the integer kernel,
    the same integers exactly, so every objective value has the same bits.
    The search draws the same RNG values in the same order, and equal
    scores (which draw a coin) tie exactly where they did: the coin is
    [Rng.coin], the sign bit of the draw [bernoulli 0.5] made.  A change
    here must keep [solve]'s results, and with them the corpus,
    bit for bit; [test_symexec]'s pinned digests check this. *)

open Liger_lang
open Liger_tensor

(* The domain of every int input, [int_min] to [int_max]; each search
   makes [restarts] random starts of at most [steps] pattern steps. *)
let int_min = -32
let int_max = 32
let restarts = 12
let steps = 200

let big_penalty = 1e9

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* A term compiled over the int model.  The model fixes every input's type,
   so a term's static type decides its evaluator: [CInt]/[CBool] closures
   can only raise [Interp.Runtime_error] for a zero divisor, and [CDyn]
   closures follow [Symval.eval] step for step, type errors included. *)
type term =
  | CInt of (int array -> int)
  | CBool of (int array -> bool)
  | CDyn of (int array -> Value.t)

let division_by_zero = Interp.Runtime_error "division by zero"
let modulo_by_zero = Interp.Runtime_error "modulo by zero"

let to_value = function
  | CInt f -> fun m -> Value.VInt (f m)
  | CBool f -> fun m -> Value.VBool (f m)
  | CDyn f -> f

(* [slot x] is the model index of input [x], or -1 if it is unbound;
   [kinds.(i)] is the type of input [i]. *)
let rec compile slot kinds (t : Symval.t) =
  match t with
  | Symval.Const (Value.VInt n) -> CInt (fun _ -> n)
  | Symval.Const (Value.VBool b) -> CBool (fun _ -> b)
  | Symval.Const v -> CDyn (fun _ -> v)
  | Symval.Input x -> (
      let i = slot x in
      if i < 0 then CDyn (fun _ -> raise (Interp.Runtime_error ("unbound symbolic input " ^ x)))
      else if kinds.(i) = Ast.Tbool then CBool (fun m -> m.(i) <> 0)
      else CInt (fun m -> m.(i)))
  | Symval.Binop (op, a, b) -> (
      match (op, compile slot kinds a, compile slot kinds b) with
      | Ast.Add, CInt f, CInt g -> CInt (fun m -> f m + g m)
      | Ast.Sub, CInt f, CInt g -> CInt (fun m -> f m - g m)
      | Ast.Mul, CInt f, CInt g -> CInt (fun m -> f m * g m)
      | Ast.Div, CInt f, CInt g ->
          CInt (fun m -> let x = f m and y = g m in if y = 0 then raise division_by_zero else x / y)
      | Ast.Mod, CInt f, CInt g ->
          CInt (fun m -> let x = f m and y = g m in if y = 0 then raise modulo_by_zero else x mod y)
      | Ast.Lt, CInt f, CInt g -> CBool (fun m -> f m < g m)
      | Ast.Le, CInt f, CInt g -> CBool (fun m -> f m <= g m)
      | Ast.Gt, CInt f, CInt g -> CBool (fun m -> f m > g m)
      | Ast.Ge, CInt f, CInt g -> CBool (fun m -> f m >= g m)
      | Ast.Eq, CInt f, CInt g -> CBool (fun m -> f m = g m)
      | Ast.Ne, CInt f, CInt g -> CBool (fun m -> f m <> g m)
      | Ast.And, CBool f, CBool g -> CBool (fun m -> f m && g m)
      | Ast.Or, CBool f, CBool g -> CBool (fun m -> f m || g m)
      | _, ca, cb -> (
          let va = to_value ca and vb = to_value cb in
          (* [Symval.eval] short-circuits [And]/[Or] without checking that
             the right operand is a boolean *)
          match op with
          | Ast.And -> CDyn (fun m -> if Interp.bool_of (va m) then vb m else Value.VBool false)
          | Ast.Or -> CDyn (fun m -> if Interp.bool_of (va m) then Value.VBool true else vb m)
          | _ -> CDyn (fun m -> Interp.eval_binop op (va m) (vb m))))
  | Symval.Unop (Ast.Neg, a) -> (
      match compile slot kinds a with
      | CInt f -> CInt (fun m -> - f m)
      | c ->
          let v = to_value c in
          CInt (fun m -> - Interp.int_of (v m)))
  | Symval.Unop (Ast.Not, a) -> (
      match compile slot kinds a with
      | CBool f -> CBool (fun m -> not (f m))
      | c ->
          let v = to_value c in
          CBool (fun m -> not (Interp.bool_of (v m))))
  | Symval.Arr cells ->
      let cells = Array.map (fun c -> to_value (compile slot kinds c)) cells in
      CDyn (fun m -> Value.VArr (Array.map (fun c -> Interp.int_of (c m)) cells))
  | Symval.Obj fields ->
      let fields = Array.map (fun (n, v) -> (n, to_value (compile slot kinds v))) fields in
      CDyn (fun m -> Value.VObj (Array.map (fun (n, c) -> (n, c m)) fields))

(* [Float.max 0.0 v], inlined: the same float for every [v], NaN included *)
let[@inline] pos v = if v > 0.0 then v else if Float.is_nan v then v else 0.0

(* Distance to making the int comparison [x op y] evaluate to [want]. *)
let[@inline] int_distance op ~want x y =
  let fx = float_of_int x and fy = float_of_int y in
  match (op, want) with
  | Ast.Lt, true -> pos (fx -. fy +. 1.0)
  | Ast.Lt, false -> pos (fy -. fx)
  | Ast.Le, true -> pos (fx -. fy)
  | Ast.Le, false -> pos (fy -. fx +. 1.0)
  | Ast.Gt, true -> pos (fy -. fx +. 1.0)
  | Ast.Gt, false -> pos (fx -. fy)
  | Ast.Ge, true -> pos (fy -. fx)
  | Ast.Ge, false -> pos (fx -. fy +. 1.0)
  | Ast.Eq, true | Ast.Ne, false -> Float.abs (float_of_int (x - y))
  | Ast.Eq, false | Ast.Ne, true -> if x = y then 1.0 else 0.0
  | _ -> invalid_arg "Solver.int_distance: not a comparison"

(* Distance to making [va op vb] evaluate to [want], for any operand values.
   Every other operator either raises or yields a non-boolean, which is
   never a satisfied condition. *)
let value_distance op ~want va vb =
  match (op, va, vb) with
  | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), Value.VInt x, Value.VInt y ->
      int_distance op ~want x y
  | (Ast.Eq | Ast.Ne), _, _ ->
      if Value.equal va vb = (want = (op = Ast.Eq)) then 0.0 else 1.0
  | _ -> big_penalty

(* [Stdlib.min] on floats, without the polymorphic compare *)
let fmin (x : float) y = if x <= y then x else y

(** The branch distance of [c] from evaluating to [want], compiled: 0 iff
    satisfied.  Conjunctions and disjunctions recurse (sum / min); every
    other node is a leaf, where a runtime error scores [big_penalty]. *)
let rec distance slot kinds ~want (c : Symval.t) : int array -> float =
  match c with
  | Symval.Const (Value.VBool b) ->
      let d = if b = want then 0.0 else big_penalty in
      fun _ -> d
  | Symval.Unop (Ast.Not, a) -> distance slot kinds ~want:(not want) a
  | Symval.Binop (((Ast.And | Ast.Or) as op), a, b) ->
      let da = distance slot kinds ~want a and db = distance slot kinds ~want b in
      if want = (op = Ast.And) then fun m -> da m +. db m else fun m -> fmin (da m) (db m)
  | Symval.Binop (op, a, b) -> (
      match (op, compile slot kinds a, compile slot kinds b) with
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), CInt f, CInt g ->
          fun m ->
            (try int_distance op ~want (f m) (g m)
             with Interp.Runtime_error _ -> big_penalty)
      | _, ca, cb ->
          let va = to_value ca and vb = to_value cb in
          fun m ->
            (try value_distance op ~want (va m) (vb m)
             with Interp.Runtime_error _ -> big_penalty))
  | _ -> (
      match compile slot kinds c with
      | CBool f ->
          fun m ->
            (try if f m = want then 0.0 else 1.0 with Interp.Runtime_error _ -> big_penalty)
      | CInt _ -> fun _ -> big_penalty
      | CDyn f ->
          fun m ->
            (try match f m with Value.VBool b -> if b = want then 0.0 else 1.0 | _ -> big_penalty
             with Interp.Runtime_error _ -> big_penalty))

(* ------------------------------------------------------------------ *)
(* Integer kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* The bounds within which int scoring is exact (see the header): every
   constant within ±[int_bound], as every model value of the domain is,
   and fewer than [max_int_constraints] constraints. *)
let int_bound = 1 lsl 30
let max_int_constraints = 1 lsl 20
let[@inline] within n = -int_bound <= n && n <= int_bound

(* The constraint under [c]'s [Not]s, and the outcome [c] wants of it *)
let rec cmp_core (c : Symval.t) =
  match c with Symval.Unop (Ast.Not, a) -> cmp_core a | _ -> c

let rec cmp_want want (c : Symval.t) =
  match c with Symval.Unop (Ast.Not, a) -> cmp_want (not want) a | _ -> want

(* What a comparison operand reads: a bound int input's model index, -1
   for an int constant ([operand_const] is its value), -2 for anything
   else *)
let operand slot kinds (t : Symval.t) =
  match t with
  | Symval.Input x ->
      let i = slot x in
      if i >= 0 && kinds.(i) <> Ast.Tbool then i else -2
  | Symval.Const (Value.VInt _) -> -1
  | _ -> -2

let operand_const (t : Symval.t) = match t with Symval.Const (Value.VInt n) -> n | _ -> 0

(* Whether [c] is, under any number of [Not]s, a comparison of two
   operands, each a bound int input or an int constant within the bound *)
let fits_ints slot kinds (c : Symval.t) =
  match cmp_core c with
  | Symval.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), a, b) ->
      operand slot kinds a >= -1 && operand slot kinds b >= -1
      && within (operand_const a) && within (operand_const b)
  | _ -> false

(* Constraint [k], one [fits_ints] accepts, as four cells of [code]:
   kind, u, v and c, so that with [t = m.(u) - m.(v) + c] its distance is
   [max 0 t] (kind 0), [|t|] (kind 1) or [t = 0 ? 1 : 0] (kind 2).  A
   constant operand reads cell [zero] of the model, which is always 0. *)
let encode slot kinds ~zero code k c =
  match cmp_core c with
  | Symval.Binop (op, a, b) ->
      let want = cmp_want true c in
      let ia = operand slot kinds a and ib = operand slot kinds b in
      let ia = if ia < 0 then zero else ia and ib = if ib < 0 then zero else ib in
      let ka = operand_const a and kb = operand_const b in
      (* [x < y] wants [max 0 (x - y + 1)], [!(x < y)] wants [max 0 (y - x)],
         and so on: [int_distance] case by case *)
      let ordered = op <> Ast.Eq && op <> Ast.Ne in
      let swap = ordered && (op = Ast.Gt || op = Ast.Ge) = want in
      let one = if ordered && (op = Ast.Lt || op = Ast.Gt) = want then 1 else 0 in
      let j = 4 * k in
      code.(j) <- (if ordered then 0 else if want = (op = Ast.Eq) then 1 else 2);
      code.(j + 1) <- (if swap then ib else ia);
      code.(j + 2) <- (if swap then ia else ib);
      code.(j + 3) <- (if swap then kb - ka else ka - kb) + one
  | _ -> invalid_arg "Solver.encode: not a comparison"

(* ------------------------------------------------------------------ *)
(* Problems                                                            *)
(* ------------------------------------------------------------------ *)

(* Float scoring, for any condition. *)
type floats = {
  scorers : (int array -> float) array;    (* per constraint, in [pc] order *)
  dist : float array;                      (* each constraint's current distance *)
  saved : float array;                     (* distances a move overwrote, for [undo] *)
}

type kernel =
  | Table of { read : int; base : int; table : float array; f : floats }
      (* a condition that reads only variable [read]: its objective by
         [read]'s value, the entry for [base] first; nan until computed *)
  | Ints of int array
      (* a condition [fits_ints] accepts throughout: 4 cells per
         constraint, see [encode] *)
  | Floats of floats

(* A path condition compiled against one variable list.  Its models have
   one cell per variable and one more, always 0, that [Ints] reads for a
   constant.  [search_stubs.c] reads [problem] and [Table] by field
   position and [kernel] by constructor tag: keep their order. *)
type problem = {
  kinds : Ast.typ array;                   (* each variable's type *)
  deps : int array array;                  (* deps.(i): constraints mentioning variable i *)
  kernel : kernel;
  mutable evals : int;                     (* objective evaluations *)
  mutable computed : int;                  (* evaluations not served from a table *)
}

(* What every kernel needs: each variable's type, the model index of
   each name (-1 if unbound), the constraints and each variable's
   dependency list. *)
let layout (vars : (string * Ast.typ) list) (pc : Path.t) =
  let n = List.length vars in
  let kinds = Array.make n Ast.Tint in
  List.iteri (fun i (_, ty) -> kinds.(i) <- ty) vars;
  (* the first binding of a name wins, as with [List.assoc_opt] *)
  let slot x =
    let rec find i = function
      | [] -> -1
      | (y, _) :: rest -> if String.equal x y then i else find (i + 1) rest
    in
    find 0 vars
  in
  let constraints = Array.of_list pc in
  let deps = Array.make n [] in
  for k = Array.length constraints - 1 downto 0 do
    List.iter
      (fun x -> let i = slot x in if i >= 0 then deps.(i) <- k :: deps.(i))
      (Symval.inputs [] constraints.(k))
  done;
  (kinds, slot, constraints, Array.map Array.of_list deps)

let float_scoring slot kinds constraints deps =
  let widest = Array.fold_left (fun w d -> max w (Array.length d)) 0 deps in
  { scorers = Array.map (distance slot kinds ~want:true) constraints;
    dist = Array.make (Array.length constraints) 0.0; saved = Array.make widest 0.0 }

(** [pc] over [vars], compiled for [solve].  A condition that reads
    exactly one variable is tabulated: the domain is small enough to
    tabulate every int input.  Any other condition is scored in ints when
    [fits_ints] accepts every constraint, and in floats otherwise. *)
let compile_problem vars pc =
  let kinds, slot, constraints, deps = layout vars pc in
  let n = Array.length kinds and m = Array.length constraints in
  let read = ref (-1) and reads = ref 0 in
  Array.iteri (fun i d -> if d <> [||] then begin read := i; incr reads end) deps;
  let read = if !reads = 1 then !read else -1 in
  let kernel =
    if read >= 0 then
      let base, size =
        if kinds.(read) = Ast.Tbool then (0, 2) else (int_min, int_max - int_min + 1)
      in
      Table { read; base; table = Array.make size Float.nan;
              f = float_scoring slot kinds constraints deps }
    else if m < max_int_constraints && Array.for_all (fits_ints slot kinds) constraints then begin
      let code = Array.make (4 * m) 0 in
      Array.iteri (encode slot kinds ~zero:n code) constraints;
      Ints code
    end
    else Floats (float_scoring slot kinds constraints deps)
  in
  { kinds; deps; kernel; evals = 0; computed = 0 }

(** [pc] over [vars], float-scored whatever its shape: the reference
    [search] runs for every kernel [compile_problem] picks. *)
let float_problem vars pc =
  let kinds, slot, constraints, deps = layout vars pc in
  { kinds; deps; kernel = Floats (float_scoring slot kinds constraints deps);
    evals = 0; computed = 0 }

let floats_of p =
  match p.kernel with
  | Floats f -> f
  | Table _ | Ints _ -> invalid_arg "Solver.search: not a Floats problem"

(* ------------------------------------------------------------------ *)
(* Float scoring                                                       *)
(* ------------------------------------------------------------------ *)

(* The objective: all current distances, summed in [pc] order. *)
let[@inline] total f =
  let s = ref 0.0 in
  for k = 0 to Array.length f.dist - 1 do
    s := !s +. f.dist.(k)
  done;
  !s

(* The objective under [model], every distance re-scored. *)
let[@inline] compute_floats f model =
  for k = 0 to Array.length f.scorers - 1 do
    f.dist.(k) <- f.scorers.(k) model
  done;
  total f

let[@inline] score_all p f model =
  p.evals <- p.evals + 1;
  p.computed <- p.computed + 1;
  compute_floats f model

(* The objective after variable [i] moved: the move's distances are
   written, and [undo p f i] restores them if the move is not kept. *)
let[@inline] try_move p f model i =
  p.evals <- p.evals + 1;
  p.computed <- p.computed + 1;
  let deps = p.deps.(i) in
  for j = 0 to Array.length deps - 1 do
    let k = deps.(j) in
    f.saved.(j) <- f.dist.(k);
    f.dist.(k) <- f.scorers.(k) model
  done;
  total f

let[@inline] undo p f i =
  let deps = p.deps.(i) in
  for j = 0 to Array.length deps - 1 do
    f.dist.(deps.(j)) <- f.saved.(j)
  done

(** The objective [solve] minimizes, float-scored, under each model in
    turn (bindings for every variable of [vars]).  A model that differs
    from the one before it in one variable only is scored incrementally
    and kept, as an accepted hill-climbing move is; any other is scored
    from scratch.  For tests. *)
let scores ~vars pc models =
  let encode model =
    Array.of_list
      (List.map
         (fun (x, _) ->
           match List.assoc x model with Value.VBool b -> Bool.to_int b | v -> Interp.int_of v)
         vars
      @ [ 0 ])
  in
  let p = float_problem vars pc in
  let f = floats_of p in
  let prev = ref None in
  List.map
    (fun m ->
      let moved =
        match !prev with
        | None -> []
        | Some pm -> List.filter (fun i -> pm.(i) <> m.(i)) (List.init (Array.length m) Fun.id)
      in
      prev := Some m;
      match moved with [ i ] -> try_move p f m i | _ -> score_all p f m)
    (List.map encode models)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let deltas = [| 1; -1; 2; -2; 4; -4; 8; -8; 16; -16 |]

(* The bindings of a solving model *)
let bindings vars model =
  List.mapi
    (fun i (x, ty) ->
      (x, match ty with Ast.Tbool -> Value.VBool (model.(i) <> 0) | _ -> Value.VInt model.(i)))
    vars

(** Random restarts of alternating-variable hill climbing over [p], a
    [Floats] problem, in OCaml: whether it finds a solving [model] (one
    cell per variable and the zero cell, filled in place).  The loop
    [solve] runs for the [Floats] kernel and, over [float_problem], the
    reference the C loops are tested against.  Raises [Invalid_argument]
    for any other kernel. *)
let search rng p model =
  let f = floats_of p in
  let kinds = p.kinds in
  let n = Array.length kinds in
  let solved = ref false in
  let attempt = ref 0 in
  while (not !solved) && !attempt < restarts do
    incr attempt;
    for i = 0 to n - 1 do
      model.(i) <-
        (match kinds.(i) with
        | Ast.Tbool -> Bool.to_int (Rng.bool rng)
        | _ -> Rng.int_range rng int_min int_max)
    done;
    let score = ref (score_all p f model) in
    let step = ref 0 in
    while !score > 0.0 && !score < big_penalty && !step < steps do
      incr step;
      (* alternating-variable pattern step *)
      let i = Rng.int rng n in
      match kinds.(i) with
      | Ast.Tbool ->
          model.(i) <- 1 - model.(i);
          let s = try_move p f model i in
          if s < !score then score := s
          else begin
            model.(i) <- 1 - model.(i);
            undo p f i
          end
      | _ ->
          let current = model.(i) in
          for d = 0 to Array.length deltas - 1 do
            let saved = model.(i) in
            model.(i) <- Int.max int_min (Int.min int_max (current + deltas.(d)));
            let s = try_move p f model i in
            (* equal-score moves are accepted half the time: coupled
               equalities create plateaus that strict descent cannot cross *)
            if s < !score || (s = !score && Rng.coin rng) then score := s
            else begin
              model.(i) <- saved;
              undo p f i
            end
          done
    done;
    if !score = 0.0 then solved := true
  done;
  !solved

(* [search], in [search_stubs.c], for an [Ints] or a [Table] problem:
   the model, draws and [evals] of [search] over the [float_problem] of
   the same condition.  The stubs read the problem's fields by position;
   the [Ast.typ] argument is [Ast.Tbool], which they compare each
   variable's kind with.  [search_ints] returns 1 or 0 for solved or not,
   and -1 when it could not allocate its buffer. *)
external search_ints : Rng.t -> Ast.typ -> problem -> int array -> int = "liger_search_ints"
[@@noalloc]

external search_table :
  Rng.t -> Ast.typ -> problem -> int array -> (kernel -> int array -> unit) -> bool
  = "liger_search_table"

(* The callback [search_table] fills a missing table entry with: the full
   float scoring of [model], stored at its value of [read]. *)
let fill kernel model =
  match kernel with
  | Table { read; base; table; f } -> table.(model.(read) - base) <- compute_floats f model
  | Ints _ | Floats _ -> invalid_arg "Solver.fill: not a table"

(** The search [solve] runs: the C loop for the [Ints] and [Table]
    kernels, [search] for [Floats]. *)
let run_search rng p model =
  match p.kernel with
  | Ints _ -> (
      match search_ints rng Ast.Tbool p model with
      | 1 -> true
      | 0 -> false
      | _ -> raise Out_of_memory)
  | Table _ -> search_table rng Ast.Tbool p model fill
  | Floats _ -> search rng p model

(** Try to find a model of [pc] over [vars] (name, type).  Returns
    bindings for every listed variable.  With telemetry on, each call adds
    to [symexec.solves], [symexec.solves_failed],
    [symexec.objective_evals] and [symexec.objective_computed] (the
    evaluations not served from a single-input table). *)
let solve rng ~(vars : (string * Ast.typ) list) (pc : Path.t) =
  let p = compile_problem vars pc in
  let result =
    if vars = [] then if Path.holds [] pc then Some [] else None
    else begin
      let model = Array.make (List.length vars + 1) 0 in
      if run_search rng p model then Some (bindings vars model) else None
    end
  in
  if Liger_obs.Metrics.enabled () then begin
    Liger_obs.Metrics.incr "symexec.solves";
    Liger_obs.Metrics.add "symexec.solves_failed" (if Option.is_none result then 1 else 0);
    Liger_obs.Metrics.add "symexec.objective_evals" p.evals;
    Liger_obs.Metrics.add "symexec.objective_computed" p.computed
  end;
  result
