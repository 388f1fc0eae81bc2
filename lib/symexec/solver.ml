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
    becomes a closure computing its branch distance — except a comparison
    of int inputs and/or int constants, possibly under [Not], which is kept
    as data ([Cmp]) and scored in place by [int_distance], with no closure
    call and no boxed float.  Every constraint's
    current distance is kept; a move of variable [i] re-scores only the
    constraints that mention [i], and the objective is then re-summed over
    all constraints in path-condition order.

    {b Tabulated single-input objective.}  A failed search runs the whole
    budget, and most of that time goes to conditions that read one bound
    input.  Such a condition's objective is a pure function of that
    input's value (the same constraints summed in [pc] order; every other
    constraint is constant), so [search] keeps it in a table indexed by
    the value: 2 entries for a bool, one per domain value for an int, each
    filled on first use by a full scoring and returned on every later one.
    A move of a variable the condition does not read returns the current
    entry.  A value outside the domain (only [scores] builds one) is scored
    each time.  A table entry is the float a scoring of the same model
    returns, so no score, tie or draw changes.

    {b Bitwise contract.}  The branch distance below is the one the
    interpreted definition gives — [Symval.eval] over an association-list
    model, a leaf's [Interp.Runtime_error] scoring [big_penalty] — and the
    sum adds the same floats in the same order, so every objective value
    has the same bits.  The search draws the same RNG values in the same
    order, and equal scores (which draw a coin) tie exactly where they did:
    the coin is [Rng.coin], the sign bit of the draw [bernoulli 0.5] made.
    A change here must keep [solve]'s results, and with them the corpus,
    bit for bit; [test_symexec]'s pinned digests check this. *)

open Liger_lang
open Liger_tensor

type domain = { int_min : int; int_max : int }

let default_domain = { int_min = -32; int_max = 32 }

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

(* [slot x] is the model index and type of input [x], if it is bound. *)
let rec compile slot (t : Symval.t) =
  match t with
  | Symval.Const (Value.VInt n) -> CInt (fun _ -> n)
  | Symval.Const (Value.VBool b) -> CBool (fun _ -> b)
  | Symval.Const v -> CDyn (fun _ -> v)
  | Symval.Input x -> (
      match slot x with
      | Some (i, Ast.Tbool) -> CBool (fun m -> m.(i) <> 0)
      | Some (i, _) -> CInt (fun m -> m.(i))
      | None -> CDyn (fun _ -> raise (Interp.Runtime_error ("unbound symbolic input " ^ x))))
  | Symval.Binop (op, a, b) -> (
      match (op, compile slot a, compile slot b) with
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
      match compile slot a with
      | CInt f -> CInt (fun m -> - f m)
      | c ->
          let v = to_value c in
          CInt (fun m -> - Interp.int_of (v m)))
  | Symval.Unop (Ast.Not, a) -> (
      match compile slot a with
      | CBool f -> CBool (fun m -> not (f m))
      | c ->
          let v = to_value c in
          CBool (fun m -> not (Interp.bool_of (v m))))
  | Symval.Arr cells ->
      let cells = Array.map (fun c -> to_value (compile slot c)) cells in
      CDyn (fun m -> Value.VArr (Array.map (fun c -> Interp.int_of (c m)) cells))
  | Symval.Obj fields ->
      let fields = Array.map (fun (n, v) -> (n, to_value (compile slot v))) fields in
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
let rec distance slot ~want (c : Symval.t) : int array -> float =
  match c with
  | Symval.Const (Value.VBool b) ->
      let d = if b = want then 0.0 else big_penalty in
      fun _ -> d
  | Symval.Unop (Ast.Not, a) -> distance slot ~want:(not want) a
  | Symval.Binop (((Ast.And | Ast.Or) as op), a, b) ->
      let da = distance slot ~want a and db = distance slot ~want b in
      if want = (op = Ast.And) then fun m -> da m +. db m else fun m -> fmin (da m) (db m)
  | Symval.Binop (op, a, b) -> (
      match (op, compile slot a, compile slot b) with
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
      match compile slot c with
      | CBool f ->
          fun m ->
            (try if f m = want then 0.0 else 1.0 with Interp.Runtime_error _ -> big_penalty)
      | CInt _ -> fun _ -> big_penalty
      | CDyn f ->
          fun m ->
            (try match f m with Value.VBool b -> if b = want then 0.0 else 1.0 | _ -> big_penalty
             with Interp.Runtime_error _ -> big_penalty))

(* A constraint's branch distance.  A comparison of int inputs and/or int
   constants (under any number of [Not]s) is kept as data and scored in
   place; any other constraint is its compiled closure. *)
type scorer =
  | Cmp of { op : Ast.binop; want : bool; a : int; ka : int; b : int; kb : int }
      (* [int_distance op ~want] of two operands: input [a] of the model,
         or the constant [ka] when [a < 0]; likewise [b] *)
  | Fn of (int array -> float)

(* [c] as a [Cmp] scoring what [distance slot ~want c] scores, if it is one *)
let rec as_cmp slot ~want (c : Symval.t) =
  let operand = function
    | Symval.Input x -> (
        match slot x with Some (i, ty) when ty <> Ast.Tbool -> Some (i, 0) | _ -> None)
    | Symval.Const (Value.VInt n) -> Some (-1, n)
    | _ -> None
  in
  match c with
  | Symval.Unop (Ast.Not, a) -> as_cmp slot ~want:(not want) a
  | Symval.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b) -> (
      match (operand a, operand b) with
      | Some (a, ka), Some (b, kb) -> Some (Cmp { op; want; a; ka; b; kb })
      | _ -> None)
  | _ -> None

let scorer slot c =
  match as_cmp slot ~want:true c with Some s -> s | None -> Fn (distance slot ~want:true c)

let[@inline] score s model =
  match s with
  | Cmp { op; want; a; ka; b; kb } ->
      int_distance op ~want
        (if a < 0 then ka else Array.unsafe_get model a)
        (if b < 0 then kb else Array.unsafe_get model b)
  | Fn f -> f model

(* ------------------------------------------------------------------ *)
(* Incremental objective                                               *)
(* ------------------------------------------------------------------ *)

(* A path condition compiled against one variable list. *)
type problem = {
  scorers : scorer array;                  (* per constraint, in [pc] order *)
  dist : float array;                      (* each constraint's current distance *)
  deps : int array array;                  (* deps.(i): constraints mentioning variable i *)
  saved : float array;                     (* distances a move overwrote, for [undo] *)
  read : int;                              (* the only variable the condition reads, or -1 *)
  base : int;                              (* the value whose objective is [table.(0)] *)
  table : float array;                     (* objective by [read]'s value; nan until computed *)
  mutable evals : int;                     (* objective evaluations *)
  mutable computed : int;                  (* evaluations not served from [table] *)
}

(* The widest int domain tabulated; a wider one keeps incremental scoring. *)
let max_table = 4096

let compile_problem ~domain (vars : (string * Ast.typ) list) (pc : Path.t) =
  let slots = Hashtbl.create 16 in
  (* the first binding of a name wins, as with [List.assoc_opt] *)
  List.iteri
    (fun i (x, ty) -> if not (Hashtbl.mem slots x) then Hashtbl.add slots x (i, ty))
    vars;
  let slot = Hashtbl.find_opt slots in
  let constraints = Array.of_list pc in
  let scorers = Array.map (scorer slot) constraints in
  let deps = Array.make (List.length vars) [] in
  for k = Array.length constraints - 1 downto 0 do
    List.iter
      (fun x -> match slot x with Some (i, _) -> deps.(i) <- k :: deps.(i) | None -> ())
      (Symval.inputs [] constraints.(k))
  done;
  let deps = Array.map Array.of_list deps in
  let width = domain.int_max - domain.int_min + 1 in
  let read, base, size =
    match List.filter (fun i -> deps.(i) <> [||]) (List.init (Array.length deps) Fun.id) with
    | [ i ] when snd (List.nth vars i) = Ast.Tbool -> (i, 0, 2)
    | [ i ] when width > 0 && width <= max_table -> (i, domain.int_min, width)
    | _ -> (-1, 0, 0)
  in
  {
    scorers;
    dist = Array.make (Array.length constraints) 0.0;
    deps;
    saved = Array.make (Array.fold_left (fun acc d -> max acc (Array.length d)) 0 deps) 0.0;
    read;
    base;
    table = Array.make size Float.nan;
    evals = 0;
    computed = 0;
  }

(* The objective: all current distances, summed in [pc] order. *)
let[@inline] total p =
  let s = ref 0.0 in
  for k = 0 to Array.length p.dist - 1 do
    s := !s +. p.dist.(k)
  done;
  !s

(* The objective under [model], every distance re-scored. *)
let[@inline] compute p model =
  p.computed <- p.computed + 1;
  for k = 0 to Array.length p.scorers - 1 do
    p.dist.(k) <- score p.scorers.(k) model
  done;
  total p

(* The objective of a condition that reads only [p.read]: its table entry,
   computed on first use. *)
let[@inline] lookup p model =
  let k = model.(p.read) - p.base in
  if k < 0 || k >= Array.length p.table then compute p model
  else begin
    if Float.is_nan p.table.(k) then p.table.(k) <- compute p model;
    p.table.(k)
  end

let[@inline] score_all p model =
  p.evals <- p.evals + 1;
  if p.read >= 0 then lookup p model else compute p model

(* The objective after variable [i] moved. *)
let[@inline] rescore p model i =
  p.evals <- p.evals + 1;
  if p.read >= 0 then lookup p model
  else begin
    p.computed <- p.computed + 1;
    let deps = p.deps.(i) in
    for j = 0 to Array.length deps - 1 do
      let k = deps.(j) in
      p.saved.(j) <- p.dist.(k);
      p.dist.(k) <- score p.scorers.(k) model
    done;
    total p
  end

(* Take back the last [rescore p _ i]; a lookup has nothing to take back. *)
let undo p i =
  if p.read < 0 then begin
    let deps = p.deps.(i) in
    for j = 0 to Array.length deps - 1 do
      p.dist.(deps.(j)) <- p.saved.(j)
    done
  end

(** The objective [solve] minimizes, under each model in turn (bindings for
    every variable of [vars]).  A model that differs from the one before it
    in one variable only is scored incrementally, as a hill-climbing move
    is; any other is scored from scratch.  A condition that reads one
    variable is tabulated over [default_domain], as in [solve].  For tests. *)
let scores ~vars pc models =
  let p = compile_problem ~domain:default_domain vars pc in
  let encode model =
    Array.of_list
      (List.map
         (fun (x, _) ->
           match List.assoc x model with Value.VBool b -> Bool.to_int b | v -> Interp.int_of v)
         vars)
  in
  let prev = ref None in
  List.map
    (fun model ->
      let m = encode model in
      let moved =
        match !prev with
        | None -> []
        | Some pm -> List.filter (fun i -> pm.(i) <> m.(i)) (List.init (Array.length m) Fun.id)
      in
      prev := Some m;
      match moved with [ i ] -> rescore p m i | _ -> score_all p m)
    models

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let deltas = [| 1; -1; 2; -2; 4; -4; 8; -8; 16; -16 |]

let search ~domain ~restarts ~steps rng vars p =
  let kinds = Array.of_list (List.map snd vars) in
  let n = Array.length kinds in
  let model = Array.make n 0 in
  let solved = ref false in
  let attempt = ref 0 in
  while (not !solved) && !attempt < restarts do
    incr attempt;
    for i = 0 to n - 1 do
      model.(i) <-
        (match kinds.(i) with
        | Ast.Tbool -> Bool.to_int (Rng.bool rng)
        | _ -> Rng.int_range rng domain.int_min domain.int_max)
    done;
    let score = ref (score_all p model) in
    let step = ref 0 in
    while !score > 0.0 && !score < big_penalty && !step < steps do
      incr step;
      (* alternating-variable pattern step *)
      let i = Rng.int rng n in
      match kinds.(i) with
      | Ast.Tbool ->
          model.(i) <- 1 - model.(i);
          let s = rescore p model i in
          if s < !score then score := s
          else begin
            model.(i) <- 1 - model.(i);
            undo p i
          end
      | _ ->
          let current = model.(i) in
          for d = 0 to Array.length deltas - 1 do
            let saved = model.(i) in
            model.(i) <- Int.max domain.int_min (Int.min domain.int_max (current + deltas.(d)));
            let s = rescore p model i in
            (* equal-score moves are accepted half the time: coupled
               equalities create plateaus that strict descent cannot cross *)
            if s < !score || (s = !score && Rng.coin rng) then score := s
            else begin
              model.(i) <- saved;
              undo p i
            end
          done
    done;
    if !score = 0.0 then solved := true
  done;
  if !solved then
    Some
      (List.mapi
         (fun i (x, ty) ->
           (x, match ty with Ast.Tbool -> Value.VBool (model.(i) <> 0) | _ -> Value.VInt model.(i)))
         vars)
  else None

(** Try to find a model of [pc] over [vars] (name, type).  Returns
    bindings for every listed variable.  With telemetry on, each call adds
    to [symexec.solves], [symexec.solves_failed],
    [symexec.objective_evals] and [symexec.objective_computed] (the
    evaluations not served from a single-input table). *)
let solve ?(domain = default_domain) ?(restarts = 12) ?(steps = 200) rng
    ~(vars : (string * Ast.typ) list) (pc : Path.t) =
  let p = compile_problem ~domain vars pc in
  let result =
    if vars = [] then if Path.holds [] pc then Some [] else None
    else search ~domain ~restarts ~steps rng vars p
  in
  if Liger_obs.Metrics.enabled () then begin
    Liger_obs.Metrics.incr "symexec.solves";
    Liger_obs.Metrics.add "symexec.solves_failed" (if Option.is_none result then 1 else 0);
    Liger_obs.Metrics.add "symexec.objective_evals" p.evals;
    Liger_obs.Metrics.add "symexec.objective_computed" p.computed
  end;
  result
