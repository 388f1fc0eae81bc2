(** Instrumented interpreter for MiniJava.

    [compile] resolves a method once: every variable becomes a slot of a
    [Value.t array] environment and every statement and expression a
    closure over it.  [exec] runs the compiled method on concrete argument
    values under a fuel budget and calls its observer after every executed
    statement with the statement id, the branch outcome (for conditions)
    and a function that copies the program state on demand — the
    instrumentation the paper obtains by rewriting Java/C# sources (§6).
    The sequence of observer calls is an execution trace in the sense of
    Definition 2.1; a state is copied only when the observer asks for it,
    so a run without an observer copies nothing.  A statement changes one
    or two variables, so a copy shares with the run's previous copy the
    cell of every variable that still holds the same immutable value or an
    array with the same elements (and the list tail after the last
    changed variable): each state has the values a deep copy would give.

    Evaluation order, results and crash messages are the language's
    definition: the right operand of a binary operator is evaluated before
    the left (so when both raise, the right one's error wins), builtin
    arguments and literal elements left to right. *)

type outcome =
  | Returned of Value.t
  | Timeout          (* fuel exhausted: the Randoop-style filter's "too long" *)
  | Crashed of string  (* runtime error: division by zero, bad index, ... *)

(** One executed step: which statement ran, which way a condition went
    ([None] for non-conditions), and the post-state as an assignment of
    every variable in the method's fixed layout ([None] = not yet bound,
    the paper's ⊥). *)
type step = {
  step_sid : int;
  step_branch : bool option;
  step_env : (string * Value.t option) list;
}

exception Runtime_error of string
exception Out_of_fuel

let int_of = function
  | Value.VInt n -> n
  | v -> raise (Runtime_error ("expected int, got " ^ Value.to_display v))

let bool_of = function
  | Value.VBool b -> b
  | v -> raise (Runtime_error ("expected bool, got " ^ Value.to_display v))

let arr_of = function
  | Value.VArr a -> a
  | v -> raise (Runtime_error ("expected array, got " ^ Value.to_display v))

let check_index a i =
  if i < 0 || i >= Array.length a then
    raise (Runtime_error (Printf.sprintf "index %d out of bounds (length %d)" i
                            (Array.length a)))

let builtin name args =
  match (name, args) with
  | "abs", [ Value.VInt n ] -> Value.VInt (abs n)
  | "min", [ Value.VInt a; Value.VInt b ] -> Value.VInt (min a b)
  | "max", [ Value.VInt a; Value.VInt b ] -> Value.VInt (max a b)
  | "pow", [ Value.VInt b; Value.VInt e ] ->
      if e < 0 then raise (Runtime_error "pow: negative exponent");
      let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
      Value.VInt (go 1 e)
  | "substring", [ Value.VStr s; Value.VInt start; Value.VInt len ] ->
      if start < 0 || len < 0 || start + len > String.length s then
        raise (Runtime_error "substring: out of range");
      Value.VStr (String.sub s start len)
  | "charAt", [ Value.VStr s; Value.VInt i ] ->
      if i < 0 || i >= String.length s then
        raise (Runtime_error "charAt: out of range");
      Value.VStr (String.make 1 s.[i])
  | "indexOf", [ Value.VStr s; Value.VStr sub ] ->
      let n = String.length s and m = String.length sub in
      let rec find i =
        if i + m > n then -1
        else if String.sub s i m = sub then i
        else find (i + 1)
      in
      Value.VInt (find 0)
  | "ord", [ Value.VStr s ] ->
      if String.length s <> 1 then raise (Runtime_error "ord: expected 1-char string");
      Value.VInt (Char.code s.[0])
  | "chr", [ Value.VInt n ] ->
      if n < 0 || n > 255 then raise (Runtime_error "chr: out of range");
      Value.VStr (String.make 1 (Char.chr n))
  | "toString", [ Value.VInt n ] -> Value.VStr (string_of_int n)
  | _ ->
      raise
        (Runtime_error
           (Printf.sprintf "unknown builtin %s/%d" name (List.length args)))

let eval_binop op a b =
  match (op, a, b) with
  | Ast.Add, Value.VInt x, Value.VInt y -> Value.VInt (x + y)
  | Ast.Add, Value.VStr x, Value.VStr y -> Value.VStr (x ^ y)
  | Ast.Sub, Value.VInt x, Value.VInt y -> Value.VInt (x - y)
  | Ast.Mul, Value.VInt x, Value.VInt y -> Value.VInt (x * y)
  | Ast.Div, Value.VInt _, Value.VInt 0 -> raise (Runtime_error "division by zero")
  | Ast.Div, Value.VInt x, Value.VInt y -> Value.VInt (x / y)
  | Ast.Mod, Value.VInt _, Value.VInt 0 -> raise (Runtime_error "modulo by zero")
  | Ast.Mod, Value.VInt x, Value.VInt y -> Value.VInt (x mod y)
  | Ast.Lt, Value.VInt x, Value.VInt y -> Value.VBool (x < y)
  | Ast.Le, Value.VInt x, Value.VInt y -> Value.VBool (x <= y)
  | Ast.Gt, Value.VInt x, Value.VInt y -> Value.VBool (x > y)
  | Ast.Ge, Value.VInt x, Value.VInt y -> Value.VBool (x >= y)
  | Ast.Eq, x, y -> Value.VBool (Value.equal x y)
  | Ast.Ne, x, y -> Value.VBool (not (Value.equal x y))
  | _ ->
      raise
        (Runtime_error
           (Printf.sprintf "type error: %s on %s and %s" (Pretty.binop_to_string op)
              (Value.to_display a) (Value.to_display b)))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* A variable's slot before its first assignment: the paper's ⊥.  Compared
   by physical equality; no program value is this block. *)
let unbound = Value.VStr (String.make 1 '\000')

let vtrue = Value.VBool true
let vfalse = Value.VBool false
let taken_true = Some true
let taken_false = Some false

type cexpr = Value.t array -> Value.t
type ccond = Value.t array -> bool

(* Variable slots: the fixed layout first, then any other name the body
   assigns or reads, in first-seen order. *)
type scope = { slots : (string, int) Hashtbl.t; mutable next : int }

let slot sc x =
  match Hashtbl.find_opt sc.slots x with
  | Some i -> i
  | None ->
      let i = sc.next in
      Hashtbl.add sc.slots x i;
      sc.next <- i + 1;
      i

let read sc x : cexpr =
  let i = slot sc x in
  let msg = "unbound variable " ^ x in
  fun env ->
    let v = Array.unsafe_get env i in
    if v == unbound then raise (Runtime_error msg) else v

(* A binary operator: the right operand first, then the left, then [ints]
   on two ints and [slow] (the definition, [eval_binop]) on anything else. *)
let[@inline] on_ints (ca : cexpr) (cb : cexpr) ints slow : Value.t array -> _ =
 fun env ->
  let vb = cb env in
  let va = ca env in
  match (va, vb) with Value.VInt x, Value.VInt y -> ints x y | _ -> slow va vb

(* Binary operators evaluate the right operand first (so when both raise,
   the right one's error wins); every case that is not two ints goes to
   [eval_binop], whose checks and messages are the definition. *)
let rec compile_expr sc (e : Ast.expr) : cexpr =
  match e with
  | Ast.Int n ->
      let v = Value.VInt n in
      fun _ -> v
  | Ast.Bool b ->
      let v = Value.VBool b in
      fun _ -> v
  | Ast.Str s ->
      let v = Value.VStr s in
      fun _ -> v
  | Ast.Var x -> read sc x
  | Ast.Unop (Ast.Neg, a) ->
      let ca = compile_expr sc a in
      fun env -> Value.VInt (-int_of (ca env))
  | Ast.Unop (Ast.Not, _)
  | Ast.Binop ((Ast.And | Ast.Or | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _) ->
      let c = compile_cond sc e in
      fun env -> if c env then vtrue else vfalse
  | Ast.Binop (op, a, b) -> (
      let ca = compile_expr sc a in
      let cb = compile_expr sc b in
      let slow = eval_binop op in
      match op with
      | Ast.Add -> on_ints ca cb (fun x y -> Value.VInt (x + y)) slow
      | Ast.Sub -> on_ints ca cb (fun x y -> Value.VInt (x - y)) slow
      | Ast.Mul -> on_ints ca cb (fun x y -> Value.VInt (x * y)) slow
      | _ ->
          fun env ->
            let vb = cb env in
            let va = ca env in
            slow va vb)
  | Ast.Index (a, i) ->
      let ca = compile_expr sc a and ci = compile_expr sc i in
      fun env ->
        let arr = arr_of (ca env) in
        let i = int_of (ci env) in
        check_index arr i;
        Value.VInt (Array.unsafe_get arr i)
  | Ast.Field (a, f) -> (
      let ca = compile_expr sc a in
      fun env ->
        let v = ca env in
        match Value.get_field v f with
        | Some x -> x
        | None -> raise (Runtime_error ("no field " ^ f ^ " in " ^ Value.to_display v)))
  | Ast.Len a -> (
      let ca = compile_expr sc a in
      fun env ->
        match ca env with
        | Value.VArr arr -> Value.VInt (Array.length arr)
        | Value.VStr s -> Value.VInt (String.length s)
        | v -> raise (Runtime_error ("length of non-sequence " ^ Value.to_display v)))
  | Ast.Call (f, args) ->
      let cargs = List.map (compile_expr sc) args in
      (* arguments left to right, as [List.map] evaluates them *)
      fun env -> builtin f (List.map (fun c -> c env) cargs)
  | Ast.NewArray e ->
      let ce = compile_expr sc e in
      fun env ->
        let n = int_of (ce env) in
        if n < 0 then raise (Runtime_error "new int[n]: negative size");
        if n > 100_000 then raise (Runtime_error "new int[n]: size too large");
        Value.VArr (Array.make n 0)
  | Ast.ArrayLit es ->
      let ces = List.map (compile_expr sc) es in
      fun env -> Value.VArr (Array.of_list (List.map (fun c -> int_of (c env)) ces))
  | Ast.RecordLit fs ->
      let cfs = List.map (fun (n, e) -> (n, compile_expr sc e)) fs in
      fun env -> Value.VObj (Array.of_list (List.map (fun (n, c) -> (n, c env)) cfs))

(* [compile_cond sc e env] is [bool_of (eval e)], without boxing the
   boolean when [e] is a comparison or a connective. *)
and compile_cond sc (e : Ast.expr) : ccond =
  match e with
  | Ast.Bool b -> fun _ -> b
  | Ast.Unop (Ast.Not, a) ->
      let ca = compile_cond sc a in
      fun env -> not (ca env)
  | Ast.Binop (Ast.And, a, b) ->
      let ca = compile_cond sc a and cb = compile_cond sc b in
      fun env -> ca env && cb env
  | Ast.Binop (Ast.Or, a, b) ->
      let ca = compile_cond sc a and cb = compile_cond sc b in
      fun env -> ca env || cb env
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b) -> (
      let ca = compile_expr sc a and cb = compile_expr sc b in
      let slow va vb = bool_of (eval_binop op va vb) in
      match op with
      | Ast.Lt -> on_ints ca cb (fun (x : int) y -> x < y) slow
      | Ast.Le -> on_ints ca cb (fun (x : int) y -> x <= y) slow
      | Ast.Gt -> on_ints ca cb (fun (x : int) y -> x > y) slow
      | Ast.Ge -> on_ints ca cb (fun (x : int) y -> x >= y) slow
      | Ast.Eq -> on_ints ca cb (fun (x : int) y -> x = y) slow
      | _ -> on_ints ca cb (fun (x : int) y -> x <> y) slow)
  | _ ->
      let ce = compile_expr sc e in
      fun env -> bool_of (ce env)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type state = (string * Value.t option) list

(* One run's mutable part.  [snap] copies the current state. *)
type frame = {
  vars : Value.t array;
  mutable fuel : int;
  observe : (int -> bool option -> (unit -> state) -> unit) option;
  snap : unit -> state;
}

type signal = SNormal | SBreak | SContinue | SReturn of Value.t

let record fr sid branch =
  let fuel = fr.fuel - 1 in
  fr.fuel <- fuel;
  if fuel <= 0 then raise Out_of_fuel;
  match fr.observe with None -> () | Some f -> f sid branch fr.snap

type cstmt = frame -> signal

let rec compile_block sc (block : Ast.block) : cstmt =
  match block with
  | [] -> fun _ -> SNormal
  | [ s ] -> compile_stmt sc s
  | s :: rest -> (
      let cs = compile_stmt sc s in
      let crest = compile_block sc rest in
      fun fr -> match cs fr with SNormal -> crest fr | other -> other)

and compile_stmt sc (s : Ast.stmt) : cstmt =
  let sid = s.Ast.sid in
  match s.Ast.node with
  | Ast.Decl (_, x, e) | Ast.Assign (x, e) ->
      let i = slot sc x in
      let ce = compile_expr sc e in
      fun fr ->
        Array.unsafe_set fr.vars i (ce fr.vars);
        record fr sid None;
        SNormal
  | Ast.StoreIndex (x, i, e) ->
      let cx = read sc x in
      let ci = compile_expr sc i in
      let ce = compile_expr sc e in
      fun fr ->
        let arr = arr_of (cx fr.vars) in
        let i = int_of (ci fr.vars) in
        check_index arr i;
        Array.unsafe_set arr i (int_of (ce fr.vars));
        record fr sid None;
        SNormal
  | Ast.StoreField (x, f, e) ->
      let cx = read sc x in
      let ce = compile_expr sc e in
      let msg = "no field " ^ f ^ " on " ^ x in
      fun fr ->
        let v = cx fr.vars in
        let value = ce fr.vars in
        if not (Value.set_field v f value) then raise (Runtime_error msg);
        record fr sid None;
        SNormal
  | Ast.If (c, then_b, else_b) ->
      let cc = compile_cond sc c in
      let ct = compile_block sc then_b in
      let ce = compile_block sc else_b in
      fun fr ->
        if cc fr.vars then begin
          record fr sid taken_true;
          ct fr
        end
        else begin
          record fr sid taken_false;
          ce fr
        end
  | Ast.While (c, body) ->
      let cc = compile_cond sc c in
      let cb = compile_block sc body in
      let rec loop fr =
        if cc fr.vars then begin
          record fr sid taken_true;
          match cb fr with
          | SNormal | SContinue -> loop fr
          | SBreak -> SNormal
          | SReturn _ as r -> r
        end
        else begin
          record fr sid taken_false;
          SNormal
        end
      in
      loop
  | Ast.For (init, c, update, body) ->
      let ci = compile_stmt sc init in
      let cc = compile_cond sc c in
      let cu = compile_stmt sc update in
      let cb = compile_block sc body in
      let rec loop fr =
        if cc fr.vars then begin
          record fr sid taken_true;
          match cb fr with
          | SNormal | SContinue ->
              let (_ : signal) = cu fr in
              loop fr
          | SBreak -> SNormal
          | SReturn _ as r -> r
        end
        else begin
          record fr sid taken_false;
          SNormal
        end
      in
      fun fr ->
        let (_ : signal) = ci fr in
        loop fr
  | Ast.Return e ->
      let ce = compile_expr sc e in
      fun fr ->
        let v = ce fr.vars in
        record fr sid None;
        SReturn v
  | Ast.Break ->
      fun fr ->
        record fr sid None;
        SBreak
  | Ast.Continue ->
      fun fr ->
        record fr sid None;
        SContinue

(** A method resolved once: every variable is a slot of a [Value.t array]
    and every statement a closure over it.  Build it with {!compile} and
    run it any number of times with {!exec}. *)
type compiled = {
  params : int array;              (* each parameter's slot, in order *)
  layout : (string * int) array;   (* the state's variables and their slots *)
  n_slots : int;
  body : cstmt;
}

let compile (meth : Ast.meth) =
  let sc = { slots = Hashtbl.create 16; next = 0 } in
  let layout = Array.of_list (List.map (fun x -> (x, slot sc x)) (Ast.declared_vars meth)) in
  let params = Array.of_list (List.map (fun (_, x) -> slot sc x) meth.Ast.params) in
  let body = compile_block sc meth.Ast.body in
  { params; layout; n_slots = sc.next; body }

(* A copier of one run's state, in layout order.  A slot that holds the
   block it held at the last copy, when that block is immutable (an int, a
   bool, a string, unbound) or an array whose elements still equal that
   copy's, keeps its cell of the last copy; a suffix of such slots keeps
   the last copy's list.  Nothing writes into a copied state, so sharing
   changes no value.  A record is copied every time: its fields are
   mutable and it is rare. *)
let state_copier layout vars : unit -> state =
  let n = Array.length layout in
  let seen = Array.make n unbound in
  let tails : state array = Array.make n [] in
  let copied = ref false in
  fun () ->
    let acc = ref [] and shared = ref true in
    for k = n - 1 downto 0 do
      let x, i = Array.unsafe_get layout k in
      let v = Array.unsafe_get vars i in
      let prev = tails.(k) in
      let same =
        !copied && v == seen.(k)
        &&
        match (v, prev) with
        | (Value.VInt _ | Value.VBool _ | Value.VStr _), _ -> true
        | Value.VArr a, (_, Some (Value.VArr c)) :: _ -> a = c
        | _ -> false
      in
      if not (same && !shared) then begin
        shared := false;
        let cell =
          match prev with
          | cell :: _ when same -> cell
          | _ -> (x, if v == unbound then None else Some (Value.snapshot v))
        in
        acc := cell :: !acc
      end
      else acc := prev;
      seen.(k) <- v;
      tails.(k) <- !acc
    done;
    copied := true;
    !acc

(** Execute a compiled method on [args].  [fuel] bounds the number of
    executed statements.  After each one, [on_step sid branch copy] is
    called with the statement id, the condition's outcome ([None] for
    non-conditions) and [copy], which copies the current state when
    called during that [on_step] (the state moves on afterwards).  Nothing
    is copied unless [copy] is called.  Never raises (except what
    [on_step] raises): runtime errors and fuel exhaustion are reified in
    the {!outcome}. *)
let exec ?(fuel = 20_000) ?on_step (c : compiled) args =
  if List.length args <> Array.length c.params then
    Crashed
      (Printf.sprintf "arity mismatch: expected %d arguments, got %d"
         (Array.length c.params) (List.length args))
  else begin
    let vars = Array.make c.n_slots unbound in
    List.iteri (fun k v -> vars.(c.params.(k)) <- Value.snapshot v) args;
    let fr = { vars; fuel; observe = on_step; snap = state_copier c.layout vars } in
    try
      match c.body fr with
      | SReturn v -> Returned v
      | SNormal | SBreak | SContinue -> Crashed "method ended without returning a value"
    with
    | Runtime_error msg -> Crashed msg
    | Out_of_fuel -> Timeout
  end

(** [exec] on a method compiled for this one run. *)
let run ?fuel ?on_step meth args = exec ?fuel ?on_step (compile meth) args

(** Convenience wrapper that also collects every step, state included. *)
let run_traced ?fuel meth args =
  let steps = ref [] in
  let on_step step_sid step_branch copy =
    steps := { step_sid; step_branch; step_env = copy () } :: !steps
  in
  let outcome = run ?fuel ~on_step meth args in
  (outcome, List.rev !steps)
