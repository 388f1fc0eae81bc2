(** Instrumented interpreter for MiniJava.

    [run] executes a method on concrete argument values under a fuel budget
    and invokes [on_step] after every executed statement with the statement
    id, the branch outcome (for conditions) and a deep snapshot of the
    program state — precisely the instrumentation the paper obtains by
    rewriting Java/C# sources (§6).  The sequence of [on_step] calls is an
    execution trace in the sense of Definition 2.1. *)

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

type env = {
  tbl : (string, Value.t) Hashtbl.t;
  layout : string list;  (* fixed variable order, params first *)
  mutable fuel : int;
  on_step : step -> unit;
}

let lookup env x =
  match Hashtbl.find_opt env.tbl x with
  | Some v -> v
  | None -> raise (Runtime_error ("unbound variable " ^ x))

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

let rec eval env (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int n -> Value.VInt n
  | Ast.Bool b -> Value.VBool b
  | Ast.Str s -> Value.VStr s
  | Ast.Var x -> lookup env x
  | Ast.Unop (Ast.Neg, a) -> Value.VInt (-int_of (eval env a))
  | Ast.Unop (Ast.Not, a) -> Value.VBool (not (bool_of (eval env a)))
  | Ast.Binop (Ast.And, a, b) ->
      Value.VBool (bool_of (eval env a) && bool_of (eval env b))
  | Ast.Binop (Ast.Or, a, b) ->
      Value.VBool (bool_of (eval env a) || bool_of (eval env b))
  | Ast.Binop (op, a, b) -> eval_binop op (eval env a) (eval env b)
  | Ast.Index (a, i) ->
      let arr = arr_of (eval env a) in
      let i = int_of (eval env i) in
      check_index arr i;
      Value.VInt arr.(i)
  | Ast.Field (a, f) -> (
      let v = eval env a in
      match Value.get_field v f with
      | Some x -> x
      | None -> raise (Runtime_error ("no field " ^ f ^ " in " ^ Value.to_display v)))
  | Ast.Len a -> (
      match eval env a with
      | Value.VArr arr -> Value.VInt (Array.length arr)
      | Value.VStr s -> Value.VInt (String.length s)
      | v -> raise (Runtime_error ("length of non-sequence " ^ Value.to_display v)))
  | Ast.Call (f, args) -> builtin f (List.map (eval env) args)
  | Ast.NewArray e ->
      let n = int_of (eval env e) in
      if n < 0 then raise (Runtime_error "new int[n]: negative size");
      if n > 100_000 then raise (Runtime_error "new int[n]: size too large");
      Value.VArr (Array.make n 0)
  | Ast.ArrayLit es -> Value.VArr (Array.of_list (List.map (fun e -> int_of (eval env e)) es))
  | Ast.RecordLit fs ->
      Value.VObj (Array.of_list (List.map (fun (n, e) -> (n, eval env e)) fs))

and eval_binop op a b =
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

let snapshot_env env =
  List.map
    (fun x ->
      (x, Option.map Value.snapshot (Hashtbl.find_opt env.tbl x)))
    env.layout

let record env sid branch =
  env.fuel <- env.fuel - 1;
  if env.fuel <= 0 then raise Out_of_fuel;
  env.on_step { step_sid = sid; step_branch = branch; step_env = snapshot_env env }

type signal = SNormal | SBreak | SContinue | SReturn of Value.t

let rec exec_block env block =
  match block with
  | [] -> SNormal
  | s :: rest -> (
      match exec_stmt env s with
      | SNormal -> exec_block env rest
      | other -> other)

and exec_stmt env (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Decl (_, x, e) | Ast.Assign (x, e) ->
      let v = eval env e in
      Hashtbl.replace env.tbl x v;
      record env s.Ast.sid None;
      SNormal
  | Ast.StoreIndex (x, i, e) ->
      let arr = arr_of (lookup env x) in
      let i = int_of (eval env i) in
      check_index arr i;
      arr.(i) <- int_of (eval env e);
      record env s.Ast.sid None;
      SNormal
  | Ast.StoreField (x, f, e) ->
      let v = lookup env x in
      let value = eval env e in
      if not (Value.set_field v f value) then
        raise (Runtime_error ("no field " ^ f ^ " on " ^ x));
      record env s.Ast.sid None;
      SNormal
  | Ast.If (c, then_b, else_b) ->
      let taken = bool_of (eval env c) in
      record env s.Ast.sid (Some taken);
      exec_block env (if taken then then_b else else_b)
  | Ast.While (c, body) ->
      let rec loop () =
        let taken = bool_of (eval env c) in
        record env s.Ast.sid (Some taken);
        if not taken then SNormal
        else
          match exec_block env body with
          | SNormal | SContinue -> loop ()
          | SBreak -> SNormal
          | SReturn v -> SReturn v
      in
      loop ()
  | Ast.For (init, c, update, body) ->
      let (_ : signal) = exec_stmt env init in
      let rec loop () =
        let taken = bool_of (eval env c) in
        record env s.Ast.sid (Some taken);
        if not taken then SNormal
        else
          match exec_block env body with
          | SNormal | SContinue ->
              let (_ : signal) = exec_stmt env update in
              loop ()
          | SBreak -> SNormal
          | SReturn v -> SReturn v
      in
      loop ()
  | Ast.Return e ->
      let v = eval env e in
      record env s.Ast.sid None;
      SReturn v
  | Ast.Break ->
      record env s.Ast.sid None;
      SBreak
  | Ast.Continue ->
      record env s.Ast.sid None;
      SContinue

(** Execute [meth] on [args].  [fuel] bounds the number of executed
    statements; [on_step] observes each one.  Never raises: runtime errors
    and fuel exhaustion are reified in the {!outcome}. *)
let run ?(fuel = 20_000) ?(on_step = fun _ -> ()) (meth : Ast.meth) args =
  if List.length args <> List.length meth.Ast.params then
    Crashed
      (Printf.sprintf "arity mismatch: expected %d arguments, got %d"
         (List.length meth.Ast.params) (List.length args))
  else begin
    let env =
      { tbl = Hashtbl.create 16; layout = Ast.declared_vars meth; fuel; on_step }
    in
    List.iter2
      (fun (_, name) v -> Hashtbl.replace env.tbl name (Value.snapshot v))
      meth.Ast.params args;
    try
      match exec_block env meth.Ast.body with
      | SReturn v -> Returned v
      | SNormal | SBreak | SContinue ->
          Crashed "method ended without returning a value"
    with
    | Runtime_error msg -> Crashed msg
    | Out_of_fuel -> Timeout
  end

(** Convenience wrapper that also collects the steps into a list. *)
let run_traced ?fuel meth args =
  let steps = ref [] in
  let outcome = run ?fuel ~on_step:(fun s -> steps := s :: !steps) meth args in
  (outcome, List.rev !steps)
