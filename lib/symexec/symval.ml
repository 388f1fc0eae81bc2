(** Symbolic values: expressions over the method's integer and boolean
    inputs, with constant folding.

    Array and string inputs are handled concolically — the driver picks a
    concrete shape and contents, so only scalar inputs stay symbolic.  This
    keeps the path-condition language small (linear-ish integer arithmetic
    plus booleans) while still letting the engine enumerate all control-flow
    paths that scalar inputs govern. *)

open Liger_lang

type t =
  | Const of Value.t
  | Input of string            (* a symbolic int or bool input *)
  | Binop of Ast.binop * t * t
  | Unop of Ast.unop * t
  | Arr of t array             (* array with concrete length, symbolic cells *)
  | Obj of (string * t) array

let rec pp ppf = function
  | Const v -> Fmt.string ppf (Value.to_display v)
  | Input x -> Fmt.string ppf x
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (Pretty.binop_to_string op) pp b
  | Unop (Ast.Neg, a) -> Fmt.pf ppf "(-%a)" pp a
  | Unop (Ast.Not, a) -> Fmt.pf ppf "(!%a)" pp a
  | Arr cells -> Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ", ") pp) cells
  | Obj fields ->
      Fmt.pf ppf "{%a}"
        Fmt.(array ~sep:(any "; ") (fun ppf (n, v) -> pf ppf "%s=%a" n pp v))
        fields

let to_string = Fmt.to_to_string pp

let is_const = function Const _ -> true | _ -> false

exception Not_concrete

(** Concretize a symbolic value that contains no [Input]s. *)
let rec to_value = function
  | Const v -> v
  | Input _ -> raise Not_concrete
  | Arr cells ->
      Value.VArr
        (Array.map
           (fun c -> match to_value c with Value.VInt n -> n | _ -> raise Not_concrete)
           cells)
  | Obj fields -> Value.VObj (Array.map (fun (n, v) -> (n, to_value v)) fields)
  | Binop _ | Unop _ -> raise Not_concrete

(** Smart constructors with constant folding.  Folding keeps path conditions
    short and makes most loop guards concrete once inputs are bound. *)
let binop op a b =
  match (a, b) with
  | Const va, Const vb -> (
      try Const (Interp.eval_binop op va vb)
      with Interp.Runtime_error _ -> Binop (op, a, b))
  | _ -> (
      match (op, a, b) with
      | Ast.Add, Const (Value.VInt 0), x | Ast.Add, x, Const (Value.VInt 0) -> x
      | Ast.Mul, Const (Value.VInt 1), x | Ast.Mul, x, Const (Value.VInt 1) -> x
      | Ast.And, Const (Value.VBool true), x | Ast.And, x, Const (Value.VBool true) -> x
      | (Ast.And, (Const (Value.VBool false) as f), _ | Ast.And, _, (Const (Value.VBool false) as f)) -> f
      | Ast.Or, Const (Value.VBool false), x | Ast.Or, x, Const (Value.VBool false) -> x
      | (Ast.Or, (Const (Value.VBool true) as t), _ | Ast.Or, _, (Const (Value.VBool true) as t)) -> t
      | _ -> Binop (op, a, b))

let unop op a =
  match (op, a) with
  | Ast.Neg, Const (Value.VInt n) -> Const (Value.VInt (-n))
  | Ast.Not, Const (Value.VBool b) -> Const (Value.VBool (not b))
  | Ast.Not, Unop (Ast.Not, x) -> x
  | _ -> Unop (op, a)

let not_ a = unop Ast.Not a

(** Evaluate under a model binding every [Input] to a concrete value.
    Raises [Interp.Runtime_error] on type mismatches and division by zero —
    the solver treats that as "constraint unsatisfied". *)
let rec eval model t : Value.t =
  match t with
  | Const v -> v
  | Input x -> (
      match List.assoc_opt x model with
      | Some v -> v
      | None -> raise (Interp.Runtime_error ("unbound symbolic input " ^ x)))
  | Binop (op, a, b) -> (
      (* replicate short-circuiting so division guards behave *)
      match op with
      | Ast.And ->
          if Interp.bool_of (eval model a) then eval model b else Value.VBool false
      | Ast.Or -> if Interp.bool_of (eval model a) then Value.VBool true else eval model b
      | _ -> Interp.eval_binop op (eval model a) (eval model b))
  | Unop (Ast.Neg, a) -> Value.VInt (-Interp.int_of (eval model a))
  | Unop (Ast.Not, a) -> Value.VBool (not (Interp.bool_of (eval model a)))
  | Arr cells ->
      Value.VArr (Array.map (fun c -> Interp.int_of (eval model c)) cells)
  | Obj fields -> Value.VObj (Array.map (fun (n, v) -> (n, eval model v)) fields)

(** The symbolic inputs mentioned in a term. *)
let rec inputs acc = function
  | Const _ -> acc
  | Input x -> if List.mem x acc then acc else x :: acc
  | Binop (_, a, b) -> inputs (inputs acc a) b
  | Unop (_, a) -> inputs acc a
  | Arr cells -> Array.fold_left inputs acc cells
  | Obj fields -> Array.fold_left (fun acc (_, v) -> inputs acc v) acc fields
