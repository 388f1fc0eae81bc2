(** Path conditions: conjunctions of boolean symbolic constraints. *)

type t = Symval.t list

let empty : t = []

(** Conjoin a constraint; trivially-true constraints are dropped and a
    trivially-false constraint collapses the condition to [None]
    (infeasible). *)
let add (c : Symval.t) (pc : t) : t option =
  match c with
  | Symval.Const (Liger_lang.Value.VBool true) -> Some pc
  | Symval.Const (Liger_lang.Value.VBool false) -> None
  | _ -> Some (c :: pc)

let constraints (pc : t) = List.rev pc

let length = List.length

(** Evaluate the whole condition under a concrete model. *)
let holds model (pc : t) =
  List.for_all
    (fun c ->
      try
        match Symval.eval model c with
        | Liger_lang.Value.VBool b -> b
        | _ -> false
      with Liger_lang.Interp.Runtime_error _ -> false)
    pc

let pp ppf (pc : t) =
  Fmt.pf ppf "@[<hv>%a@]" Fmt.(list ~sep:(any " &&@ ") Symval.pp) (constraints pc)

let to_string = Fmt.to_to_string pp
