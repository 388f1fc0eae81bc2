(** Line, branch and path coverage bookkeeping.

    The data-reliance experiments (§6.1.2) manipulate two coverage notions:
    {e path coverage} (how many distinct symbolic traces the inputs exercise)
    and {e line coverage} (which source lines any trace touches).  This
    module measures both over sets of traces. *)

open Liger_lang

type t = {
  total_lines : int;
  covered_lines : int;
  n_paths : int;
  n_executions : int;
}

let lines_of_blended (b : Blended.t) = b.Blended.lines

(** Coverage of a set of blended traces w.r.t. a method. *)
let of_blended (meth : Ast.meth) (bs : Blended.t list) =
  let all = Ast.all_lines meth in
  let covered =
    bs |> List.concat_map lines_of_blended |> List.sort_uniq compare
  in
  {
    total_lines = List.length all;
    covered_lines = List.length covered;
    n_paths = List.length bs;
    n_executions = Blended.total_executions bs;
  }

let line_fraction c =
  if c.total_lines = 0 then 1.0
  else float_of_int c.covered_lines /. float_of_int c.total_lines

(** Does [bs] cover every line that [reference] covers?  The invariant the
    paper preserves while removing symbolic traces. *)
let preserves_lines ~reference bs =
  let ref_lines =
    reference |> List.concat_map lines_of_blended |> List.sort_uniq compare
  in
  let lines = bs |> List.concat_map lines_of_blended |> List.sort_uniq compare in
  List.for_all (fun l -> List.mem l lines) ref_lines
