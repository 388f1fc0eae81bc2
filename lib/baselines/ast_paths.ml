(** Leaf-to-leaf AST path extraction, the input representation of code2vec
    and code2seq.

    A path context is a pair of terminal tokens plus the sequence of AST
    node types connecting them through their lowest common ancestor, with
    up/down direction markers.  Long paths are discarded and the quadratic
    set of pairs is sampled down deterministically. *)

open Liger_trace
open Liger_tensor

type context = {
  left : string;          (* terminal token *)
  path : string list;     (* interior node types, "^"-marked going up *)
  right : string;
}

(* root-to-leaf paths: (interior labels from root, leaf token) *)
let leaves_with_paths tree =
  let acc = ref [] in
  let rec go prefix = function
    | Encode.Leaf tok -> acc := (List.rev prefix, tok) :: !acc
    | Encode.Node (label, children) -> List.iter (go (label :: prefix)) children
  in
  go [] tree;
  List.rev !acc

let rec strip_common a b =
  match (a, b) with
  | x :: a', y :: b' when x = y -> strip_common a' b'
  | _ -> (a, b)

let context_of (pa, la) (pb, lb) =
  let up, down = strip_common pa pb in
  let path = List.rev_map (fun l -> "^" ^ l) up @ down in
  { left = la; path; right = lb }

let max_contexts = 60
let max_len = 9
let max_leaves = 40

(** Extract up to [max_contexts] path contexts, each at most [max_len]
    interior nodes long, between at most [max_leaves] sampled leaves.
    Deterministic given [rng]. *)
let extract rng tree =
  let leaves = Array.of_list (leaves_with_paths tree) in
  let leaves =
    if Array.length leaves <= max_leaves then leaves
    else Rng.sample_without_replacement rng max_leaves leaves
  in
  let n = Array.length leaves in
  let all = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = context_of leaves.(i) leaves.(j) in
      if List.length c.path <= max_len then all := c :: !all
    done
  done;
  let all = Array.of_list !all in
  if Array.length all <= max_contexts then Array.to_list all
  else Array.to_list (Rng.sample_without_replacement rng max_contexts all)

(** Single-token rendering of a path (code2vec hashes whole paths). *)
let path_token c = String.concat "|" c.path
