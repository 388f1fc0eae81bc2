(** A similarity index over program embeddings.

    The paper's outlook (§8) is that blended embeddings enable downstream
    program-analysis tooling; the most immediate such tool is semantic
    code search: index the embeddings of a corpus and retrieve the
    programs whose embeddings are nearest to a query's.  This module
    provides that — brute-force cosine retrieval, which is exact and ample
    at laptop corpus sizes. *)

type entry = { key : string; vector : float array }

type t = { mutable entries : entry list; dim : int }

let create ~dim = { entries = []; dim }

let size t = List.length t.entries

let norm v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v)

let cosine a b =
  let dot = ref 0.0 in
  Array.iteri (fun i x -> dot := !dot +. (x *. b.(i))) a;
  !dot /. ((norm a *. norm b) +. 1e-12)

(** Register a program's embedding under [key] (e.g. the method name or a
    corpus id). *)
let add t ~key vector =
  if Array.length vector <> t.dim then invalid_arg "Embedding_index.add: dim mismatch";
  t.entries <- { key; vector = Array.copy vector } :: t.entries

(** The [k] nearest entries to [query] by cosine similarity, best first. *)
let nearest t ?(k = 5) query =
  if Array.length query <> t.dim then invalid_arg "Embedding_index.nearest: dim mismatch";
  t.entries
  |> List.map (fun e -> (cosine query e.vector, e.key))
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.filteri (fun i _ -> i < k)

(** Index every example of a corpus under its label/name using a trained
    model's program embeddings (one forward over the whole corpus). *)
let of_examples model examples ~key_of =
  if examples = [] then invalid_arg "Embedding_index.of_examples: empty";
  let exs = Array.of_list examples in
  let vectors = Liger_model.embed_programs model exs in
  let t = create ~dim:(Array.length vectors.(0)) in
  Array.iteri (fun i ex -> add t ~key:(key_of ex) vectors.(i)) exs;
  t

(** Retrieve nearest programs to a fresh example. *)
let query model t ?k ex = nearest t ?k (Liger_model.embed_program model ex)
