(** A persistent, content-addressed embedding index for nearest-neighbor
    search ([liger index] builds it offline; [liger serve] loads it).

    Each entry is (key, AST hash, embedding vector).  The hash
    ({!Ast_hash}) addresses the content: rebuilding an index over a
    corpus reuses the stored vector of every method whose normalized
    source is unchanged and re-embeds only the rest.

    On disk: [index.txt] under the index directory —

    {v
    liger-index 1
    dim <d>
    <key>\t<hash>\t<v0> <v1> ... <v_{d-1}>
    v}

    with entries sorted by (key, hash) and floats printed in round-trip
    precision, so the same corpus always serializes to the same bytes
    (the index arm of the determinism contract). *)

type entry = { key : string; hash : string; vector : float array }

type t = { dim : int; entries : entry array }

let file_name = "index.txt"

let dim t = t.dim
let size t = Array.length t.entries

let entries t = t.entries

let sorted entries =
  let arr = Array.copy entries in
  Array.sort (fun a b -> compare (a.key, a.hash) (b.key, b.hash)) arr;
  arr

let create ~dim entries = { dim; entries = sorted (Array.of_list entries) }

(* ---------------- persistence ---------------- *)

let save t ~dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir file_name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "liger-index 1\ndim %d\n" t.dim;
      Array.iter
        (fun e ->
          (* keys are method names (no tabs/newlines by construction); %.17g
             round-trips every double exactly *)
          Printf.fprintf oc "%s\t%s\t%s\n" e.key e.hash
            (String.concat " "
               (List.map (Printf.sprintf "%.17g") (Array.to_list e.vector))))
        t.entries)

let load ~dir : (t, string) result =
  let path = Filename.concat dir file_name in
  if not (Sys.file_exists path) then Error (Printf.sprintf "no %s in %s" file_name dir)
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          if input_line ic <> "liger-index 1" then Error (path ^ ": not a liger index")
          else
            match String.split_on_char ' ' (input_line ic) with
            | [ "dim"; d ] -> (
                match int_of_string_opt d with
                | None -> Error (path ^ ": bad dim line")
                | Some dim ->
                    let entries = ref [] in
                    (try
                       while true do
                         let line = input_line ic in
                         match String.split_on_char '\t' line with
                         | [ key; hash; vec ] ->
                             let vector =
                               String.split_on_char ' ' vec
                               |> List.filter (fun s -> s <> "")
                               |> List.map float_of_string
                               |> Array.of_list
                             in
                             if Array.length vector <> dim then
                               failwith (Printf.sprintf "entry %s: wrong dimension" key);
                             entries := { key; hash; vector } :: !entries
                         | _ -> failwith (Printf.sprintf "malformed line %S" line)
                       done
                     with End_of_file -> ());
                    Ok { dim; entries = sorted (Array.of_list (List.rev !entries)) })
            | _ -> Error (path ^ ": bad dim line")
        with
        | End_of_file -> Error (path ^ ": truncated header")
        | Failure msg -> Error (path ^ ": " ^ msg))

let load_exn ~dir =
  match load ~dir with Ok t -> t | Error msg -> failwith msg

(* ---------------- retrieval ---------------- *)

let cosine a b =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i x ->
      dot := !dot +. (x *. b.(i));
      na := !na +. (x *. x);
      nb := !nb +. (b.(i) *. b.(i)))
    a;
  !dot /. (sqrt (!na *. !nb) +. 1e-12)

(** The [k] nearest entries by cosine similarity, best first; ties break
    on (key, hash) so the order is deterministic. *)
let nearest t ?(k = 5) query =
  if Array.length query <> t.dim then invalid_arg "Index.nearest: dim mismatch";
  t.entries
  |> Array.to_list
  |> List.map (fun e -> (cosine query e.vector, e))
  |> List.sort (fun (sa, a) (sb, b) ->
         match compare sb sa with 0 -> compare (a.key, a.hash) (b.key, b.hash) | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (score, e) -> (score, e.key))

(* ---------------- content-addressed build ---------------- *)

type build_report = { embedded : int; reused : int }

(** Build an index over [(key, hash, embed_input)] descriptors: entries
    whose hash is present in [previous] reuse the stored vector; the rest
    are embedded in one call to [embed_batch] (batched forward). *)
let build ~dim ?previous ~embed_batch (items : (string * string * 'a) list) :
    t * build_report =
  let prev_by_hash = Hashtbl.create 64 in
  (match previous with
  | Some p ->
      Array.iter (fun e -> Hashtbl.replace prev_by_hash e.hash e.vector) p.entries
  | None -> ());
  let reused = ref [] and fresh = ref [] in
  List.iter
    (fun (key, hash, input) ->
      match Hashtbl.find_opt prev_by_hash hash with
      | Some vector -> reused := { key; hash; vector } :: !reused
      | None -> fresh := (key, hash, input) :: !fresh)
    items;
  let fresh = List.rev !fresh in
  let fresh_entries =
    match fresh with
    | [] -> []
    | _ ->
        let vectors = embed_batch (Array.of_list (List.map (fun (_, _, i) -> i) fresh)) in
        List.mapi (fun i (key, hash, _) -> { key; hash; vector = vectors.(i) }) fresh
  in
  let entries = List.rev_append !reused fresh_entries in
  ( { dim; entries = sorted (Array.of_list entries) },
    { embedded = List.length fresh_entries; reused = List.length !reused } )
