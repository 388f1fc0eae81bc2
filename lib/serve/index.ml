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

(* [norms.(i)] is the sum of squares of [entries.(i).vector], added in
   index order: the value, bit for bit, that scoring summed per query *)
type t = { dim : int; entries : entry array; norms : float array }

let file_name = "index.txt"

let dim t = t.dim
let size t = Array.length t.entries

let entries t = t.entries

let sq_norm v =
  let s = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    s := !s +. (v.(i) *. v.(i))
  done;
  !s

(* the one constructor: sorts the fresh array [entries] by (key, hash) in
   place and computes the norms alongside *)
let make ~dim entries =
  Array.sort (fun a b -> compare (a.key, a.hash) (b.key, b.hash)) entries;
  Array.iter
    (fun e ->
      if Array.length e.vector <> dim then
        invalid_arg (Printf.sprintf "Index: entry %s is not of dimension %d" e.key dim))
    entries;
  { dim; entries; norms = Array.map (fun e -> sq_norm e.vector) entries }

let create ~dim entries = make ~dim (Array.of_list entries)

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
                    Ok (make ~dim (Array.of_list (List.rev !entries))))
            | _ -> Error (path ^ ": bad dim line")
        with
        | End_of_file -> Error (path ^ ": truncated header")
        | Failure msg -> Error (path ^ ": " ^ msg))

let load_exn ~dir =
  match load ~dir with Ok t -> t | Error msg -> failwith msg

(* ---------------- retrieval ---------------- *)

(* cosine similarity of [query] (squared norm [qn]) and entry [j]: dot
   product and norms each summed in index order, as the score has always
   been computed *)
let score t query qn j =
  let v = t.entries.(j).vector in
  let dot = ref 0.0 in
  for i = 0 to t.dim - 1 do
    dot := !dot +. (query.(i) *. v.(i))
  done;
  !dot /. (sqrt (qn *. t.norms.(j)) +. 1e-12)

(** The [k] nearest entries by cosine similarity, best first; ties break
    on (key, hash) so the order is deterministic.  A heap keeps the best
    [k] seen so far, so a query costs O(n log k) comparisons. *)
let nearest t ?(k = 5) query =
  if Array.length query <> t.dim then invalid_arg "Index.nearest: dim mismatch";
  let n = Array.length t.entries in
  let qn = sq_norm query in
  let scores = Array.init n (score t query qn) in
  (* [before a b]: entry [a] ranks ahead of entry [b].  Equal entries keep
     their index order, as the stable sort this replaced left them. *)
  let before a b =
    match Float.compare scores.(b) scores.(a) with
    | 0 -> (
        let ea = t.entries.(a) and eb = t.entries.(b) in
        match String.compare ea.key eb.key with
        | 0 -> ( match String.compare ea.hash eb.hash with 0 -> a < b | c -> c < 0)
        | c -> c < 0)
    | c -> c < 0
  in
  (* [heap.(0 .. len-1)] is a heap whose root ranks last *)
  let k = max 0 (min k n) in
  let heap = Array.make k 0 in
  let swap a b =
    let x = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- x
  in
  let rec sift_up c =
    let p = (c - 1) / 2 in
    if c > 0 && before heap.(p) heap.(c) then begin
      swap p c;
      sift_up p
    end
  in
  let rec sift_down p len =
    let l = (2 * p) + 1 in
    if l < len then begin
      let c = if l + 1 < len && before heap.(l) heap.(l + 1) then l + 1 else l in
      if before heap.(p) heap.(c) then begin
        swap p c;
        sift_down c len
      end
    end
  in
  for j = 0 to n - 1 do
    if j < k then begin
      heap.(j) <- j;
      sift_up j
    end
    else if k > 0 && before j heap.(0) then begin
      heap.(0) <- j;
      sift_down 0 k
    end
  done;
  (* move the root to the back, one by one: best first *)
  for len = k - 1 downto 1 do
    swap 0 len;
    sift_down 0 len
  done;
  List.init k (fun i -> (scores.(heap.(i)), t.entries.(heap.(i)).key))

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
  ( make ~dim (Array.of_list entries),
    { embedded = List.length fresh_entries; reused = List.length !reused } )
