(** Reading the server's OpenMetrics exposition ([GET /metrics]) and
    differencing two scrapes taken around a run.

    A cumulative count may be exposed as a counter ([name_total]) or, as
    the serving cache counts are today, as a gauge of the running total
    ([name]); {!total} accepts either, so the difference stays right when
    the metric type is corrected. *)

type sample = { name : string; labels : (string * string) list; value : float }

let parse_labels s =
  (* [k="v",k2="v2"]; label values produced by the server never contain
     an escaped quote followed by a comma, which keeps this split safe *)
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | None -> None
           | Some i ->
               let v = String.sub kv (i + 1) (String.length kv - i - 1) in
               let v =
                 if String.length v >= 2 && v.[0] = '"' then String.sub v 1 (String.length v - 2)
                 else v
               in
               Some (String.sub kv 0 i, v))

(** Every sample line of an exposition; comments and [# EOF] are skipped. *)
let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some sp -> (
               let key = String.sub line 0 sp in
               match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
               | None -> None
               | Some value -> (
                   match String.index_opt key '{' with
                   | None -> Some { name = key; labels = []; value }
                   | Some b ->
                       let inner = String.sub key (b + 1) (String.length key - b - 2) in
                       Some { name = String.sub key 0 b; labels = parse_labels inner; value })))

let matches ~labels s = List.for_all (fun kv -> List.mem kv s.labels) labels

(** The sum over label sets (restricted to those carrying every pair in
    [labels]) of the cumulative count [name], read from [name_total] when
    exposed as a counter and from [name] otherwise; 0 when absent. *)
let total ?(labels = []) samples name =
  let sum n =
    List.fold_left
      (fun acc s -> if s.name = n && matches ~labels s then acc +. s.value else acc)
      0.0 samples
  in
  if List.exists (fun s -> s.name = name ^ "_total") samples then sum (name ^ "_total")
  else sum name

(** [total after - total before]: what the run itself added. *)
let delta ?labels ~before ~after name = total ?labels after name -. total ?labels before name

(** The [q] quantile of the observations a histogram gained between two
    scrapes, reported as the upper bound of the bucket it falls in (the
    exposition's resolution); [None] when nothing was observed. *)
let hist_quantile ?(labels = []) ~before ~after name q =
  let buckets samples =
    List.filter_map
      (fun s ->
        if s.name = name ^ "_bucket" && matches ~labels s then
          match List.assoc_opt "le" s.labels with
          | Some "+Inf" -> Some (Float.infinity, s.value)
          | Some le -> Option.map (fun b -> (b, s.value)) (float_of_string_opt le)
          | None -> None
        else None)
      samples
  in
  let sum_by_bound l =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (b, v) -> Hashtbl.replace tbl b (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl b)))
      l;
    tbl
  in
  let a = sum_by_bound (buckets after) and b = sum_by_bound (buckets before) in
  let bounds = Hashtbl.fold (fun k _ acc -> k :: acc) a [] |> List.sort compare in
  let cum bound = Hashtbl.find a bound -. Option.value ~default:0.0 (Hashtbl.find_opt b bound) in
  match List.rev bounds with
  | [] -> None
  | top :: _ ->
      let count = cum top in
      if count <= 0.0 then None
      else List.find_opt (fun bound -> cum bound >= q *. count) bounds
