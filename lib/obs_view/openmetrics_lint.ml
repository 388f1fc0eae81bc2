(** Structural lint of OpenMetrics text exposition, the format
    {!Liger_obs.Openmetrics.render} writes: [liger stats --openmetrics
    --validate] and [liger fetch --lint-openmetrics] run it. *)

let strip_suffix s sfx =
  let ls = String.length s and lx = String.length sfx in
  if ls > lx && String.sub s (ls - lx) lx = sfx then Some (String.sub s 0 (ls - lx)) else None

(** Structural validation of exposition text: every sample must belong
    to a declared [# TYPE] family with the right suffix for its type,
    histogram buckets must be cumulative with [+Inf] equal to [_count],
    and the text must end with [# EOF].  Returns the sample count. *)
let lint text : (int, string) result =
  let lines = String.split_on_char '\n' text in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* histogram series state: (family ^ labels-minus-le) -> last cumulative
     bucket value, +Inf value *)
  let buckets : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let infs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let saw_eof = ref false in
  let err = ref None in
  let fail line msg = if !err = None then err := Some (Printf.sprintf "%s: %S" msg line) in
  let split_sample line =
    (* name{labels} value | name value *)
    let name_end =
      match String.index_opt line '{' with
      | Some i -> i
      | None -> ( match String.index_opt line ' ' with Some i -> i | None -> String.length line)
    in
    let name = String.sub line 0 name_end in
    let rest = String.sub line name_end (String.length line - name_end) in
    let labels, value =
      if String.length rest > 0 && rest.[0] = '{' then
        match String.index_opt rest '}' with
        | Some j ->
            ( String.sub rest 0 (j + 1),
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
        | None -> ("", "")
      else ("", String.trim rest)
    in
    (name, labels, value)
  in
  let series_key family labels =
    (* drop the le="..." pair so all buckets of one histogram series share a key *)
    let labels =
      if labels = "" then ""
      else
        String.sub labels 1 (String.length labels - 2)
        |> String.split_on_char ','
        |> List.filter (fun kv -> not (String.length kv >= 3 && String.sub kv 0 3 = "le="))
        |> String.concat ","
    in
    family ^ "{" ^ labels ^ "}"
  in
  List.iter
    (fun line ->
      if !err <> None || line = "" then ()
      else if !saw_eof then fail line "content after # EOF"
      else if line = "# EOF" then saw_eof := true
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; ty ] when List.mem ty [ "counter"; "gauge"; "histogram" ] ->
            Hashtbl.replace types name ty
        | _ -> fail line "malformed # TYPE line"
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then ()
      else if String.length line >= 1 && line.[0] = '#' then fail line "unrecognized comment"
      else begin
        let name, labels, value = split_sample line in
        if value = "" || name = "" then fail line "malformed sample"
        else begin
          incr samples;
          let declared n ty = Hashtbl.find_opt types n = Some ty in
          match strip_suffix name "_bucket" with
          | Some base when declared base "histogram" -> (
              match int_of_string_opt value with
              | None -> fail line "non-integer bucket value"
              | Some v ->
                  let key = series_key base labels in
                  let is_inf =
                    (* substring "le=\"+Inf\"" present *)
                    let needle = "le=\"+Inf\"" in
                    let ln = String.length needle and ll = String.length labels in
                    let rec has i = i + ln <= ll && (String.sub labels i ln = needle || has (i + 1)) in
                    has 0
                  in
                  let prev = Option.value ~default:0 (Hashtbl.find_opt buckets key) in
                  if v < prev then fail line "histogram buckets not cumulative"
                  else begin
                    Hashtbl.replace buckets key v;
                    if is_inf then Hashtbl.replace infs key v
                  end)
          | _ -> (
              match strip_suffix name "_sum" with
              | Some base when declared base "histogram" -> ()
              | _ -> (
                  match strip_suffix name "_count" with
                  | Some base when declared base "histogram" -> (
                      match int_of_string_opt value with
                      | Some v -> Hashtbl.replace counts (series_key base labels) v
                      | None -> fail line "non-integer histogram count")
                  | _ -> (
                      match strip_suffix name "_total" with
                      | Some base when declared base "counter" -> ()
                      | _ ->
                          if not (declared name "gauge") then
                            fail line "sample without a matching # TYPE declaration")))
        end
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      if not !saw_eof then Error "missing # EOF terminator"
      else begin
        (* every histogram series: +Inf bucket must equal _count *)
        Hashtbl.iter
          (fun key inf ->
            match Hashtbl.find_opt counts key with
            | Some c when c <> inf ->
                if !err = None then
                  err := Some (Printf.sprintf "histogram %s: +Inf bucket %d <> count %d" key inf c)
            | _ -> ())
          infs;
        match !err with Some e -> Error e | None -> Ok !samples
      end
