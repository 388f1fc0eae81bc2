(** A domain-safe metrics registry: counters, float counters, gauges and
    fixed-bucket histograms, all optionally labeled.

    The registry is process-global and disabled by default.  Every recording
    entry point checks one atomic flag first and returns immediately when
    telemetry is off, so an uninstrumented run pays one branch per event —
    the overhead contract the bench numbers rely on.  When enabled, all
    operations take a single registry mutex; recording happens at task/epoch
    granularity (not per token), so contention is negligible next to the
    work being measured.

    Snapshots render to JSON with deterministic key order (entries sorted by
    name, then labels), so identical runs produce byte-identical files.
    {!Obs.init} ([--metrics-out] or [LIGER_METRICS=1]) dumps a snapshot on
    exit. *)

type labels = (string * string) list

let canon (labels : labels) = List.sort compare labels

(* ---------------- storage ---------------- *)

type hist = {
  bounds : float array;  (* strictly increasing bucket upper bounds *)
  counts : int array;    (* length [bounds + 1]; last bucket is overflow *)
  mutable hsum : float;
  mutable hcount : int;
}

type metric =
  | Counter of { mutable c : int }
  | Fcounter of { mutable f : float }
  | Gauge of { mutable g : float }
  | Histogram of hist

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let mutex = Mutex.create ()
let registry : (string * labels, metric) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let find_or_add key mk =
  match Hashtbl.find_opt registry key with
  | Some m -> m
  | None ->
      let m = mk () in
      Hashtbl.add registry key m;
      m

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " already registered with another kind")

(* ---------------- recording ---------------- *)

(** [add name n] bumps the integer counter [name] by [n]. *)
let add ?(labels = []) name n =
  if Atomic.get enabled_flag then
    locked (fun () ->
        match find_or_add (name, canon labels) (fun () -> Counter { c = 0 }) with
        | Counter r -> r.c <- r.c + n
        | _ -> kind_error name)

let incr ?labels name = add ?labels name 1

(** [fadd name x] accumulates into the float counter [name] (busy seconds,
    wall seconds, ...). *)
let fadd ?(labels = []) name x =
  if Atomic.get enabled_flag then
    locked (fun () ->
        match find_or_add (name, canon labels) (fun () -> Fcounter { f = 0.0 }) with
        | Fcounter r -> r.f <- r.f +. x
        | _ -> kind_error name)

(** [gauge name x] sets the gauge [name] to its latest value. *)
let gauge ?(labels = []) name x =
  if Atomic.get enabled_flag then
    locked (fun () ->
        match find_or_add (name, canon labels) (fun () -> Gauge { g = x }) with
        | Gauge r -> r.g <- x
        | _ -> kind_error name)

(** Exponential-ish default buckets covering sub-millisecond spans up to
    minutes, and unit-scale values like gradient norms. *)
let default_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0 |]

let bucket_index bounds x =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if x <= bounds.(i) then i else go (i + 1) in
  go 0

(** [observe name x] records [x] into the fixed-bucket histogram [name];
    [buckets] (upper bounds, ascending) are fixed by the first observation.
    Value [x] lands in the first bucket whose bound is [>= x]; values above
    every bound land in a final overflow bucket. *)
let observe ?(labels = []) ?(buckets = default_buckets) name x =
  if Atomic.get enabled_flag then
    locked (fun () ->
        match
          find_or_add (name, canon labels) (fun () ->
              Histogram
                {
                  bounds = Array.copy buckets;
                  counts = Array.make (Array.length buckets + 1) 0;
                  hsum = 0.0;
                  hcount = 0;
                })
        with
        | Histogram h ->
            let i = bucket_index h.bounds x in
            h.counts.(i) <- h.counts.(i) + 1;
            h.hsum <- h.hsum +. x;
            h.hcount <- h.hcount + 1
        | _ -> kind_error name)

(* ---------------- resetting ---------------- *)

let reset () = locked (fun () -> Hashtbl.reset registry)

(** Drop every metric whose name starts with [prefix] (subsystem resets,
    e.g. the pool stats between bench builds). *)
let reset_prefix prefix =
  locked (fun () ->
      let doomed =
        Hashtbl.fold
          (fun ((name, _) as key) _ acc ->
            if String.length name >= String.length prefix
               && String.sub name 0 (String.length prefix) = prefix
            then key :: acc
            else acc)
          registry []
      in
      List.iter (Hashtbl.remove registry) doomed)

(* ---------------- snapshots ---------------- *)

type hist_view = { buckets : float array; counts : int array; sum : float; count : int }

type value = C of int | F of float | G of float | H of hist_view

type entry = { e_name : string; e_labels : labels; e_value : value }

type snapshot = entry list

let sort (snap : snapshot) =
  List.sort (fun a b -> compare (a.e_name, a.e_labels) (b.e_name, b.e_labels)) snap

(** A consistent copy of the whole registry, sorted by (name, labels). *)
let snapshot () : snapshot =
  locked (fun () ->
      Hashtbl.fold
        (fun (name, labels) metric acc ->
          let value =
            match metric with
            | Counter r -> C r.c
            | Fcounter r -> F r.f
            | Gauge r -> G r.g
            | Histogram h ->
                H
                  {
                    buckets = Array.copy h.bounds;
                    counts = Array.copy h.counts;
                    sum = h.hsum;
                    count = h.hcount;
                  }
          in
          { e_name = name; e_labels = labels; e_value = value } :: acc)
        registry [])
  |> sort

let find ?(labels = []) (snap : snapshot) name =
  let labels = canon labels in
  List.find_map
    (fun e -> if e.e_name = name && e.e_labels = labels then Some e.e_value else None)
    snap

let counter_value ?labels snap name =
  match find ?labels snap name with Some (C n) -> n | _ -> 0

let fcounter_value ?labels snap name =
  match find ?labels snap name with Some (F x) -> x | _ -> 0.0

let gauge_value ?labels snap name =
  match find ?labels snap name with Some (G x) -> Some x | _ -> None

let hist_view ?labels snap name =
  match find ?labels snap name with Some (H h) -> Some h | _ -> None

(** Every entry with the given name, across label sets. *)
let entries_with (snap : snapshot) name = List.filter (fun e -> e.e_name = name) snap

(** Estimated [q]-quantile (0..1) from a histogram by linear interpolation
    inside the bucket holding the target rank.

    The interpolation rule, pinned for every consumer (ledger, [liger
    top], the HTML report): the value is interpolated linearly between
    the bucket's lower and upper bound at the target rank's offset into
    the bucket; the first bucket's lower bound is 0, the overflow bucket
    reports its lower bound (the largest finite boundary).  Degenerate
    histograms are total rather than NaN — an {e empty} histogram (or one
    with no buckets at all) reports 0.0 for every quantile, and a
    single-bucket histogram interpolates between 0 and its only bound —
    so a quantile can never leak NaN into the ledger or the report. *)
let quantile (h : hist_view) q =
  if h.count = 0 || Array.length h.buckets = 0 then 0.0
  else begin
    let target = q *. float_of_int h.count in
    let nb = Array.length h.buckets in
    let rec go i cum =
      if i > nb then h.buckets.(nb - 1)
      else
        let c = h.counts.(i) in
        if c > 0 && float_of_int cum +. float_of_int c >= target then
          if i >= nb then h.buckets.(nb - 1)
          else
            let lo = if i = 0 then 0.0 else h.buckets.(i - 1) in
            let hi = h.buckets.(i) in
            lo +. ((hi -. lo) *. (target -. float_of_int cum) /. float_of_int c)
        else go (i + 1) (cum + c)
    in
    go 0 0
  end

(* ---------------- the JSON layouts ---------------- *)

(* This module is the only one that knows the snapshot format: one object
   per metric kind ("section"), keys of the form [name{label=value,...}],
   histograms as {buckets, counts, sum, count}.  {!to_json} and
   {!to_json_compact} write it, {!of_json} reads it back. *)

let render_key name labels =
  match labels with
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      ^ "}"

(** Inverse of {!render_key}: split ["name{k=v,...}"] back into the name
    and its (canonically sorted) labels.  Label values must not contain
    [','] or ['}'] — which the pipeline's low-cardinality labels (model,
    oracle, domain, reason) never do. *)
let parse_rendered_key key =
  match String.index_opt key '{' with
  | None -> (key, [])
  | Some i when String.length key > i && key.[String.length key - 1] = '}' ->
      let name = String.sub key 0 i in
      let body = String.sub key (i + 1) (String.length key - i - 2) in
      let labels =
        if body = "" then []
        else
          String.split_on_char ',' body
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | Some j ->
                     (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
                 | None -> (kv, ""))
      in
      (name, canon labels)
  | Some _ -> (key, [])

(** The section a value is filed under; {!sections} is their file order. *)
let section = function
  | C _ -> "counters"
  | F _ -> "fcounters"
  | G _ -> "gauges"
  | H _ -> "histograms"

let sections = [ "counters"; "fcounters"; "gauges"; "histograms" ]

(** The entries of [snap] filed under section [name], in snapshot order. *)
let section_entries (snap : snapshot) name = List.filter (fun e -> section e.e_value = name) snap

let value_to_json = function
  | C n -> string_of_int n
  | F x | G x -> Json.of_float x
  | H h ->
      let floats a = String.concat "," (List.map Json.of_float (Array.to_list a)) in
      let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
      Printf.sprintf "{\"buckets\":[%s],\"counts\":[%s],\"sum\":%s,\"count\":%d}"
        (floats h.buckets) (ints h.counts) (Json.of_float h.sum) h.count

(* The one writer behind both layouts.  Pretty: one entry per line, the
   [metrics.json] file that [scripts/check.sh] reads with [sed].  Compact:
   one line, the run-ledger format, with [extra] fields (already-rendered
   JSON values) first. *)
let render ~pretty ~extra (snap : snapshot) =
  let buf = Buffer.create 1024 in
  let colon = if pretty then ": " else ":" in
  Buffer.add_string buf (if pretty then "{\n" else "{");
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "\"%s\":%s," (Json.escape k) v))
    extra;
  List.iteri
    (fun i kind ->
      if i > 0 then Buffer.add_string buf (if pretty then ",\n" else ",");
      Buffer.add_string buf (Printf.sprintf "%s\"%s\"%s{" (if pretty then "  " else "") kind colon);
      let entries = section_entries snap kind in
      List.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s\"%s\"%s%s"
               (if pretty then "\n    " else "")
               (Json.escape (render_key e.e_name e.e_labels))
               colon (value_to_json e.e_value)))
        entries;
      if pretty && entries <> [] then Buffer.add_string buf "\n  ";
      Buffer.add_char buf '}')
    sections;
  Buffer.add_string buf (if pretty then "\n}\n" else "}");
  Buffer.contents buf

(** Render a snapshot as JSON with deterministic key order: one object per
    metric kind, one entry per line. *)
let to_json snap = render ~pretty:true ~extra:[] snap

(** Render a snapshot as one compact line of JSON — the run-ledger
    (JSONL) format of {!Timeseries}.  [extra] fields (already-rendered
    JSON values, e.g. a timestamp) come first; the four metric sections
    follow in the same deterministic order as {!to_json}, so every
    ledger line is itself a valid metrics snapshot. *)
let to_json_compact ?(extra = []) snap = render ~pretty:false ~extra snap

let value_of_json kind v =
  let num = Json.to_float v in
  match kind with
  | "counters" -> Option.map (fun f -> C (int_of_float f)) num
  | "fcounters" -> Option.map (fun f -> F f) num
  | "gauges" -> Option.map (fun f -> G f) num
  | _ -> (
      let floats name =
        Option.bind (Json.member name v) Json.to_list |> Option.map (List.filter_map Json.to_float)
      in
      match
        ( floats "buckets",
          floats "counts",
          Option.bind (Json.member "sum" v) Json.to_float,
          Option.bind (Json.member "count" v) Json.to_float )
      with
      | Some buckets, Some counts, Some sum, Some count ->
          Some
            (H
               {
                 buckets = Array.of_list buckets;
                 counts = Array.of_list (List.map int_of_float counts);
                 sum;
                 count = int_of_float count;
               })
      | _ -> None)

(** Rebuild a snapshot from a parsed metrics file or run-ledger line (the
    inverse of {!to_json} and {!to_json_compact}; other members, such as a
    ledger line's [ts], are ignored).  Entries whose value does not parse
    are dropped. *)
let of_json (json : Json.t) : (snapshot, string) result =
  match Json.member "counters" json with
  | None -> Error "not a metrics snapshot (no \"counters\" member)"
  | Some _ ->
      Ok
        (List.concat_map
           (fun kind ->
             match Json.member kind json with
             | Some (Json.Obj kvs) ->
                 List.filter_map
                   (fun (k, v) ->
                     let name, labels = parse_rendered_key k in
                     Option.map
                       (fun value -> { e_name = name; e_labels = labels; e_value = value })
                       (value_of_json kind v))
                   kvs
             | _ -> [])
           sections
        |> sort)

let write path =
  let oc = open_out (path ^ ".tmp") in
  output_string oc (to_json (snapshot ()));
  close_out oc;
  Sys.rename (path ^ ".tmp") path
