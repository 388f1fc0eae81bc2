(** The flight recorder: a fixed-size per-domain ring buffer of recent
    span begin/end and log events, cheap enough to leave on for the whole
    of a multi-hour run.

    Unlike {!Span}, which keeps every event until exit (bounded only by
    the trace cap) and is therefore opt-in, the recorder keeps the *last
    N* events per domain and is meant as a postmortem forensic trail: on
    an uncaught exception, fatal signal, or training abort, {!write}
    dumps the surviving events plus a final metrics snapshot to a JSON
    file under the run directory (see {!Obs.crash_dump}).

    The overhead contract matches the rest of [lib/obs]: every recording
    entry point checks one atomic flag and returns immediately when the
    recorder is off — nothing is allocated or boxed on the disabled
    path.  When on, recording is a couple of stores into a pre-existing
    array slot per event; rings are per-domain ([Domain.DLS]) so there
    is no locking on the hot path (the global sequence counter is one
    atomic fetch-and-add). *)

type kind = Begin | End | Note

type event = {
  seq : int;      (* global order across domains; -1 marks an empty slot *)
  ts : float;     (* absolute unix time *)
  dom : int;      (* domain id *)
  kind : kind;
  name : string;
  detail : string;
}

let empty_slot = { seq = -1; ts = 0.0; dom = -1; kind = Note; name = ""; detail = "" }

type ring = {
  rdom : int;
  mutable slots : event array;
  mutable n : int;  (* total events ever recorded on this domain *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let default_capacity = 512

let capacity_ref = ref default_capacity

(** Ring capacity per domain, {!default_capacity} unless {!set_capacity}
    changed it. *)
let capacity () = !capacity_ref

let seq_counter = Atomic.make 0

(* every domain registers its ring on first use; rings survive the domain
   (a retired pool worker's last events still reach the postmortem) *)
let rings_mutex = Mutex.create ()
let rings : ring list ref = ref []

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        { rdom = (Domain.self () :> int); slots = Array.make (capacity ()) empty_slot; n = 0 }
      in
      Mutex.lock rings_mutex;
      rings := r :: !rings;
      Mutex.unlock rings_mutex;
      r)

let record kind name detail =
  if Atomic.get enabled_flag then begin
    let r = Domain.DLS.get ring_key in
    let ev =
      {
        seq = Atomic.fetch_and_add seq_counter 1;
        ts = Unix.gettimeofday ();
        dom = r.rdom;
        kind;
        name;
        detail;
      }
    in
    r.slots.(r.n mod Array.length r.slots) <- ev;
    r.n <- r.n + 1
  end

let span_begin name = record Begin name ""
let span_end name = record End name ""

(** [note ~detail name] drops a breadcrumb into the ring.  Guard any
    allocation needed to build [detail] behind {!enabled} at the call
    site — [note] itself only pays the one-branch check, but a caller
    that formats a string first has already paid for it. *)
let note ?(detail = "") name = record Note name detail

(** Resize every ring (tests).  Discards recorded events. *)
let set_capacity c =
  if c <= 0 then invalid_arg "Recorder.set_capacity";
  Mutex.lock rings_mutex;
  capacity_ref := c;
  List.iter
    (fun r ->
      r.slots <- Array.make c empty_slot;
      r.n <- 0)
    !rings;
  Mutex.unlock rings_mutex

let reset () =
  Mutex.lock rings_mutex;
  List.iter
    (fun r ->
      Array.fill r.slots 0 (Array.length r.slots) empty_slot;
      r.n <- 0)
    !rings;
  Mutex.unlock rings_mutex

(** Surviving events across all domains, in global record order. *)
let events () =
  Mutex.lock rings_mutex;
  let all =
    List.concat_map
      (fun r -> Array.to_list (Array.map Fun.id r.slots))
      !rings
  in
  Mutex.unlock rings_mutex;
  List.filter (fun ev -> ev.seq >= 0) all |> List.sort (fun a b -> compare a.seq b.seq)

(** Total events ever recorded (including overwritten ones). *)
let total () =
  Mutex.lock rings_mutex;
  let n = List.fold_left (fun acc r -> acc + r.n) 0 !rings in
  Mutex.unlock rings_mutex;
  n

(** Events lost to ring wrap-around. *)
let dropped () =
  Mutex.lock rings_mutex;
  let d =
    List.fold_left (fun acc r -> acc + max 0 (r.n - Array.length r.slots)) 0 !rings
  in
  Mutex.unlock rings_mutex;
  d

let kind_name = function Begin -> "begin" | End -> "end" | Note -> "note"

(** The postmortem document: recorder contents plus a final metrics
    snapshot, as JSON.  [run_id] labels which run directory the dump
    belongs to. *)
let to_json ?(run_id = "") ~reason () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"postmortem\": true,\n  \"reason\": \"%s\",\n" (Json.escape reason));
  if run_id <> "" then
    Buffer.add_string buf (Printf.sprintf "  \"run_id\": \"%s\",\n" (Json.escape run_id));
  Buffer.add_string buf (Printf.sprintf "  \"ts\": %s,\n" (Json.of_float (Unix.gettimeofday ())));
  Buffer.add_string buf (Printf.sprintf "  \"events_recorded\": %d,\n" (total ()));
  Buffer.add_string buf (Printf.sprintf "  \"events_dropped\": %d,\n" (dropped ()));
  Buffer.add_string buf "  \"events\": [";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"seq\":%d,\"ts\":%s,\"domain\":%d,\"kind\":\"%s\",\"name\":\"%s\",\"detail\":\"%s\"}"
           ev.seq (Json.of_float ev.ts) ev.dom (kind_name ev.kind) (Json.escape ev.name)
           (Json.escape ev.detail)))
    (events ());
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"metrics\": ";
  (* indent the embedded snapshot to keep the document readable *)
  let snap = Metrics.to_json (Metrics.snapshot ()) in
  String.iter
    (fun c ->
      Buffer.add_char buf c;
      if c = '\n' then Buffer.add_string buf "  ")
    (String.trim snap);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write ?run_id ~reason path =
  let oc = open_out (path ^ ".tmp") in
  output_string oc (to_json ?run_id ~reason ());
  close_out oc;
  Sys.rename (path ^ ".tmp") path
