(** Span-based wall-clock tracing with Chrome [trace_event] export.

    [with_ ~name f] times [f] and records one complete ("X") event.  Spans
    nest: each domain keeps its own span stack, so parallel work traces
    cleanly (one track per domain in the viewer) and the recorded self time
    of a span excludes its children.  The resulting JSON loads directly in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    Tracing is disabled by default; the disabled path is one atomic load
    (args are passed as a thunk so no event payload is even allocated).
    Enable with {!enable}, or through {!Obs.init}.

    This frame stack is separate from {!Profile.with_layer}'s, the layer
    scope, and must stay so:
    - A span's self time subtracts only its child spans, the events the
      trace shows; a layer frame's self time subtracts every child layer
      call.  A layer reaches the trace only on every 64th call
      ([Profile.span_every]), so with one shared stack either a span would
      subtract 63 calls in 64 that its trace never shows, or the profile
      would miss them.
    - The two stacks are pushed under different switches: spans when
      tracing is on ({!enabled}), layer frames when the profiler or the
      dynamics streams subscribe ([Profile.scope_on]).  Either runs
      without the other.
    - perfbench's per-stage figures read {!event.self_us}, so what a span
      subtracts is part of the benchmark's contract. *)

type event = {
  ev_name : string;
  ev_args : (string * string) list;
  ts_us : float;    (* microseconds since the process-epoch *)
  dur_us : float;
  self_us : float;  (* duration minus the duration of child spans *)
  tid : int;        (* domain id *)
}

type frame = { start : float; mutable child : float }

type dstate = {
  dtid : int;
  mutable events : event list;
  mutable stack : frame list;
  mutable n_kept : int;     (* events currently buffered *)
  mutable n_dropped : int;  (* events lost to the trace cap *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let epoch = Unix.gettimeofday ()

(* The trace buffer is bounded so a multi-hour traced run cannot grow
   without limit: once a domain has buffered [capacity ()] events, new
   ones are counted in [n_dropped] instead of kept (the Chrome trace
   keeps the run's prefix; the flight recorder covers the suffix). *)
let default_capacity = 262_144

let capacity_ref = ref default_capacity

(** Per-domain span buffer cap, {!default_capacity} unless {!set_capacity}
    changed it. *)
let capacity () = !capacity_ref

let set_capacity c =
  if c <= 0 then invalid_arg "Span.set_capacity";
  capacity_ref := c

(* every domain registers its state on first use; states survive the domain
   (a retired pool worker's spans still export) *)
let states_mutex = Mutex.create ()
let states : dstate list ref = ref []

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        { dtid = (Domain.self () :> int); events = []; stack = []; n_kept = 0; n_dropped = 0 }
      in
      Mutex.lock states_mutex;
      states := st :: !states;
      Mutex.unlock states_mutex;
      st)

(** Current nesting depth on this domain (0 outside any span). *)
let depth () =
  if not (Atomic.get enabled_flag) then 0
  else List.length (Domain.DLS.get state_key).stack

(** [with_ ~name f] runs [f] inside a span.  [args] (thunked, only forced
    when tracing is on and the event is kept) become the event's args in
    the trace viewer.  The span closes on exceptions too.

    When the {!Recorder} is on, the span's begin and end also land in the
    flight-recorder ring — with or without tracing, so a crash in an
    untraced run still leaves a forensic trail. *)
let with_ ?(args = fun () -> []) ~name f =
  let trace_on = Atomic.get enabled_flag in
  if not trace_on && not (Recorder.enabled ()) then f ()
  else if not trace_on then begin
    (* flight recorder only: breadcrumbs, no span buffer, no args *)
    Recorder.span_begin name;
    match f () with
    | r ->
        Recorder.span_end name;
        r
    | exception e ->
        Recorder.span_end name;
        raise e
  end
  else begin
    let rec_on = Recorder.enabled () in
    if rec_on then Recorder.span_begin name;
    let st = Domain.DLS.get state_key in
    let fr = { start = Unix.gettimeofday (); child = 0.0 } in
    st.stack <- fr :: st.stack;
    let finish () =
      let dur = Unix.gettimeofday () -. fr.start in
      (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
      (match st.stack with parent :: _ -> parent.child <- parent.child +. dur | [] -> ());
      (if st.n_kept < capacity () then begin
         st.n_kept <- st.n_kept + 1;
         st.events <-
           {
             ev_name = name;
             ev_args = args ();
             ts_us = (fr.start -. epoch) *. 1e6;
             dur_us = dur *. 1e6;
             self_us = (dur -. fr.child) *. 1e6;
             tid = st.dtid;
           }
           :: st.events
       end
       else st.n_dropped <- st.n_dropped + 1);
      if rec_on then Recorder.span_end name
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(** All recorded events, across domains, in timestamp order. *)
let events () =
  Mutex.lock states_mutex;
  let all = List.concat_map (fun st -> st.events) !states in
  Mutex.unlock states_mutex;
  List.sort (fun a b -> compare (a.ts_us, a.tid, a.ev_name) (b.ts_us, b.tid, b.ev_name)) all

(** Events lost to the trace cap, across domains. *)
let dropped_events () =
  Mutex.lock states_mutex;
  let d = List.fold_left (fun acc st -> acc + st.n_dropped) 0 !states in
  Mutex.unlock states_mutex;
  d

let reset () =
  Mutex.lock states_mutex;
  List.iter
    (fun st ->
      st.events <- [];
      st.stack <- [];
      st.n_kept <- 0;
      st.n_dropped <- 0)
    !states;
  Mutex.unlock states_mutex

(* ---------------- report aggregation ---------------- *)

type agg = { agg_name : string; agg_count : int; total_s : float; self_s : float }

(** Per-name totals, sorted by self time descending — the "where did the
    time go" table of the end-of-run report. *)
let aggregate () =
  let tbl : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      let count, total, self =
        match Hashtbl.find_opt tbl ev.ev_name with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0.0, ref 0.0) in
            Hashtbl.add tbl ev.ev_name cell;
            cell
      in
      Stdlib.incr count;
      total := !total +. (ev.dur_us /. 1e6);
      self := !self +. (ev.self_us /. 1e6))
    (events ());
  Hashtbl.fold
    (fun name (count, total, self) acc ->
      { agg_name = name; agg_count = !count; total_s = !total; self_s = !self } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.self_s, b.agg_name) (a.self_s, a.agg_name))

(* ---------------- Chrome trace_event export ---------------- *)

(** The trace as Chrome [trace_event] JSON: one complete ("X") event per
    span, process id = pid, track id = domain id. *)
let to_chrome_json () =
  let pid = Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"liger\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s"
           (Json.escape ev.ev_name) pid ev.tid (Json.of_float ev.ts_us)
           (Json.of_float ev.dur_us));
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        (("self_us", Json.of_float ev.self_us) :: ev.ev_args);
      Buffer.add_string buf "}}")
    (events ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out (path ^ ".tmp") in
  output_string oc (to_chrome_json ());
  close_out oc;
  Sys.rename (path ^ ".tmp") path
