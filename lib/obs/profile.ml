(** Model-level profiler: per-op FLOP / bytes / count accounting, per-layer
    forward/backward timing, and live/peak tensor-memory gauges.

    The profiler extends the one-branch-when-disabled contract of {!Metrics}
    and {!Span} down to op granularity.  Every instrumented call site in
    [lib/tensor] and [lib/nn] is written as

    {[ if Profile.on () then Profile.op my_op ~flops ~bytes ]}

    so that with profiling off the cost is a single atomic load and no
    argument (in particular no boxed float) is ever computed or allocated.
    The entry points below carry their own [on ()] guard as well, but the
    caller-side guard is what keeps the disabled path allocation-free.

    Ops and layers are registered once at module-initialisation time
    ({!register_op} / {!register_layer} return dense integer ids and are
    idempotent by name), so the hot path indexes flat arrays.  Recording is
    per-domain via [Domain.DLS] — no locks on the hot path; aggregation
    walks the domain states under a mutex only when a {!snapshot} is taken.

    Layer scope: {!with_layer} is the telemetry layer's only one.  Each
    domain keeps one stack of layer frames, pushed whenever the profiler,
    the training-dynamics streams or both are on.  The profiler times the
    frames (a layer's self time excludes its children) and tags tape nodes
    with the innermost one; {!Dynamics} labels its activation samples with
    the outermost one.  With profiling off the frames are neither timed nor
    counted, so a dynamics-only run leaves the snapshot empty.  To bound
    tracing overhead, only every 64th call of a layer additionally emits a
    Chrome-trace span.

    Memory accounting is cooperative: [lib/tensor] calls {!alloc} /
    {!release} with the byte sizes it manages (tape nodes, tensors), and the
    profiler maintains global [live_bytes] / [peak_bytes] atomics (peak via
    a CAS-max loop). *)

(* ---------------- enablement ---------------- *)

(* The subscribers of the layer scope, profiling and dynamics, share one
   atomic word, one bit each, so the guard of an nn entry point
   ({!scope_on}) is one load. *)
let profiling = 1
let dynamics = 2
let subscribers = Atomic.make 0

let rec set_subscribed bit flag =
  let cur = Atomic.get subscribers in
  let next = if flag then cur lor bit else cur land lnot bit in
  if not (Atomic.compare_and_set subscribers cur next) then set_subscribed bit flag

let subscribed bit = Atomic.get subscribers land bit <> 0

(** The one branch every instrumented call site pays when profiling is off. *)
let on () = subscribed profiling

(** Whether any subscriber needs layer frames: the guard of every [lib/nn]
    entry point (see {!with_layer}). *)
let scope_on () = Atomic.get subscribers <> 0

let enabled = on
let enable () = set_subscribed profiling true
let disable () = set_subscribed profiling false

let now () = Unix.gettimeofday ()

(* ---------------- op / layer registration ---------------- *)

type op = int
type layer = int

let reg_mutex = Mutex.create ()
let op_names : string array ref = ref [||]
let layer_names : string array ref = ref [||]

let register_in names name =
  Mutex.lock reg_mutex;
  let arr = !names in
  let n = Array.length arr in
  let rec find i = if i >= n then -1 else if arr.(i) = name then i else find (i + 1) in
  let id =
    match find 0 with
    | i when i >= 0 -> i
    | _ ->
        names := Array.append arr [| name |];
        n
  in
  Mutex.unlock reg_mutex;
  id

(** Idempotent by name: registering the same op twice returns the same id.
    Intended for module-initialisation time (a mutex + linear scan). *)
let register_op name = register_in op_names name

let register_layer name = register_in layer_names name

(* ---------------- per-domain state ---------------- *)

type lframe = { lf_layer : layer; lf_start : float; mutable lf_child : float }

type dstate = {
  (* per-op, indexed by op id *)
  mutable ocount : int array;
  mutable oflops : float array;
  mutable obytes : float array;
  mutable osecs : float array;
  (* per-layer, indexed by layer id *)
  mutable lcalls : int array;
  mutable lfwd_total : float array;
  mutable lfwd_self : float array;
  mutable lbwd : float array;
  mutable lstack : lframe list;
  mutable bwd_untagged : float;  (* backward time on nodes built outside any layer *)
}

let states_mutex = Mutex.create ()
let states : dstate list ref = ref []

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          ocount = [||];
          oflops = [||];
          obytes = [||];
          osecs = [||];
          lcalls = [||];
          lfwd_total = [||];
          lfwd_self = [||];
          lbwd = [||];
          lstack = [];
          bwd_untagged = 0.0;
        }
      in
      Mutex.lock states_mutex;
      states := st :: !states;
      Mutex.unlock states_mutex;
      st)

let grow_int arr n = Array.append arr (Array.make (n - Array.length arr) 0)
let grow_float arr n = Array.append arr (Array.make (n - Array.length arr) 0.0)

let ensure_ops st =
  let n = Array.length !op_names in
  if Array.length st.ocount < n then begin
    st.ocount <- grow_int st.ocount n;
    st.oflops <- grow_float st.oflops n;
    st.obytes <- grow_float st.obytes n;
    st.osecs <- grow_float st.osecs n
  end

let ensure_layers st =
  let n = Array.length !layer_names in
  if Array.length st.lcalls < n then begin
    st.lcalls <- grow_int st.lcalls n;
    st.lfwd_total <- grow_float st.lfwd_total n;
    st.lfwd_self <- grow_float st.lfwd_self n;
    st.lbwd <- grow_float st.lbwd n
  end

(* ---------------- op recording ---------------- *)

(** [op o ~flops ~bytes] counts one execution of op [o].  Call sites must be
    guarded with [if Profile.on () then ...] so the arguments are never
    computed (or boxed) when profiling is off. *)
let op (o : op) ~flops ~bytes =
  if on () then begin
    let st = Domain.DLS.get state_key in
    if o >= Array.length st.ocount then ensure_ops st;
    st.ocount.(o) <- st.ocount.(o) + 1;
    st.oflops.(o) <- st.oflops.(o) +. flops;
    st.obytes.(o) <- st.obytes.(o) +. bytes
  end

(** Like {!op} but also accumulates wall seconds — for coarse ops (optimizer
    step, grad clipping) where a clock read is negligible. *)
let op_timed (o : op) ~seconds ~flops ~bytes =
  if on () then begin
    let st = Domain.DLS.get state_key in
    if o >= Array.length st.ocount then ensure_ops st;
    st.ocount.(o) <- st.ocount.(o) + 1;
    st.oflops.(o) <- st.oflops.(o) +. flops;
    st.obytes.(o) <- st.obytes.(o) +. bytes;
    st.osecs.(o) <- st.osecs.(o) +. seconds
  end

(* ---------------- memory gauges ---------------- *)

let live_bytes_a = Atomic.make 0
let peak_bytes_a = Atomic.make 0

(** [alloc n] adds [n] bytes to the live gauge and bumps the peak (CAS-max).
    Not self-guarded: callers decide (tape bytes are released even if
    profiling was toggled off mid-step, keeping the gauge consistent). *)
let alloc n =
  let live = Atomic.fetch_and_add live_bytes_a n + n in
  let rec bump () =
    let p = Atomic.get peak_bytes_a in
    if live > p && not (Atomic.compare_and_set peak_bytes_a p live) then bump ()
  in
  bump ()

let release n = ignore (Atomic.fetch_and_add live_bytes_a (-n))
let live_bytes () = Atomic.get live_bytes_a
let peak_bytes () = Atomic.get peak_bytes_a

(* ---------------- layer timing ---------------- *)

(* one Chrome span per this many calls of a layer *)
let span_every = 64

(** The layer currently on top of this domain's stack, or [-1] (always [-1]
    while profiling is off).  Used by [Batched.push] to tag tape nodes for backward attribution. *)
let current_layer () =
  if not (on ()) then -1
  else
    match (Domain.DLS.get state_key).lstack with
    | [] -> -1
    | fr :: _ -> fr.lf_layer

(** The registered name of the outermost frame on this domain's stack, or
    [None] outside any layer scope. *)
let outermost_layer () =
  let rec last = function
    | [] -> None
    | [ fr ] -> Some (!layer_names).(fr.lf_layer)
    | _ :: tl -> last tl
  in
  last (Domain.DLS.get state_key).lstack

(** [add_bwd l dt] attributes [dt] seconds of backward time to layer [l]
    ([-1] = untagged).  Called from [Batched.backward] at tag boundaries. *)
let add_bwd (l : layer) dt =
  if on () then begin
    let st = Domain.DLS.get state_key in
    if l < 0 then st.bwd_untagged <- st.bwd_untagged +. dt
    else begin
      if l >= Array.length st.lcalls then ensure_layers st;
      st.lbwd.(l) <- st.lbwd.(l) +. dt
    end
  end

(** [with_layer l f] runs [f ()] inside a frame of layer [l].  With
    profiling on, the frame is one timed forward call: total and self
    (children subtracted) seconds, plus a sampled Chrome span every
    [span_every]-th call.  With only dynamics on, the frame is pushed and
    popped but neither counted nor timed.  Call sites use the guard pattern

    {[ if Profile.scope_on () then Profile.with_layer l (fun () -> impl ...)
       else impl ... ]}

    so the disabled path is a direct call with no closure allocation. *)
let with_layer (l : layer) f =
  let subs = Atomic.get subscribers in
  if subs = 0 then f ()
  else begin
    let st = Domain.DLS.get state_key in
    let timed = subs land profiling <> 0 in
    let sampled =
      timed
      && begin
           if l >= Array.length st.lcalls then ensure_layers st;
           st.lcalls.(l) <- st.lcalls.(l) + 1;
           Span.enabled () && (st.lcalls.(l) - 1) mod span_every = 0
         end
    in
    let fr = { lf_layer = l; lf_start = (if timed then now () else 0.0); lf_child = 0.0 } in
    st.lstack <- fr :: st.lstack;
    let run () =
      let finish () =
        (match st.lstack with _ :: rest -> st.lstack <- rest | [] -> ());
        if timed then begin
          let dur = now () -. fr.lf_start in
          (match st.lstack with
          | parent :: _ -> parent.lf_child <- parent.lf_child +. dur
          | [] -> ());
          st.lfwd_total.(l) <- st.lfwd_total.(l) +. dur;
          st.lfwd_self.(l) <- st.lfwd_self.(l) +. (dur -. fr.lf_child)
        end
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    in
    if sampled then Span.with_ ~name:("layer." ^ (!layer_names).(l)) run else run ()
  end

(* ---------------- snapshots ---------------- *)

type op_stat = { op_name : string; count : int; flops : float; bytes : float; seconds : float }

type layer_stat = {
  layer_name : string;
  calls : int;
  fwd_total_s : float;
  fwd_self_s : float;
  bwd_s : float;
}

type snapshot = {
  ops : op_stat list;       (* name-sorted; zero-count entries dropped *)
  layers : layer_stat list; (* name-sorted; zero-call entries dropped *)
  untagged_bwd_s : float;
  snap_live_bytes : int;
  snap_peak_bytes : int;
}

(** Aggregate across all domain states.  Counters on other domains may be
    mid-update; profiling snapshots are end-of-run summaries, not a
    synchronisation point. *)
let snapshot () : snapshot =
  Mutex.lock states_mutex;
  let sts = !states in
  Mutex.unlock states_mutex;
  let onames = !op_names and lnames = !layer_names in
  let no = Array.length onames and nl = Array.length lnames in
  let oc = Array.make no 0
  and ofl = Array.make no 0.0
  and ob = Array.make no 0.0
  and os = Array.make no 0.0 in
  let lc = Array.make nl 0
  and lft = Array.make nl 0.0
  and lfs = Array.make nl 0.0
  and lb = Array.make nl 0.0 in
  let untagged = ref 0.0 in
  List.iter
    (fun st ->
      for i = 0 to min no (Array.length st.ocount) - 1 do
        oc.(i) <- oc.(i) + st.ocount.(i);
        ofl.(i) <- ofl.(i) +. st.oflops.(i);
        ob.(i) <- ob.(i) +. st.obytes.(i);
        os.(i) <- os.(i) +. st.osecs.(i)
      done;
      for i = 0 to min nl (Array.length st.lcalls) - 1 do
        lc.(i) <- lc.(i) + st.lcalls.(i);
        lft.(i) <- lft.(i) +. st.lfwd_total.(i);
        lfs.(i) <- lfs.(i) +. st.lfwd_self.(i);
        lb.(i) <- lb.(i) +. st.lbwd.(i)
      done;
      untagged := !untagged +. st.bwd_untagged)
    sts;
  let ops = ref [] in
  for i = no - 1 downto 0 do
    if oc.(i) > 0 then
      ops :=
        { op_name = onames.(i); count = oc.(i); flops = ofl.(i); bytes = ob.(i); seconds = os.(i) }
        :: !ops
  done;
  let layers = ref [] in
  for i = nl - 1 downto 0 do
    if lc.(i) > 0 then
      layers :=
        {
          layer_name = lnames.(i);
          calls = lc.(i);
          fwd_total_s = lft.(i);
          fwd_self_s = lfs.(i);
          bwd_s = lb.(i);
        }
        :: !layers
  done;
  {
    ops = List.sort (fun a b -> compare a.op_name b.op_name) !ops;
    layers = List.sort (fun a b -> compare a.layer_name b.layer_name) !layers;
    untagged_bwd_s = !untagged;
    snap_live_bytes = Atomic.get live_bytes_a;
    snap_peak_bytes = Atomic.get peak_bytes_a;
  }

let total_flops (s : snapshot) = List.fold_left (fun acc o -> acc +. o.flops) 0.0 s.ops

(* ---------------- registry publication ---------------- *)

(** Mirror the current snapshot into the {!Metrics} registry under the
    [profile.] prefix.  Idempotent: previous [profile.] entries are dropped
    first, so calling this from both [Obs.flush] and a report path is safe. *)
let publish () =
  let s = snapshot () in
  Metrics.reset_prefix "profile.";
  List.iter
    (fun (o : op_stat) ->
      let labels = [ ("op", o.op_name) ] in
      Metrics.add ~labels "profile.op_count" o.count;
      Metrics.fadd ~labels "profile.op_flops" o.flops;
      Metrics.fadd ~labels "profile.op_bytes" o.bytes;
      if o.seconds > 0.0 then Metrics.fadd ~labels "profile.op_seconds" o.seconds)
    s.ops;
  List.iter
    (fun (l : layer_stat) ->
      let labels = [ ("layer", l.layer_name) ] in
      Metrics.add ~labels "profile.layer_calls" l.calls;
      Metrics.fadd ~labels "profile.layer_forward_seconds" l.fwd_total_s;
      Metrics.fadd ~labels "profile.layer_forward_self_seconds" l.fwd_self_s;
      Metrics.fadd ~labels "profile.layer_backward_seconds" l.bwd_s)
    s.layers;
  if s.untagged_bwd_s > 0.0 then
    Metrics.fadd
      ~labels:[ ("layer", "(untagged)") ]
      "profile.layer_backward_seconds" s.untagged_bwd_s;
  Metrics.gauge "profile.total_flops" (total_flops s);
  Metrics.gauge "profile.live_bytes" (float_of_int s.snap_live_bytes);
  Metrics.gauge "profile.peak_bytes" (float_of_int s.snap_peak_bytes)

(* ---------------- resetting (tests) ---------------- *)

let reset () =
  Mutex.lock states_mutex;
  List.iter
    (fun st ->
      st.ocount <- [||];
      st.oflops <- [||];
      st.obytes <- [||];
      st.osecs <- [||];
      st.lcalls <- [||];
      st.lfwd_total <- [||];
      st.lfwd_self <- [||];
      st.lbwd <- [||];
      st.lstack <- [];
      st.bwd_untagged <- 0.0)
    !states;
  Mutex.unlock states_mutex;
  Atomic.set live_bytes_a 0;
  Atomic.set peak_bytes_a 0
