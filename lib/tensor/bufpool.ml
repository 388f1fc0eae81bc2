(** Arena-style pooling of {!Tensor.buf} storage for the batched engine.

    Every step of batched training leases node values and gradients of
    [lanes × dim] elements, and shuffled ragged batches make those counts
    different from step to step.  So storage is pooled by geometric size
    class: a lease of [n] elements is served from the freelist of the
    smallest power of two [>= n], and the caller gets that size-class
    buffer itself, which holds at least [n] elements.  Shapes only need to
    fall into the same class to reuse each other's storage, and every
    {!Tensor} op reads and writes only the first [rows × cols] elements of
    its storage, so what lies past them is never seen.

    Lifetime rules (see also DESIGN.md):
    - {!take} transfers ownership of the buffer to the caller; {!give}
      takes it back, and it may not be used after that.
    - The batched tape ({!Batched}) takes buffers at node creation and
      gives every one back in [release_tape] / [discard]; node values are
      therefore invalid after the tape is released — copy out anything you
      need first ({!Tensor.to_array}).
    - Freelists are per-domain ([Domain.DLS]): no locks, and a buffer
      taken on one domain is returned to that domain's list, so pooling
      never creates cross-domain sharing.
    - Gradients are zero-filled on {!take_zeroed} (the first [n]
      elements); values are returned uninitialised.

    The pool bounds itself: it parks a given-back buffer only while its
    pooled elements stay within the high-water mark of the elements it has
    had out on lease at once.  A step that leases no more than an earlier
    step is then served entirely from the pool, and the pool never holds
    more than one such step's worth of storage.

    Occupancy telemetry: each pool keeps incrementally-maintained lease
    and occupancy counters, and {!publish} turns them into per-domain
    [bufpool.*] gauges.  It is registered as a {!Liger_obs.Timeseries}
    enricher at module initialisation, so run-ledger snapshots carry the
    pool state without [lib/obs] ever depending on this library.  The
    publisher reads other domains' counters without taking a lock —
    int fields are word-atomic, and a momentarily stale gauge is fine
    for a trend line. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable returned : int;
  mutable leased : int;           (* buffers out on lease right now *)
  mutable hw_leased : int;        (* high-water mark of [leased] *)
  mutable leased_elems : int;     (* buffer elements out on lease *)
  mutable hw_leased_elems : int;  (* high-water mark of [leased_elems]: the bound *)
  mutable pooled : int;           (* buffers parked in freelists *)
  mutable pooled_elems : int;     (* buffer elements parked in freelists *)
}

(* size classes are the powers of two up to 2^62, plus one empty class
   above so the next-class-up lookup needs no bound check *)
let n_classes = 64

(* [free.(c)] is the stack of parked buffers of class [c] *)
type pool = { dom : int; free : Tensor.buf list array; stats : stats }

(* every domain registers its pool on first use so [publish] can walk
   them; pools survive the domain (a retired worker's counters still
   publish) *)
let pools_mutex = Mutex.create ()
let pools : pool list ref = ref []

let key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let p =
        {
          dom = (Domain.self () :> int);
          free = Array.make n_classes [];
          stats =
            {
              hits = 0;
              misses = 0;
              returned = 0;
              leased = 0;
              hw_leased = 0;
              leased_elems = 0;
              hw_leased_elems = 0;
              pooled = 0;
              pooled_elems = 0;
            };
        }
      in
      Mutex.lock pools_mutex;
      pools := p :: !pools;
      Mutex.unlock pools_mutex;
      p)

let pool () = Domain.DLS.get key

(* smallest [c] with [2^c >= n] *)
let class_of n =
  let c = ref 0 in
  while 1 lsl !c < n do
    incr c
  done;
  !c

(** Lease storage for [n] elements: a size-class buffer of at least [n]
    elements, to hand back to {!give}.  Contents are unspecified. *)
let take n : Tensor.buf =
  if n <= 0 then invalid_arg "Bufpool.take: non-positive size";
  let p = pool () in
  let s = p.stats in
  let c = class_of n in
  (* an idle buffer of the next class up serves before a fresh allocation *)
  let c = if List.is_empty p.free.(c) && not (List.is_empty p.free.(c + 1)) then c + 1 else c in
  let cap = 1 lsl c in
  s.leased <- s.leased + 1;
  if s.leased > s.hw_leased then s.hw_leased <- s.leased;
  s.leased_elems <- s.leased_elems + cap;
  if s.leased_elems > s.hw_leased_elems then s.hw_leased_elems <- s.leased_elems;
  match p.free.(c) with
  | b :: rest ->
      p.free.(c) <- rest;
      s.hits <- s.hits + 1;
      s.pooled <- s.pooled - 1;
      s.pooled_elems <- s.pooled_elems - cap;
      b
  | [] ->
      s.misses <- s.misses + 1;
      Tensor.alloc_buf cap

(** {!take} with the first [n] elements zero-filled (gradients). *)
let take_zeroed n =
  let b = take n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i 0.0
  done;
  b

(** Return a buffer from {!take} to the current domain's pool.  It is
    parked only while the pooled elements stay within the lease high-water
    mark; otherwise it is left to the GC. *)
let give (b : Tensor.buf) =
  let cap = Bigarray.Array1.dim b in
  let c = class_of cap in
  if 1 lsl c <> cap then invalid_arg "Bufpool.give: not a pool buffer";
  let p = pool () in
  let s = p.stats in
  s.returned <- s.returned + 1;
  s.leased <- s.leased - 1;
  s.leased_elems <- s.leased_elems - cap;
  if s.pooled_elems + cap <= s.hw_leased_elems then begin
    p.free.(c) <- b :: p.free.(c);
    s.pooled <- s.pooled + 1;
    s.pooled_elems <- s.pooled_elems + cap
  end

(** Drop every pooled buffer on the current domain (tests; memory release). *)
let clear () =
  let p = pool () in
  Array.fill p.free 0 n_classes [];
  p.stats.pooled <- 0;
  p.stats.pooled_elems <- 0

(** A copy of the current domain's counters. *)
let stats () =
  let s = (pool ()).stats in
  { s with hits = s.hits }

(** Publish every domain's pool counters as per-domain [bufpool.*]
    gauges.  Registered as a run-ledger enricher below; a no-op when the
    metrics registry is off. *)
let publish () =
  if Liger_obs.Metrics.enabled () then begin
    Mutex.lock pools_mutex;
    let ps = !pools in
    Mutex.unlock pools_mutex;
    List.iter
      (fun p ->
        let labels = [ ("domain", string_of_int p.dom) ] in
        let s = p.stats in
        let gauge name v = Liger_obs.Metrics.gauge ~labels name (float_of_int v) in
        gauge "bufpool.leased" s.leased;
        gauge "bufpool.hw_leased" s.hw_leased;
        gauge "bufpool.pooled_buffers" s.pooled;
        gauge "bufpool.pooled_elements" s.pooled_elems;
        gauge "bufpool.hits" s.hits;
        gauge "bufpool.misses" s.misses;
        gauge "bufpool.returns" s.returned)
      ps
  end

let () = Liger_obs.Timeseries.register_enricher publish
