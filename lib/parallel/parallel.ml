(** A fixed-size domain pool with deterministic parallel maps.

    The trace pipeline — interpret a method under many inputs, symbolically
    execute it, filter, encode — is embarrassingly parallel per method, and
    evaluation is embarrassingly parallel per example.  This module gives
    those call sites one primitive, {!map} (plus order-preserving
    {!filter_map} and the RNG-splitting variants), backed by a pool of
    [jobs - 1] worker domains that is created on first use and reused across
    calls.

    {b Determinism contract.}  [jobs = 1] and [jobs = N] produce identical
    results, by construction:

    - results are written into a slot per input index, so output order never
      depends on completion order;
    - randomized tasks get their generator through {!map_rng} /
      {!filter_map_rng}, which derive one generator per task with
      {!Rng.split} {e in task order, before} anything runs in parallel;
    - callers keep every other side effect (vocabulary interning, id
      assignment, tallying) out of the parallel section.

    The pool size comes from [LIGER_JOBS] ({!Liger_obs.Config}) when set,
    else [Domain.recommended_domain_count ()]; {!set_jobs} overrides both
    (tests and the bench harness use it).  A nested call from inside a
    worker runs sequentially in that worker — tasks may therefore freely
    call code that itself uses this module. *)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(* Pool telemetry lives in the {!Liger_obs.Metrics} registry (disabled by
   default; one branch per event when off):

     parallel.tasks                  tasks executed
     parallel.batches                map/filter_map calls
     parallel.wall_seconds           wall time inside map calls
     parallel.busy_seconds{domain=i} per-lane time spent running tasks
     parallel.batch_tasks            histogram of tasks per map call
     parallel.dispatch_seconds       histogram: caller-side share push + wakeup
     parallel.queue_wait_seconds     histogram: share enqueue -> worker pickup

   Slot 0 is the submitting (caller) domain; slots 1..size are workers.
   The three histograms are the dispatch-overhead diagnostics behind the
   parallel-slowdown analysis (DESIGN.md "Domain pool"). *)

let slot_key = Domain.DLS.new_key (fun () -> 0)

(* Each domain accounts its busy time once, at the outermost timing point:
   a nested map (sequential fallback in a worker, or a nested parallel call
   from the caller's lane) runs inside its enclosure's interval and must not
   be credited again, or per-domain busy time would exceed wall x lanes. *)
let accounting_key = Domain.DLS.new_key (fun () -> ref false)

let add_busy dt =
  Liger_obs.Metrics.fadd "parallel.busy_seconds"
    ~labels:[ ("domain", string_of_int (Domain.DLS.get slot_key)) ]
    dt

let timed_busy f =
  if not (Liger_obs.Metrics.enabled ()) then f ()
  else begin
    let accounting = Domain.DLS.get accounting_key in
    if !accounting then f ()
    else begin
      accounting := true;
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          accounting := false;
          add_busy (Unix.gettimeofday () -. t0))
        f
    end
  end

(* tasks-per-batch sizes; dispatch/queue-wait latencies (sub-ms resolution) *)
let size_buckets = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

let wait_buckets =
  [| 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0 |]

let record_batch ~n ~wall_dt =
  if Liger_obs.Metrics.enabled () then begin
    Liger_obs.Metrics.add "parallel.tasks" n;
    Liger_obs.Metrics.incr "parallel.batches";
    Liger_obs.Metrics.fadd "parallel.wall_seconds" wall_dt;
    Liger_obs.Metrics.observe ~buckets:size_buckets "parallel.batch_tasks" (float_of_int n)
  end

(** Reading the registry entries above: the counters are plain
    {!Liger_obs.Metrics} counters; the per-slot busy time is one labelled
    float counter per slot. *)
module Stats = struct
  (** Busy seconds by pool slot (0 = the caller) in a metrics snapshot. *)
  let busy_of_snapshot snap =
    let entries = Liger_obs.Metrics.entries_with snap "parallel.busy_seconds" in
    let slot_of (e : Liger_obs.Metrics.entry) =
      match e.Liger_obs.Metrics.e_labels with
      | [ ("domain", s) ] -> int_of_string_opt s
      | _ -> None
    in
    let slots =
      List.fold_left
        (fun acc e -> match slot_of e with Some s -> max acc (s + 1) | None -> acc)
        0 entries
    in
    let arr = Array.make slots 0.0 in
    List.iter
      (fun (e : Liger_obs.Metrics.entry) ->
        match (slot_of e, e.Liger_obs.Metrics.e_value) with
        | Some s, Liger_obs.Metrics.F x -> arr.(s) <- x
        | _ -> ())
      entries;
    arr
end

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

(* Worker domains run closures from a shared queue; a closure is one
   participant's share of a batch (it drains the batch's index counter), so
   the queue stays short — at most [jobs - 1] entries per map call. *)
type pool = {
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable stop : bool;
}

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* Below this many tasks a map runs sequentially even when a pool exists:
   share dispatch costs tens of microseconds (see parallel.dispatch_seconds)
   and tiny batches cannot amortize it. *)
let min_batch = 4

(* Global state: configured size + the (lazily created) pool. *)
let global_mutex = Mutex.create ()
let configured_jobs : int option ref = ref None  (* None: not yet resolved *)
let the_pool : pool option ref = ref None

let worker_loop pool slot =
  Domain.DLS.set in_worker_key true;
  Domain.DLS.set slot_key slot;
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work_available pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stop *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      (try task () with _ -> () (* batch shares record their own errors *));
      loop ()
    end
  in
  loop ()

let shutdown_locked () =
  match !the_pool with
  | None -> ()
  | Some pool ->
      Mutex.lock pool.mutex;
      pool.stop <- true;
      Condition.broadcast pool.work_available;
      Mutex.unlock pool.mutex;
      Array.iter Domain.join pool.workers;
      the_pool := None

let () = at_exit (fun () ->
    Mutex.lock global_mutex;
    shutdown_locked ();
    Mutex.unlock global_mutex)

(** Number of parallel lanes (caller + workers) the next map will use. *)
let jobs () =
  Mutex.protect global_mutex (fun () ->
      match !configured_jobs with
      | Some n -> n
      | None ->
          let n =
            match (Liger_obs.Config.get ()).Liger_obs.Config.jobs with
            | Some n -> n
            | None -> Domain.recommended_domain_count ()
          in
          configured_jobs := Some n;
          n)

(** Override the pool size (shutting down any existing pool).  Intended for
    tests and the bench harness; normal runs size the pool once from
    [LIGER_JOBS]. *)
let set_jobs n =
  if n < 1 then invalid_arg "Parallel.set_jobs: jobs must be >= 1";
  Mutex.lock global_mutex;
  if !configured_jobs <> Some n then begin
    shutdown_locked ();
    configured_jobs := Some n
  end;
  Mutex.unlock global_mutex

(* The pool holds [jobs - 1] workers; the calling domain is the remaining
   lane.  Created on first parallel call, reused afterwards. *)
let get_pool () =
  let n = jobs () in
  Mutex.lock global_mutex;
  let pool =
    match !the_pool with
    | Some p -> p
    | None ->
        let recommended = Domain.recommended_domain_count () in
        if n > recommended then begin
          Logs.warn (fun m ->
              m
                "Parallel: %d jobs on %d available core(s) oversubscribes the CPU; \
                 expect a slowdown, not a speedup (see DESIGN.md)"
                n recommended);
          if Liger_obs.Recorder.enabled () then
            Liger_obs.Recorder.note
              ~detail:(Printf.sprintf "%d jobs on %d cores" n recommended)
              "parallel.oversubscribed"
        end;
        Liger_obs.Metrics.gauge "parallel.jobs" (float_of_int n);
        if Liger_obs.Recorder.enabled () then
          Liger_obs.Recorder.note ~detail:(string_of_int n ^ " jobs") "parallel.pool_created";
        let pool =
          {
            workers = [||];
            queue = Queue.create ();
            mutex = Mutex.create ();
            work_available = Condition.create ();
            stop = false;
          }
        in
        pool.workers <-
          Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
        the_pool := Some pool;
        pool
  in
  Mutex.unlock global_mutex;
  pool

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

(* The caller waits for every worker share it queued, not for every task:
   a share's busy time and queue-wait sample are recorded when the share
   ends, and [map] must not return before that, or its telemetry would land
   in whatever snapshot (or reset) comes next. *)
type batch = {
  n : int;
  run_one : int -> unit;
  next : int Atomic.t;       (* self-scheduling index; dynamic load balance *)
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  mutable pending_shares : int;  (* worker shares not yet finished *)
}

(* Drain the batch's index counter until empty. *)
let drain batch =
  let rec loop () =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i < batch.n then begin
      batch.run_one i;
      loop ()
    end
  in
  loop ()

(* Runs in each worker share after it drains and before its accounting;
   tests set a delay here to widen the window the accounting lands in. *)
let after_drain = Atomic.make ignore

module For_testing = struct
  let set_after_drain f = Atomic.set after_drain f
end

(* One worker's share of a batch: drain, account, then count the share
   finished.  [enq] is the enqueue time when telemetry is on. *)
let run_share batch ~enq =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock batch.done_mutex;
      batch.pending_shares <- batch.pending_shares - 1;
      if batch.pending_shares = 0 then Condition.broadcast batch.done_cond;
      Mutex.unlock batch.done_mutex)
    (fun () ->
      timed_busy (fun () ->
          Option.iter
            (fun enq ->
              Liger_obs.Metrics.observe ~buckets:wait_buckets "parallel.queue_wait_seconds"
                (Unix.gettimeofday () -. enq))
            enq;
          drain batch;
          (Atomic.get after_drain) ()))

let sequential_map f arr =
  let t0 = Unix.gettimeofday () in
  let r = timed_busy (fun () -> Array.map f arr) in
  record_batch ~n:(Array.length arr) ~wall_dt:(Unix.gettimeofday () -. t0);
  r

(** [map f arr] applies [f] to every element, on up to [jobs] domains, and
    returns the results in input order.  The first exception raised by a
    task is re-raised in the caller (all started tasks still complete).
    Nested calls from inside a task run sequentially. *)
let map (f : 'a -> 'b) (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let j = jobs () in
  if n = 0 then [||]
  else if j <= 1 || n < min_batch || in_worker () then sequential_map f arr
  else begin
    let t0 = Unix.gettimeofday () in
    let results : 'b option array = Array.make n None in
    let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let run_one i =
      match f arr.(i) with
      | r -> results.(i) <- Some r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (e, bt)))
    in
    let pool = get_pool () in
    let shares = min (Array.length pool.workers) (n - 1) in
    let batch =
      {
        n;
        run_one;
        next = Atomic.make 0;
        done_mutex = Mutex.create ();
        done_cond = Condition.create ();
        pending_shares = shares;
      }
    in
    let telemetry = Liger_obs.Metrics.enabled () in
    let t_dispatch = if telemetry then Unix.gettimeofday () else 0.0 in
    Mutex.lock pool.mutex;
    for _ = 1 to shares do
      let enq = if telemetry then Some (Unix.gettimeofday ()) else None in
      Queue.push (fun () -> run_share batch ~enq) pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    if telemetry then
      Liger_obs.Metrics.observe ~buckets:wait_buckets "parallel.dispatch_seconds"
        (Unix.gettimeofday () -. t_dispatch);
    (* the caller is a participant too *)
    timed_busy (fun () -> drain batch);
    Mutex.lock batch.done_mutex;
    while batch.pending_shares > 0 do
      Condition.wait batch.done_cond batch.done_mutex
    done;
    Mutex.unlock batch.done_mutex;
    record_batch ~n ~wall_dt:(Unix.gettimeofday () -. t0);
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some r -> r | None -> assert false) results
  end

(** {!map} over a list. *)
let map_list f l = Array.to_list (map f (Array.of_list l))

(** Order-preserving parallel filter_map over a list. *)
let filter_map f l = List.filter_map Fun.id (map_list f l)

(* Split one generator per task, in task order — the determinism-critical
   step, done sequentially before anything runs. *)
let split_rngs rng n =
  let rngs = Array.make n rng in
  for i = 0 to n - 1 do
    rngs.(i) <- Liger_tensor.Rng.split rng
  done;
  rngs

(** [map_rng rng f arr]: like {!map}, but each task receives its own
    generator derived from [rng] by {!Rng.split} in task order, so the
    result is independent of the number of domains. *)
let map_rng rng (f : Liger_tensor.Rng.t -> 'a -> 'b) (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let rngs = split_rngs rng n in
  map (fun i -> f rngs.(i) arr.(i)) (Array.init n Fun.id)

let map_rng_list rng f l =
  Array.to_list (map_rng rng f (Array.of_list l))

(** Order-preserving [filter_map] with per-task generators. *)
let filter_map_rng rng f l =
  List.filter_map Fun.id (map_rng_list rng f l)

(* Hand the pool to the tensor kernels: [lib/tensor] cannot depend on this
   library (it would close a cycle through {!Rng}), so GEMM parallelism is
   dependency-injected here at module initialisation.  Tasks cover disjoint
   output-row blocks, so any schedule — including the sequential fallbacks
   for nested calls or tiny pools — produces identical bits. *)
let () =
  Liger_tensor.Tensor.set_parallel_runner (fun f n ->
      ignore (map f (Array.init n Fun.id)))
