(** The traced run's instruments: spans around the calls the benchmark
    makes into each layer (the program's own span mechanism, switched on
    only in a traced run), the program's counters, and helpers that turn
    them into per-layer metrics.

    A layer's self time is its spans' duration minus the part covered by
    child spans on the same domain (see [Liger_obs.Span]). *)

module Span = Liger_obs.Span
module Metrics = Liger_obs.Metrics

(** Start recording: spans and counters, from a clean slate. *)
let start () =
  Span.reset ();
  Span.enable ();
  Metrics.reset ();
  Metrics.enable ()

let stop () =
  Span.disable ();
  Metrics.disable ()

(** [span name f]: a benchmark-owned span around one call into a layer. *)
let span name f = Span.with_ ~name f

type agg = { count : int; total_s : float; self_s : float; durations_s : float array }

(** Per-name aggregates of every span recorded since {!start}. *)
let aggregate () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (ev : Span.event) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl ev.Span.ev_name) in
      Hashtbl.replace tbl ev.Span.ev_name (ev :: l))
    (Span.events ());
  fun name ->
    match Hashtbl.find_opt tbl name with
    | None -> { count = 0; total_s = 0.0; self_s = 0.0; durations_s = [||] }
    | Some evs ->
        let durs = Array.of_list (List.map (fun (e : Span.event) -> e.Span.dur_us /. 1e6) evs) in
        {
          count = List.length evs;
          total_s = Array.fold_left ( +. ) 0.0 durs;
          self_s = List.fold_left (fun a (e : Span.event) -> a +. (e.Span.self_us /. 1e6)) 0.0 evs;
          durations_s = durs;
        }

let counter snap name = float_of_int (Metrics.counter_value snap name)

(** Time covered by any span since {!start}, summed over domains: the sum
    of every span's self time. *)
let covered () =
  List.fold_left (fun a (e : Span.event) -> a +. (e.Span.self_us /. 1e6)) 0.0 (Span.events ())
