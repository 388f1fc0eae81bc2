(** What one workload run hands back to {!Main}. *)

type t = {
  problems : string list;  (* failed output checks, in the order found *)
  attempted : int;  (* operations the run attempted, checks included *)
  failed : int;  (* of which failed *)
  e2e : (string * float) list;
  layers : (string * float) list;  (* traced runs only; missing names read 0 *)
}

let now = Unix.gettimeofday

(** Peak resident set of a process ([/proc/<pid>/status] VmHWM) in MB. *)
let peak_rss_mb pid =
  let status = In_channel.with_open_bin (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(** Run [setup] [k] times, tearing down all but the last result; returns
    the median set-up time and the last result. *)
let repeated_setup ~k ~teardown setup =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    Option.iter teardown !last;
    last := None;
    let t0 = now () in
    let r = setup () in
    times := (now () -. t0) :: !times;
    last := Some r
  done;
  (Perfbench.Stats.median (Array.of_list !times), Option.get !last)

let ms x = 1000.0 *. x
