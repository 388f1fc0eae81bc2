(** The process configuration: the one module that reads the environment.

    Nine [LIGER_*] variables configure a run.  {!get} reads them once per
    process, and every other module takes its values from the result.  The
    rule is the same for each variable: an empty (or all-blank) value counts
    as unset, and a malformed one raises [Invalid_argument] naming the
    variable and the form it expects.  Where a variable has a CLI flag
    twin, the code that resolves the flag lets the flag win.

    {v
    variable             form                          default
    LIGER_JOBS           positive integer              one lane per core
    LIGER_LOG            quiet|error|warn|info|debug   warn
    LIGER_RUN_ID         directory name                timestamp-pid
    LIGER_RUNS_DIR       path                          runs
    LIGER_FAILPOINT      site[:n], n a positive int    none
    LIGER_METRICS        1|0|true|false|yes|no|on|off  off
    LIGER_TRACE          1|0|true|false|yes|no|on|off  off
    LIGER_METRICS_EVERY  seconds > 0                   no ledger
    LIGER_SCALE          quick|full                    quick
    v} *)

type scale = Quick | Full

type t = {
  jobs : int option;  (** domain-pool lanes; [None]: [Domain.recommended_domain_count ()] *)
  log : Logs.level option;  (** [None] disables logging ([quiet]) *)
  run_id : string option;  (** [None]: timestamp and pid *)
  runs_dir : string;  (** root of the per-run directories *)
  failpoint : (string * int) option;  (** raise at the [n]-th pass of [site] *)
  metrics : bool;  (** metrics snapshot into the run directory *)
  trace : bool;  (** Chrome trace into the run directory *)
  metrics_every : float option;  (** run-ledger interval in seconds *)
  scale : scale;  (** size of the paper's evaluation *)
}

let default =
  {
    jobs = None;
    log = Some Logs.Warning;
    run_id = None;
    runs_dir = "runs";
    failpoint = None;
    metrics = false;
    trace = false;
    metrics_every = None;
    scale = Quick;
  }

let malformed var expected got =
  invalid_arg (Printf.sprintf "%s: expected %s, got %S" var expected got)

let level_of_string = function
  | "quiet" -> Ok None
  | "error" -> Ok (Some Logs.Error)
  | "warn" | "warning" -> Ok (Some Logs.Warning)
  | "info" -> Ok (Some Logs.Info)
  | "debug" -> Ok (Some Logs.Debug)
  | s -> Error s

let positive_int var s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ -> malformed var "a positive integer" s

let flag var s =
  match String.lowercase_ascii s with
  | "1" | "true" | "yes" | "on" -> true
  | "0" | "false" | "no" | "off" -> false
  | _ -> malformed var "1|0|true|false|yes|no|on|off" s

let log_level var s =
  match level_of_string (String.lowercase_ascii s) with
  | Ok level -> level
  | Error _ -> malformed var "quiet|error|warn|info|debug" s

(* The run id names one directory under the runs root.  Neither may hold a
   control character: both are printed by the line-oriented views
   ([liger top], the postmortem notice). *)
let printable s = String.for_all (fun c -> c >= ' ' && c <> '\127') s

let path var s = if printable s then s else malformed var "a path without control characters" s

let run_id var s =
  if printable s && (not (String.contains s '/')) && s <> "." && s <> ".." then s
  else malformed var "a directory name (no '/' or control characters)" s

let failpoint var s =
  let site, n =
    match String.index_opt s ':' with
    | None -> (s, Some 1)
    | Some i ->
        ( String.trim (String.sub s 0 i),
          int_of_string_opt (String.trim (String.sub s (i + 1) (String.length s - i - 1))) )
  in
  match n with
  | Some n when n >= 1 && site <> "" -> (site, n)
  | _ -> malformed var "site[:n] with n a positive integer" s

let seconds var s =
  match float_of_string_opt s with
  | Some e when e > 0.0 -> e
  | _ -> malformed var "seconds > 0" s

let scale var s =
  match String.lowercase_ascii s with
  | "quick" -> Quick
  | "full" -> Full
  | _ -> malformed var "quick|full" s

(** The configuration [env] describes; [env] maps a variable name to its
    value, as [Sys.getenv_opt] does. *)
let parse env =
  let read var conv ~default =
    match Option.map String.trim (env var) with
    | None | Some "" -> default
    | Some s -> conv var s
  in
  let some conv var s = Some (conv var s) in
  {
    jobs = read "LIGER_JOBS" (some positive_int) ~default:default.jobs;
    log = read "LIGER_LOG" log_level ~default:default.log;
    run_id = read "LIGER_RUN_ID" (some run_id) ~default:default.run_id;
    runs_dir = read "LIGER_RUNS_DIR" path ~default:default.runs_dir;
    failpoint = read "LIGER_FAILPOINT" (some failpoint) ~default:default.failpoint;
    metrics = read "LIGER_METRICS" flag ~default:default.metrics;
    trace = read "LIGER_TRACE" flag ~default:default.trace;
    metrics_every = read "LIGER_METRICS_EVERY" (some seconds) ~default:default.metrics_every;
    scale = read "LIGER_SCALE" scale ~default:default.scale;
  }

(* Parsed on first use rather than at program start, so a malformed value
   fails the first code that needs the configuration.  Two domains racing
   here parse the same environment to equal values. *)
let cached : t option Atomic.t = Atomic.make None

(** This process's configuration, read from the environment on the first
    call. *)
let get () =
  match Atomic.get cached with
  | Some c -> c
  | None ->
      let c = parse Sys.getenv_opt in
      Atomic.set cached (Some c);
      c
