(** The fuzzing driver: generate → check → shrink → persist.

    A run is a pure function of its seed: the master RNG only pre-draws one
    generation seed per iteration, every oracle seed is derived arithmetically
    from it, and program generation happens sequentially from a reset
    statement-id counter — so the parallel oracle checks can land in any
    order without affecting what was checked or the verdicts.  Failures are
    shrunk and written under [fuzz/corpus/] as a [.mj] source plus a [.json]
    descriptor that {!replay} can reproduce from alone. *)

open Liger_lang
open Liger_tensor
open Liger_obs
module Parallel = Liger_parallel.Parallel

type failure = {
  oracle : string;
  iter : int;
  gen_seed : int;
  oracle_seed : int;
  message : string;
  orig : Ast.meth;
  shrunk : Ast.meth;
  shrink_steps : int;
  artifact : string option;  (* path of the persisted .json, if any *)
}

type tally = { mutable passed : int; mutable failed : int; mutable skipped : int }

type summary = {
  seed : int;
  programs : int;          (* generated (= iterations completed) *)
  checks : int;            (* oracle evaluations, batch entries included *)
  failures : failure list; (* in iteration order *)
  tallies : (string * tally) list;  (* one per oracle, registry order *)
  elapsed_s : float;
}

let chunk_size = 16
let det_sample = 4  (* programs per chunk fed to batch oracles *)

let oracle_seed_of ~gen_seed j = gen_seed + (1000003 * (j + 1))

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* The autodiff oracle never reads the program, so shrinking it would just
   re-run the (expensive) gradient check on ever-smaller irrelevant methods. *)
let shrink_attempts = function
  | "roundtrip" | "soundness" -> 2000
  | "symexec" | "analysis" | "absint" -> 600
  | "determinism" -> 100
  | _ -> 0

let shrink_failure (o : Oracle.t) ~oracle_seed m =
  let max_attempts = shrink_attempts o.Oracle.name in
  if max_attempts = 0 then Shrink.{ shrunk = m; steps = 0; attempts = 0 }
  else
    let still_fails m' =
      match Oracle.check_one o ~seed:oracle_seed m' with
      | Oracle.Fail _ -> true
      | Oracle.Pass | Oracle.Skip _ -> false
    in
    Shrink.run ~max_attempts ~still_fails m

(* ------------------------------------------------------------------ *)
(* Corpus persistence                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* lib/obs's Json is a reader; the writer here is all the fuzzer needs *)
let json_of_failure ~run_seed (f : failure) =
  let b = Buffer.create 512 in
  let str s = Buffer.add_char b '"'; Buffer.add_string b (Json.escape s); Buffer.add_char b '"' in
  let field name add v =
    Buffer.add_string b (Printf.sprintf "  \"%s\": " name);
    add v;
    Buffer.add_string b ",\n"
  in
  Buffer.add_string b "{\n";
  field "oracle" str f.oracle;
  field "run_seed" (fun n -> Buffer.add_string b (string_of_int n)) run_seed;
  field "iter" (fun n -> Buffer.add_string b (string_of_int n)) f.iter;
  field "gen_seed" (fun n -> Buffer.add_string b (string_of_int n)) f.gen_seed;
  field "oracle_seed" (fun n -> Buffer.add_string b (string_of_int n)) f.oracle_seed;
  field "message" str f.message;
  field "shrink_steps" (fun n -> Buffer.add_string b (string_of_int n)) f.shrink_steps;
  field "orig_src" str (Pretty.meth_to_string f.orig);
  Buffer.add_string b "  \"src\": ";
  str (Pretty.meth_to_string f.shrunk);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let persist ~out_dir ~run_seed (f : failure) =
  mkdir_p out_dir;
  let base = Printf.sprintf "%s-s%d-i%d" f.oracle run_seed f.iter in
  let mj = Filename.concat out_dir (base ^ ".mj") in
  let js = Filename.concat out_dir (base ^ ".json") in
  write_file mj (Pretty.meth_to_string f.shrunk);
  write_file js (json_of_failure ~run_seed f);
  { f with artifact = Some js }

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let default_oracles = Oracle.all

(** Fuzz [iters] programs (or until [budget_s] wall-clock seconds, checked
    between chunks).  When [persist_failures] (default), shrunk failures are
    written under [out_dir]. *)
let run ?(oracles = default_oracles) ?(iters = 200) ?budget_s
    ?(out_dir = Filename.concat "fuzz" "corpus") ?(persist_failures = true) ~seed () : summary =
  Span.with_ ~name:"fuzz.run" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Ast.reset_sids ();
  let master = Rng.create seed in
  let gen_seeds = Array.init iters (fun _ -> Rng.int master 0x3FFFFFFF) in
  let tallies = List.map (fun o -> (o.Oracle.name, { passed = 0; failed = 0; skipped = 0 })) oracles in
  let tally name = List.assoc name tallies in
  let checks = ref 0 in
  let failures = ref [] in
  let programs = ref 0 in
  let over_budget () =
    match budget_s with
    | None -> false
    | Some s -> Unix.gettimeofday () -. t0 >= s
  in
  let per_prog, per_batch =
    List.partition (fun o -> match o.Oracle.kind with Oracle.Per_prog _ -> true | _ -> false)
      oracles
  in
  let record_failure o ~iter ~gen_seed ~oracle_seed ~msg m =
    Metrics.incr ~labels:[ ("oracle", o.Oracle.name) ] "fuzz.failures";
    if Obs.Recorder.enabled () then
      Obs.Recorder.note
        ~detail:(Printf.sprintf "%s at iter %d: %s" o.Oracle.name iter msg)
        "fuzz.failure";
    let sh = shrink_failure o ~oracle_seed m in
    Metrics.add "fuzz.shrink_steps" sh.Shrink.steps;
    (* re-derive the message for the *shrunk* program where possible, so the
       artifact describes what it contains *)
    let msg =
      match Oracle.check_one o ~seed:oracle_seed sh.Shrink.shrunk with
      | Oracle.Fail m -> m
      | _ -> msg
    in
    let f =
      { oracle = o.Oracle.name; iter; gen_seed; oracle_seed; message = msg; orig = m;
        shrunk = sh.Shrink.shrunk; shrink_steps = sh.Shrink.steps; artifact = None }
    in
    let f = if persist_failures then persist ~out_dir ~run_seed:seed f else f in
    failures := f :: !failures
  in
  let i = ref 0 in
  while !i < iters && not (over_budget ()) do
    let lo = !i in
    let hi = min iters (lo + chunk_size) in
    i := hi;
    (* a crash mid-battery leaves the chunk bounds in the flight ring *)
    if Obs.Recorder.enabled () then
      Obs.Recorder.note ~detail:(Printf.sprintf "iters %d..%d" lo (hi - 1)) "fuzz.chunk";
    (* generation is sequential: the statement-id counter is global *)
    let meths =
      Array.init (hi - lo) (fun k -> Gen.gen (Rng.create gen_seeds.(lo + k)))
    in
    programs := !programs + Array.length meths;
    (* all (program, per-program oracle) pairs of the chunk go on the pool *)
    let work =
      Array.concat
        (List.mapi
           (fun j o -> Array.init (Array.length meths) (fun k -> (j, o, k)))
           per_prog)
    in
    let verdicts =
      Parallel.map
        (fun (j, o, k) ->
          Metrics.incr "fuzz.runs";
          let oracle_seed = oracle_seed_of ~gen_seed:gen_seeds.(lo + k) j in
          (o, k, oracle_seed, Oracle.check_one o ~seed:oracle_seed meths.(k)))
        work
    in
    checks := !checks + Array.length verdicts;
    Array.iter
      (fun (o, k, oracle_seed, v) ->
        let t = tally o.Oracle.name in
        match v with
        | Oracle.Pass -> t.passed <- t.passed + 1
        | Oracle.Skip _ -> t.skipped <- t.skipped + 1
        | Oracle.Fail msg ->
            t.failed <- t.failed + 1;
            record_failure o ~iter:(lo + k) ~gen_seed:gen_seeds.(lo + k) ~oracle_seed ~msg
              meths.(k))
      verdicts;
    (* batch oracles manage the pool themselves (jobs=1 vs jobs=N), so they
       run on this domain, over a small sample of the chunk *)
    List.iteri
      (fun jb o ->
        match o.Oracle.kind with
        | Oracle.Per_prog _ -> ()
        | Oracle.Per_batch f ->
            let n = min det_sample (Array.length meths) in
            let sample = Array.sub meths 0 n in
            let oracle_seed =
              oracle_seed_of ~gen_seed:gen_seeds.(lo) (List.length per_prog + jb)
            in
            Metrics.add "fuzz.runs" n;
            checks := !checks + n;
            let t = tally o.Oracle.name in
            let fails = f ~seed:oracle_seed sample in
            t.failed <- t.failed + List.length fails;
            t.passed <- t.passed + (n - List.length fails);
            List.iter
              (fun (k, msg) ->
                record_failure o ~iter:(lo + k) ~gen_seed:gen_seeds.(lo + k) ~oracle_seed ~msg
                  sample.(k))
              fails)
      per_batch
  done;
  {
    seed;
    programs = !programs;
    checks = !checks;
    failures = List.rev !failures;
    tallies;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type replay_result = {
  r_oracle : string;
  r_verdict : Oracle.verdict;
  reproduced : bool;  (* the persisted failure fails again *)
}

(** Re-run the oracle recorded in a persisted [.json] descriptor against the
    shrunk source it carries. *)
let replay path : (replay_result, string) result =
  match Json.parse_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j -> (
      let str name = Option.bind (Json.member name j) Json.to_string in
      let num name = Option.bind (Json.member name j) Json.to_float in
      match (str "oracle", num "oracle_seed", str "src") with
      | Some name, Some oseed, Some src -> (
          match Oracle.find name with
          | None -> Error (Printf.sprintf "unknown oracle %S" name)
          | Some o -> (
              match Parser.method_of_string src with
              | exception e -> Error ("artifact source does not parse: " ^ Printexc.to_string e)
              | m ->
                  let v = Oracle.check_one o ~seed:(int_of_float oseed) m in
                  Ok
                    {
                      r_oracle = name;
                      r_verdict = v;
                      reproduced = (match v with Oracle.Fail _ -> true | _ -> false);
                    }))
      | _ -> Error (path ^ ": missing oracle/oracle_seed/src fields"))
