(** Workload [corpus]: the paper's front half — filter, test generation,
    blending, vocabulary, encoding — over fresh generated methods on one
    domain, in stratified rounds (see {!Inputs}).  A traced run also
    repeats its rounds on a two-domain pool to measure the pool. *)

open Liger_tensor
open Perfbench
module Pipeline = Liger_dataset.Pipeline
module Javagen = Liger_dataset.Javagen
module Stats_table = Liger_dataset.Stats
module Filter = Liger_testgen.Filter
module Feedback = Liger_testgen.Feedback
module Common = Liger_core.Common
module Parallel = Liger_parallel.Parallel

(* One domain.  On a pool of two, the rate followed how much time the
   host gave the second core: same seed, 11.5 methods/s at 11% steal time
   and 14.9 at 2%, against 12.1-12.6 on one domain at any steal.  Each
   split hands Filter.run a handful of methods, so the second domain
   works alone or idles at the end of every split. *)
let jobs = 1

(* the traced run's pool, for the parallel layer's figures *)
let pool_jobs = 2

(* The set-up's warm-up: [warm_up_builds] builds of one method of each
   of the first six templates (array loops whose test generation takes
   milliseconds in every variant), drawn from a fixed generator: set-up
   does the same work whatever the seed, long enough to be timed
   steadily. *)
let warm_up_methods = 6
let warm_up_builds = 25

(* The body of [Pipeline.build_naming] over methods the benchmark generated:
   build_naming draws its own methods, which would leave the template mix
   to chance (see {!Inputs}).  Same calls, same order, same spans, except
   that with [per_method] [Filter.run] takes one method at a time (on one
   domain that is the same work) so that each method's filter time is
   known.  Returns the corpus, the executions test generation kept, and
   the filter time of each item, in the order of [items]. *)
let build ?(per_method = false) rng (items : Javagen.item list) =
  let enc_config = Common.default_enc_config in
  let train_items, valid_items, test_items = Javagen.split_by_project items in
  let budget = Pipeline.budget_for enc_config in
  let kept_traces = ref 0 in
  let filter_s = Array.make (List.length items) 0.0 in
  let slot it =
    let rec find i = function x :: rest -> if x == it then i else find (i + 1) rest | [] -> assert false in
    find 0 items
  in
  let filter items = Filter.run ~budget rng (List.map (fun (it : Javagen.item) -> it.Javagen.candidate) items) in
  let filter_one (kept, (acc : Filter.stats)) it =
    let t0 = Outcome.now () in
    let k, (st : Filter.stats) = filter [ it ] in
    filter_s.(slot it) <- Outcome.now () -. t0;
    ( kept @ k,
      { Filter.original = acc.Filter.original + st.Filter.original;
        filtered = acc.Filter.filtered + st.Filter.filtered;
        by_reason = Stats_table.merge_reasons acc.Filter.by_reason st.Filter.by_reason } )
  in
  let filter_split split_name items =
    let kept, fstats =
      Tracing.span "pipeline.filter" (fun () ->
          if per_method then
            List.fold_left filter_one ([], { Filter.original = 0; filtered = 0; by_reason = [] }) items
          else filter items)
    in
    List.iter (fun (_, (r : Feedback.result)) -> kept_traces := !kept_traces + List.length r.Feedback.traces) kept;
    let raw =
      Tracing.span "pipeline.blend" (fun () ->
          Parallel.map_list
            (fun (meth, r) -> (meth, Feedback.blended meth r, Common.Name meth.Liger_lang.Ast.mname))
            kept)
    in
    ( raw,
      { Stats_table.split_name; original = fstats.Filter.original; filtered = fstats.Filter.filtered },
      fstats.Filter.by_reason )
  in
  let train_raw, train_row, r1 = filter_split "Training" train_items in
  let valid_raw, valid_row, r2 = filter_split "Validation" valid_items in
  let test_raw, test_row, r3 = filter_split "Test" test_items in
  let stats =
    {
      Stats_table.dataset = "perfbench";
      rows = [ train_row; valid_row; test_row ];
      reasons = List.fold_left Stats_table.merge_reasons [] [ r1; r2; r3 ];
    }
  in
  let corpus = Pipeline.assemble ~name:"perfbench" ~enc_config ~stats (train_raw, valid_raw, test_raw) in
  (corpus, !kept_traces, filter_s)

(** Output checks: no split keeps more than it was given, every example
    carries at least one trace, and the Table-1 drop reasons add up to the
    drops. *)
let check ~submitted (c : Pipeline.corpus) =
  let s = c.Pipeline.stats in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (r : Stats_table.split_stats) ->
      if r.Stats_table.filtered > r.Stats_table.original then
        bad "%s split keeps %d of %d" r.Stats_table.split_name r.Stats_table.filtered r.Stats_table.original)
    s.Stats_table.rows;
  let original = Stats_table.total_original s and kept = Stats_table.total_filtered s in
  if original <> submitted then bad "filter saw %d of %d methods" original submitted;
  let dropped = List.fold_left (fun a (_, n) -> a + n) 0 s.Stats_table.reasons in
  if dropped <> original - kept then bad "drop reasons sum to %d, drops are %d" dropped (original - kept);
  let n_train, n_valid, n_test = Pipeline.sizes c in
  if n_train + n_valid + n_test <> kept then bad "%d examples for %d kept methods" (n_train + n_valid + n_test) kept;
  List.iter
    (fun (ex : Common.enc_example) ->
      if Array.length ex.Common.traces = 0 then bad "example %s has no trace" ex.Common.meth.Liger_lang.Ast.mname)
    (c.Pipeline.train @ c.Pipeline.valid @ c.Pipeline.test);
  List.rev !problems

type round = {
  corpus : Pipeline.corpus;
  kept_traces : int;  (* executions test generation kept, over all kept methods *)
  problems : string list;  (* failed output checks *)
}

let build_round rng items =
  let corpus, kept_traces, _ = build rng items in
  { corpus; kept_traces; problems = check ~submitted:(List.length items) corpus }

(* ---------------- the workload ---------------- *)

type timed = {
  quarter : int;
  methods : int;
  seconds : float;
  filter_s : float array;  (* per method, in slot order; with [per_method] only *)
  round : round;
}

(** Whole cycles of the four corpus quarters (see {!Inputs.corpus_quarter}),
    on inputs drawn from [Rng.create seed] outside the timed part, until
    [seconds] of build time have been spent or, with [count], for exactly
    that many cycles.  Each build filters with a generator of its own, so
    a repeat with the same [count] redoes exactly the same work. *)
let cycles ?count ?(per_method = true) ~seed ~seconds () =
  let inputs = Rng.create seed in
  let acc = ref [] and spent = ref 0.0 and c = ref 0 in
  let more () = match count with Some n -> !c < n | None -> !spent < seconds in
  while more () do
    for quarter = 0 to 3 do
      let items = Tracing.span "dataset.generate" (fun () -> Inputs.corpus_quarter inputs quarter) in
      let t0 = Outcome.now () in
      let corpus, kept_traces, filter_s = build ~per_method (Rng.create ((seed * 1000) + (4 * !c) + quarter)) items in
      let dt = Outcome.now () -. t0 in
      spent := !spent +. dt;
      let round = { corpus; kept_traces; problems = check ~submitted:(List.length items) corpus } in
      acc := { quarter; methods = List.length items; seconds = dt; filter_s; round } :: !acc
    done;
    incr c
  done;
  List.rev !acc

let rate ts =
  float_of_int (List.fold_left (fun a t -> a + t.methods) 0 ts)
  /. List.fold_left (fun a t -> a +. t.seconds) 0.0 ts

(** The build time of a full round, each method's filter time taken at
    the median over the cycles of the methods in its slot (same template,
    same place), the rest of each quarter's build at its median: a method
    whose test generation runs away (seconds instead of milliseconds,
    depending on the seed's mutations and test inputs) moves its own
    slot's sample, not the run's figure. *)
let typical_round_s ts =
  List.fold_left
    (fun acc q ->
      let builds = List.filter (fun t -> t.quarter = q) ts in
      let med f = Stats.median (Array.of_list (List.map f builds)) in
      let slots = List.init (Array.length (List.hd builds).filter_s) Fun.id in
      acc
      +. med (fun t -> t.seconds -. Array.fold_left ( +. ) 0.0 t.filter_s)
      +. List.fold_left (fun a i -> a +. med (fun t -> t.filter_s.(i))) 0.0 slots)
    0.0 [ 0; 1; 2; 3 ]

let methods_per_round ts =
  List.fold_left (fun a t -> a + t.methods) 0 (List.filteri (fun i _ -> i < 4) ts)

let lint_reasons =
  Filter.[ Uninit_use; Unreachable_code; Nonterm_loop; Div_by_zero; Dead_branch ]

(** Per-layer metrics of the traced rounds [ts], the same rounds
    [untraced], and [pooled], the same rounds again traced on a pool of
    {!pool_jobs} domains with [busy] seconds per domain. *)
let layers ts ~untraced ~pooled ~busy =
  let agg = Tracing.aggregate () in
  let snap = Liger_obs.Metrics.snapshot () in
  let self n = (agg n).Tracing.self_s in
  let wall = List.fold_left (fun a t -> a +. t.seconds) 0.0 ts in
  let attempts = Tracing.counter snap "testgen.attempts" in
  let kept_traces = List.fold_left (fun a t -> a + t.round.kept_traces) 0 ts in
  let examples t = let c = t.round.corpus in c.Pipeline.train @ c.Pipeline.valid @ c.Pipeline.test in
  let encoded_traces =
    List.fold_left (fun a t -> List.fold_left (fun a (ex : Common.enc_example) -> a + Array.length ex.Common.traces) a (examples t)) 0 ts
  in
  let lint_dropped =
    List.fold_left
      (fun a t ->
        List.fold_left (fun a (r, n) -> if List.mem r lint_reasons then a + n else a) a
          t.round.corpus.Pipeline.stats.Stats_table.reasons)
      0 ts
  in
  let busy_d d = if d < Array.length busy then busy.(d) else 0.0 in
  let pooled_wall = List.fold_left (fun a t -> a +. t.seconds) 0.0 pooled in
  let testgen = Stats.summarize (agg "filter.testgen").Tracing.durations_s in
  (* every span's self time, less Filter.run's own time outside the
     layers' spans and the untimed input generation *)
  let accounted = Tracing.covered () -. self "pipeline.filter" -. self "dataset.generate" in
  [
    ("testgen.generate_s", (agg "filter.testgen").Tracing.total_s);
    ("testgen.generate_p50_ms", Outcome.ms testgen.Stats.p50);
    ("testgen.generate_tail_ms", Outcome.ms testgen.Stats.tail);
    ("testgen.generate_tail_pct", 100.0 *. testgen.Stats.tail_q);
    ("testgen.attempts", attempts);
    ("testgen.crashes", Tracing.counter snap "testgen.crashes");
    ("testgen.timeouts", Tracing.counter snap "testgen.timeouts");
    ("testgen.gave_up", Tracing.counter snap "testgen.gave_up");
    ("testgen.useful_frac", if attempts > 0.0 then float_of_int kept_traces /. attempts else 0.0);
    ("symexec.self_s", self "testgen.symexec");
    ("testgen.exec_self_s", self "testgen.exec");
    ("lang.typecheck_s", self "filter.typecheck");
    ("analysis.lint_s", self "filter.lint");
    ("analysis.dropped", float_of_int lint_dropped);
    ("trace.blend_s", self "pipeline.blend");
    ("trace.vocab_s", self "pipeline.vocab");
    ("trace.encode_s", self "pipeline.encode");
    ("trace.traces", float_of_int encoded_traces);
    ("dataset.generate_s", (agg "dataset.generate").Tracing.total_s);
    ("parallel.busy_s_d0", busy_d 0);
    ("parallel.busy_s_d1", busy_d 1);
    ("parallel.utilization", (busy_d 0 +. busy_d 1) /. (pooled_wall *. float_of_int pool_jobs));
    ("parallel.speedup", rate pooled /. rate ts);
    ("trace_overhead_frac", (rate untraced /. rate ts) -. 1.0);
    ("trace.unaccounted_frac", 1.0 -. (accounted /. wall));
    ("mem.peak_rss_mb", Outcome.peak_rss_mb "self");
  ]

let run ~seed ~seconds ~trace =
  let setup_s, () =
    Outcome.repeated_setup ~k:(if trace then 1 else 5) ~teardown:ignore (fun () ->
        (* the pool the timed rounds use, then warm-up builds so that they
           find first-use costs paid *)
        Parallel.set_jobs jobs;
        let warm = Rng.create 1 in
        for _ = 1 to warm_up_builds do
          ignore
            (build ~per_method:true warm
               (Inputs.stratum warm ~tpls:(List.init warm_up_methods Fun.id) ~broken:0 ~tiny:0 ~external_:0))
        done)
  in
  let ts, layers =
    if not trace then (cycles ~seed ~seconds (), [])
    else begin
      (* the traced passes repeat the untraced cycles' inputs exactly *)
      let plain = cycles ~seed ~seconds:(seconds /. 3.0) () in
      let count = List.length plain / 4 in
      Parallel.set_jobs pool_jobs;
      Tracing.start ();
      let pooled = cycles ~count ~per_method:false ~seed ~seconds () in
      let busy = Parallel.Stats.busy_of_snapshot (Liger_obs.Metrics.snapshot ()) in
      Parallel.set_jobs jobs;
      Tracing.start ();
      let traced = cycles ~count ~seed ~seconds () in
      let l = layers traced ~untraced:plain ~pooled ~busy in
      Tracing.stop ();
      (plain, l)
    end
  in
  let problems = List.concat_map (fun t -> t.round.problems) ts in
  let attempted = List.fold_left (fun a t -> a + t.methods) 0 ts in
  let failed = List.fold_left (fun a t -> if t.round.problems = [] then a else a + t.methods) 0 ts in
  {
    Outcome.problems;
    attempted;
    failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput_per_s", float_of_int (methods_per_round ts) /. typical_round_s ts);
        ("latency_p50_ms", Outcome.ms (Stats.median (Array.concat (List.map (fun t -> t.filter_s) ts))));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
      ];
    layers;
  }
