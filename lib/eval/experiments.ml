(** Experiment runners: one per table and figure of the paper's evaluation.

    Every experiment reduces to training one model wrapper on one corpus
    under one {e view} (how many symbolic/concrete traces are visible) and
    evaluating on the test split — so all runners share {!run}, and a cache
    keyed on (corpus, model, view) lets figures reuse the full-view points
    that the tables already trained.

    Scale: [`Quick] (default; minutes on a laptop) or [`Full] (bigger
    corpora, wider sweeps), selected by the [LIGER_SCALE] environment
    variable. *)

open Liger_tensor
open Liger_core
open Liger_dataset

type scale = {
  label : string;
  med_n : int;        (* generated methods, Java-med analogue *)
  large_n : int;      (* generated methods, Java-large analogue *)
  coset_n : int;      (* clean programs, COSET analogue *)
  dim : int;
  epochs : int;
  enc : Common.enc_config;
  concrete_points : int list;  (* descending; head = full setting *)
  symbolic_points : int list;  (* descending; head = full setting *)
  symbolic_concrete : int;     (* concrete traces used during path reduction *)
  ablation_on_large : bool;    (* run Figures 8-11 on Java-large too *)
}

let quick =
  {
    label = "quick";
    med_n = 480;
    large_n = 640;
    coset_n = 220;
    dim = 20;
    epochs = 10;
    enc = { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 };
    concrete_points = [ 3; 2; 1 ];
    symbolic_points = [ 4; 2; 1 ];
    symbolic_concrete = 3;
    ablation_on_large = false;
  }

let full =
  {
    label = "full";
    med_n = 900;
    large_n = 1500;
    coset_n = 600;
    dim = 24;
    epochs = 16;
    enc = { Common.default_enc_config with Common.max_paths = 6; max_concrete = 5; max_steps = 24 };
    concrete_points = [ 5; 4; 3; 2; 1 ];
    symbolic_points = [ 6; 5; 4; 3; 2; 1 ];
    symbolic_concrete = 3;
    ablation_on_large = true;
  }

let scale_of_env () =
  match Sys.getenv_opt "LIGER_SCALE" with
  | Some "full" -> full
  | _ -> quick

(* ---------------- context: corpora + run cache ---------------- *)

type model_kind =
  | Liger of { static : bool; dynamic : bool; attention : bool }
  | Liger_vanilla_f3  (* DESIGN.md deviation 1: paper-faithful vanilla trace RNN *)
  | Dypro_k
  | Code2vec_k
  | Code2seq_k

let kind_name = function
  | Liger { static = true; dynamic = true; attention = true } -> "LiGer"
  | Liger { static = false; _ } -> "LiGer-nostatic"
  | Liger { dynamic = false; _ } -> "LiGer-nodynamic"
  | Liger { attention = false; _ } -> "LiGer-noattention"
  | Liger_vanilla_f3 -> "LiGer-vanillaF3"
  | Dypro_k -> "DYPRO"
  | Code2vec_k -> "code2vec"
  | Code2seq_k -> "code2seq"

type run_result = {
  model : string;
  dataset : string;
  view : Common.view;
  naming : Train.naming_result option;
  classify : Train.classify_result option;
  static_attention : float;  (* NaN when not applicable *)
  avg_executions : float;    (* per test method under the view *)
  avg_paths : float;
}

type ctx = {
  scale : scale;
  med : Pipeline.corpus Lazy.t;
  large : Pipeline.corpus Lazy.t;
  coset : Pipeline.corpus Lazy.t;
  cache : (string, run_result) Hashtbl.t;
  mutable progress : string -> unit;
}

let create_ctx ?(scale = scale_of_env ()) () =
  {
    scale;
    med =
      lazy
        (Pipeline.build_naming ~enc_config:scale.enc (Rng.create 1001) ~name:"Java-med*"
           ~n:scale.med_n);
    large =
      lazy
        (Pipeline.build_naming ~enc_config:scale.enc (Rng.create 2002) ~name:"Java-large*"
           ~n:scale.large_n);
    coset = lazy (Pipeline.build_coset ~enc_config:scale.enc (Rng.create 3003) ~n:scale.coset_n);
    cache = Hashtbl.create 64;
    progress = ignore;
  }

let corpus_of ctx = function
  | `Med -> Lazy.force ctx.med
  | `Large -> Lazy.force ctx.large
  | `Coset -> Lazy.force ctx.coset

let dataset_name = function `Med -> "Java-med*" | `Large -> "Java-large*" | `Coset -> "COSET*"

let task_of ctx = function
  | `Coset -> Liger_model.Classify Coset.n_classes
  | _ ->
      ignore ctx;
      Liger_model.Naming

(* mean fusion-attention weight on the static dimension over a split: the
   mean over examples of each example's own mean, from a one-lane forward *)
let measure_attention model view examples =
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun ex ->
      let w = Liger_model.mean_static_weight (Liger_model.fusion_stats model ~view [| ex |]) in
      if Float.is_finite w then begin
        sum := !sum +. w;
        incr n
      end)
    examples;
  if !n = 0 then Float.nan else !sum /. float_of_int !n

let view_stats view examples =
  match examples with
  | [] -> (0.0, 0.0)
  | _ ->
      let execs = ref 0 and paths = ref 0 in
      List.iter
        (fun ex ->
          execs := !execs + Common.executions_in_view view ex;
          paths := !paths + Array.length (Common.select_traces view ex))
        examples;
      let n = float_of_int (List.length examples) in
      (float_of_int !execs /. n, float_of_int !paths /. n)

(* Views are normalized against the encoding caps so a sweep's "full"
   endpoint hits the same cache entry as the tables' full-view run. *)
let normalize_view ctx view =
  {
    Common.n_paths = min view.Common.n_paths ctx.scale.enc.Common.max_paths;
    n_concrete = min view.Common.n_concrete ctx.scale.enc.Common.max_concrete;
  }

let key_of ~corpus ~kind ~view =
  Printf.sprintf "%s/%s/p%d/c%d" (dataset_name corpus) (kind_name kind)
    view.Common.n_paths view.Common.n_concrete

(** Train+evaluate one (corpus, model, view) point, uncached; [view] must be
    normalized and the corpus forced.  Everything this touches is private to
    the call (model, optimizer state, its own generator seeded from the
    key), so independent points run in parallel — see {!sweep}. *)
let compute ctx ~corpus ~kind ~view =
  let key = key_of ~corpus ~kind ~view in
  Liger_obs.Obs.Span.with_ ~name:"experiment.point"
    ~args:(fun () -> [ ("key", key) ])
  @@ fun () ->
  ctx.progress (Printf.sprintf "training %s" key);
  let c = corpus_of ctx corpus in
      let task = task_of ctx corpus in
      let rng = Rng.create (Hashtbl.hash key) in
      let options =
        { Train.default_options with Train.epochs = ctx.scale.epochs; eval_every = 2 }
      in
      let dim = ctx.scale.dim in
      let wrapper, liger_model =
        match kind with
        | Liger { static; dynamic; attention } ->
            let config =
              {
                Liger_model.default_config with
                Liger_model.dim;
                use_static = static;
                use_dynamic = dynamic;
                use_attention = attention;
              }
            in
            let w, m = Zoo.liger ~config ~view ~vocab:c.Pipeline.vocab task in
            (w, Some m)
        | Liger_vanilla_f3 ->
            let config =
              {
                Liger_model.default_config with
                Liger_model.dim;
                trace_cell = Liger_nn.Rnn_cell.Vanilla;
              }
            in
            let w, m = Zoo.liger ~config ~view ~vocab:c.Pipeline.vocab task in
            ({ w with Train.name = "LiGer-vanillaF3" }, Some m)
        | Dypro_k -> (fst (Zoo.dypro ~dim ~view ~vocab:c.Pipeline.vocab task), None)
        | Code2vec_k -> (Zoo.code2vec ~dim ~train:c.Pipeline.train task, None)
        | Code2seq_k -> (Zoo.code2seq ~dim ~train:c.Pipeline.train task, None)
      in
      let history =
        Train.fit ~options rng wrapper ~train:c.Pipeline.train ~valid:c.Pipeline.valid
      in
      if history.Train.vacuous_best then
        ctx.progress
          (Printf.sprintf "%s: empty validation split, best-epoch selection vacuous" key);
      let naming, classify =
        match task with
        | Liger_model.Naming -> (Some (Train.eval_naming wrapper c.Pipeline.test), None)
        | Liger_model.Classify _ -> (None, Some (Train.eval_classify wrapper c.Pipeline.test))
      in
      let static_attention =
        match liger_model with
        | Some m when m.Liger_model.config.Liger_model.use_static
                      && m.Liger_model.config.Liger_model.use_dynamic ->
            measure_attention m view c.Pipeline.test
        | _ -> Float.nan
      in
      let avg_executions, avg_paths = view_stats view c.Pipeline.test in
      {
        model = kind_name kind;
        dataset = dataset_name corpus;
        view;
        naming;
        classify;
        static_attention;
        avg_executions;
        avg_paths;
      }

(** Cached {!compute}: the tables and figures share full-view points through
    this.  The cache is only touched from the submitting domain. *)
let run ctx ~corpus ~kind ~view =
  let view = normalize_view ctx view in
  let key = key_of ~corpus ~kind ~view in
  match Hashtbl.find_opt ctx.cache key with
  | Some r ->
      Liger_obs.Metrics.incr "experiments.cache_hits";
      r
  | None ->
      Liger_obs.Metrics.incr "experiments.cache_misses";
      let r = compute ctx ~corpus ~kind ~view in
      Hashtbl.replace ctx.cache key r;
      r

let full_view = Common.full_view

let concrete_view n = { Common.n_paths = max_int; n_concrete = n }
let symbolic_view ctx n = { Common.n_paths = n; n_concrete = ctx.scale.symbolic_concrete }

(* ---------------- tables ---------------- *)

(** Table 1: dataset statistics (original vs filtered, with reasons). *)
let table1 ctx =
  [ (corpus_of ctx `Med).Pipeline.stats; (corpus_of ctx `Large).Pipeline.stats ]

(** Table 2: the four models on both naming corpora. *)
let table2 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        List.map
          (fun kind -> run ctx ~corpus ~kind ~view:full_view)
          [ Code2vec_k; Code2seq_k; Dypro_k;
            Liger { static = true; dynamic = true; attention = true } ] ))
    [ `Med; `Large ]

(** Table 3: DYPRO vs LiGer on the COSET analogue. *)
let table3 ctx =
  List.map
    (fun kind -> run ctx ~corpus:`Coset ~kind ~view:full_view)
    [ Dypro_k; Liger { static = true; dynamic = true; attention = true } ]

(* ---------------- figures ---------------- *)

type series = { series_name : string; points : (float * run_result) list }
(* x = number of concrete traces (per path) or symbolic traces, as labeled *)

let score_of r =
  match (r.naming, r.classify) with
  | Some n, _ -> 100.0 *. n.Train.prf.Metrics.f1
  | _, Some c -> 100.0 *. c.Train.acc
  | _ -> Float.nan

(* A sweep's points are independent training runs, so the ones not already
   cached train in parallel on the {!Liger_parallel.Parallel} pool.  The
   corpus is forced and the cache is read and written only on the
   submitting domain (workers see an immutable corpus and write nothing
   shared); each point seeds its own generator from its key inside
   {!compute}, so results are identical at any job count. *)
let sweep ctx ~corpus ~kind ~views =
  let views = List.map (fun (x, view) -> (x, normalize_view ctx view)) views in
  ignore (corpus_of ctx corpus);
  let missing =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, view) ->
           if Hashtbl.mem ctx.cache (key_of ~corpus ~kind ~view) then None else Some view)
         views)
  in
  Liger_obs.Metrics.add "experiments.cache_misses" (List.length missing);
  let results =
    Liger_parallel.Parallel.map_list (fun view -> compute ctx ~corpus ~kind ~view) missing
  in
  List.iter2
    (fun view r -> Hashtbl.replace ctx.cache (key_of ~corpus ~kind ~view) r)
    missing results;
  (* collect from the cache directly: counting these lookups through [run]
     would book the points just trained above as cache hits *)
  List.map
    (fun (x, view) ->
      if not (List.mem view missing) then
        Liger_obs.Metrics.incr "experiments.cache_hits";
      (x, Hashtbl.find ctx.cache (key_of ~corpus ~kind ~view)))
    views

let concrete_sweep ctx ~corpus ~kind =
  let points =
    List.map (fun n -> (float_of_int n, concrete_view n)) ctx.scale.concrete_points
  in
  { series_name = kind_name kind; points = sweep ctx ~corpus ~kind ~views:points }

let symbolic_sweep ctx ~corpus ~kind =
  let points =
    List.map (fun n -> (float_of_int n, symbolic_view ctx n)) ctx.scale.symbolic_points
  in
  { series_name = kind_name kind; points = sweep ctx ~corpus ~kind ~views:points }

let liger_full = Liger { static = true; dynamic = true; attention = true }
let liger_nostatic = Liger { static = false; dynamic = true; attention = true }
let liger_nodynamic = Liger { static = true; dynamic = false; attention = true }
let liger_noattention = Liger { static = true; dynamic = true; attention = false }

(** Figure 6 (a/b: concrete reduction; c/d: symbolic reduction with line
    coverage preserved), LiGer vs DYPRO on both corpora. *)
let fig6 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        `Concrete
          [ concrete_sweep ctx ~corpus ~kind:liger_full;
            concrete_sweep ctx ~corpus ~kind:Dypro_k ],
        `Symbolic
          [ symbolic_sweep ctx ~corpus ~kind:liger_full;
            symbolic_sweep ctx ~corpus ~kind:Dypro_k ] ))
    [ `Med; `Large ]

(** Figure 7: the same two reductions on the COSET task. *)
let fig7 ctx =
  ( `Concrete
      [ concrete_sweep ctx ~corpus:`Coset ~kind:liger_full;
        concrete_sweep ctx ~corpus:`Coset ~kind:Dypro_k ],
    `Symbolic
      [ symbolic_sweep ctx ~corpus:`Coset ~kind:liger_full;
        symbolic_sweep ctx ~corpus:`Coset ~kind:Dypro_k ] )

let ablation_corpora ctx =
  if ctx.scale.ablation_on_large then [ `Med; `Large ] else [ `Med ]

(** Figure 8: LiGer without the static dimension. *)
let fig8 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        `Concrete
          [ concrete_sweep ctx ~corpus ~kind:liger_nostatic;
            concrete_sweep ctx ~corpus ~kind:Dypro_k ],
        `Symbolic
          [ symbolic_sweep ctx ~corpus ~kind:liger_nostatic;
            symbolic_sweep ctx ~corpus ~kind:Dypro_k ] ))
    (ablation_corpora ctx)

(** Figure 9: LiGer without the dynamic dimension, symbolic reduction. *)
let fig9 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        [ symbolic_sweep ctx ~corpus ~kind:liger_nodynamic;
          symbolic_sweep ctx ~corpus ~kind:Dypro_k ] ))
    (ablation_corpora ctx)

(** Figure 10: LiGer without attention (uniform fusion weights). *)
let fig10 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        `Concrete
          [ concrete_sweep ctx ~corpus ~kind:liger_noattention;
            concrete_sweep ctx ~corpus ~kind:Dypro_k ],
        `Symbolic
          [ symbolic_sweep ctx ~corpus ~kind:liger_noattention;
            symbolic_sweep ctx ~corpus ~kind:Dypro_k ] ))
    (ablation_corpora ctx)

(** Figure 11: all ablation configurations overlaid (symbolic reduction —
    the panel where the configurations separate most). *)
let fig11 ctx =
  List.map
    (fun corpus ->
      ( dataset_name corpus,
        List.map
          (fun kind -> symbolic_sweep ctx ~corpus ~kind)
          [ liger_full; liger_nostatic; liger_nodynamic; liger_noattention; Dypro_k ] ))
    (ablation_corpora ctx)

(** Design-choice ablations called out in DESIGN.md: the GRU trace RNN
    (our deviation) against the paper's vanilla RNN, at matched capacity on
    Java-med. *)
let design_ablation ctx =
  [ run ctx ~corpus:`Med ~kind:liger_full ~view:full_view;
    run ctx ~corpus:`Med ~kind:Liger_vanilla_f3 ~view:full_view ]

(** §6.1.2's attention inspection: the mean fusion weight on the symbolic
    dimension at convergence, across the concrete-reduction sweep (the paper
    reports ~0.598, stable under reduction). *)
let attention_report ctx =
  List.map
    (fun n ->
      let r = run ctx ~corpus:`Med ~kind:liger_full ~view:(concrete_view n) in
      (n, r.static_attention))
    ctx.scale.concrete_points
