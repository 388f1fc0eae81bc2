(** Rendering experiment results in the paper's table/series layouts. *)

let pr fmt = Printf.printf fmt

let hr () = pr "%s\n" (String.make 72 '-')

let print_table1 tables =
  pr "Table 1: dataset statistics (original vs filtered)\n";
  hr ();
  List.iter (fun t -> pr "%s\n" (Fmt.str "%a" Liger_dataset.Stats.pp t)) tables;
  hr ()

let prf_row (r : Experiments.run_result) =
  match r.Experiments.naming with
  | Some n ->
      let p = n.Train.prf in
      Printf.sprintf "%-18s %9.2f %9.2f %9.2f" r.Experiments.model
        (100.0 *. p.Metrics.precision) (100.0 *. p.Metrics.recall) (100.0 *. p.Metrics.f1)
  | None -> Printf.sprintf "%-18s (no naming result)" r.Experiments.model

let print_table2 results =
  pr "Table 2: method name prediction (sub-token metrics on the test split)\n";
  hr ();
  List.iter
    (fun (dataset, rows) ->
      pr "%s\n" dataset;
      pr "  %-18s %9s %9s %9s\n" "Model" "Precision" "Recall" "F1";
      List.iter (fun r -> pr "  %s\n" (prf_row r)) rows;
      pr "\n")
    results;
  hr ()

let print_table3 rows =
  pr "Table 3: semantics classification on the COSET analogue\n";
  hr ();
  pr "  %-18s %9s %9s\n" "Model" "Accuracy" "F1";
  List.iter
    (fun (r : Experiments.run_result) ->
      match r.Experiments.classify with
      | Some c ->
          pr "  %-18s %8.1f%% %9.2f\n" r.Experiments.model (100.0 *. c.Train.acc)
            c.Train.f1
      | None -> pr "  %-18s (no classification result)\n" r.Experiments.model)
    rows;
  hr ()

let print_series ~x_label (s : Experiments.series) =
  pr "  %-18s" s.Experiments.series_name;
  List.iter
    (fun (x, r) -> pr "  (%s=%g: %.2f)" x_label x (Experiments.score_of r))
    s.Experiments.points;
  pr "\n"

(* Figures 6, 7, 8 and 10: each corpus under both reductions *)
let print_reductions title results =
  pr "%s\n" title;
  hr ();
  List.iter
    (fun (dataset, `Concrete concrete, `Symbolic symbolic) ->
      pr "%s\n" dataset;
      pr " concrete-trace reduction (score vs #concrete per path):\n";
      List.iter (print_series ~x_label:"n") concrete;
      pr " symbolic-trace reduction, line coverage preserved (score vs #paths):\n";
      List.iter (print_series ~x_label:"u") symbolic)
    results;
  hr ()

(* Figures 9 and 11: each corpus under symbolic reduction *)
let print_symbolic title results =
  pr "%s\n" title;
  hr ();
  List.iter
    (fun (dataset, series) ->
      pr "%s\n" dataset;
      List.iter (print_series ~x_label:"u") series)
    results;
  hr ()

let print_design_ablation rows =
  pr "Design ablation: GRU trace RNN (ours) vs vanilla RNN (paper's f3)\n";
  hr ();
  pr "  %-18s %9s %9s %9s\n" "Config" "Precision" "Recall" "F1";
  List.iter (fun r -> pr "  %s\n" (prf_row r)) rows;
  hr ()

let print_attention points =
  pr "Attention inspection (6.1.2): mean fusion weight on the symbolic dimension\n";
  hr ();
  List.iter
    (fun (n, w) ->
      if Float.is_finite w then pr "  %d concrete traces per path: %.3f\n" n w
      else pr "  %d concrete traces per path: n/a\n" n)
    points;
  hr ()

(** Every artefact of the evaluation by name, in the order both runners
    print them. *)
let artefacts =
  [ ("table1", fun ctx -> print_table1 (Experiments.table1 ctx));
    ("table2", fun ctx -> print_table2 (Experiments.table2 ctx));
    ("table3", fun ctx -> print_table3 (Experiments.table3 ctx));
    ( "fig6",
      fun ctx ->
        print_reductions "Figure 6: LiGer vs DYPRO under trace reduction (F1)"
          (Experiments.fig6 ctx) );
    ( "fig7",
      fun ctx ->
        print_reductions "Figure 7: COSET task under trace reduction (accuracy)"
          (Experiments.fig7 ctx) );
    ( "fig8",
      fun ctx ->
        print_reductions "Figure 8: ablation - LiGer without static features"
          (Experiments.fig8 ctx) );
    ( "fig9",
      fun ctx ->
        print_symbolic
          "Figure 9: ablation - LiGer without dynamic features (symbolic reduction)"
          (Experiments.fig9 ctx) );
    ( "fig10",
      fun ctx ->
        print_reductions "Figure 10: ablation - LiGer without attention" (Experiments.fig10 ctx) );
    ( "fig11",
      fun ctx ->
        print_symbolic "Figure 11: all ablation configurations (symbolic reduction, F1)"
          (Experiments.fig11 ctx) );
    ("ablation", fun ctx -> print_design_ablation (Experiments.design_ablation ctx));
    ("attn", fun ctx -> print_attention (Experiments.attention_report ctx)) ]

(** Print the artefacts named in [names] (all of them when [names] is
    empty), in the list's order, each followed by a blank line. *)
let print_artefacts ctx names =
  List.iter
    (fun (name, print) ->
      if names = [] || List.mem name names then begin
        print ctx;
        pr "\n"
      end)
    artefacts
