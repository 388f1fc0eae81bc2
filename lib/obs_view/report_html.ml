(** [liger report]: render a run directory into one self-contained HTML
    file — inline CSS, inline SVG sparklines/heatmaps, no external assets.

    The renderer consumes already-parsed data (a {!run} record built by
    {!Readers.load_report_run}); it never touches the filesystem, which keeps
    it trivially testable on synthetic ledgers.  Output is deterministic:
    every key iteration is sorted, floats go through one formatter, and
    nothing reads a clock — identical inputs produce identical bytes.

    Structure contract (the golden test pins it): every section has a
    stable [id] ([health], [training], [gradflow], [activations],
    [drift], [attention], [profile], [probe], [postmortem],
    [compare]); each tracked time series renders exactly one [<svg>]
    sparkline per run, the gradient-flow heatmap is one more [<svg>], and
    each rendered histogram is one more.  All metric keys and label
    values are HTML-escaped. *)

open Liger_obs

type run = {
  label : string;                      (* run id *)
  lines : Metrics.snapshot list;       (* ledger snapshots, oldest first *)
  final : Metrics.snapshot option;     (* the final metrics.json snapshot *)
  probe : string option;               (* probe_accuracy.txt contents *)
  postmortem : Json.t option;          (* postmortem.json *)
}

(* ---------------- small helpers ---------------- *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* every float reaching the page goes through this: deterministic, and
   non-finite values (which Metrics.quantile can no longer produce, but
   defense-in-depth is cheap) render as 0 rather than NaN *)
let fmt v = if Float.is_finite v then Printf.sprintf "%.4g" v else "0"

(* the gauge series of a run, one assoc list per ledger line *)
let per_line run = List.map Health.gauges_of_line run.lines

let keys_named per_line name = Health.keys_of_metric (Health.gauge_keys per_line) name

(* ---------------- SVG primitives ---------------- *)

let spark_w = 260
let spark_h = 48
let spark_pad = 4.0

(** One sparkline [<svg>] for a value series (oldest first). *)
let sparkline values =
  let n = List.length values in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg class=\"spark\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">" spark_w
       spark_h spark_w spark_h);
  (if n > 0 then begin
     let vs = Array.of_list values in
     let lo = Array.fold_left Stdlib.min infinity vs in
     let hi = Array.fold_left Stdlib.max neg_infinity vs in
     let x i =
       if n = 1 then float_of_int spark_w /. 2.0
       else
         spark_pad
         +. (float_of_int i /. float_of_int (n - 1) *. (float_of_int spark_w -. (2.0 *. spark_pad)))
     in
     let y v =
       if hi = lo then float_of_int spark_h /. 2.0
       else
         float_of_int spark_h -. spark_pad
         -. ((v -. lo) /. (hi -. lo) *. (float_of_int spark_h -. (2.0 *. spark_pad)))
     in
     if n = 1 then
       Buffer.add_string buf
         (Printf.sprintf "<circle cx=\"%s\" cy=\"%s\" r=\"2.5\" fill=\"#36c\"/>" (fmt (x 0))
            (fmt (y vs.(0))))
     else begin
       let points =
         String.concat " "
           (List.mapi (fun i v -> Printf.sprintf "%s,%s" (fmt (x i)) (fmt (y v))) values)
       in
       Buffer.add_string buf
         (Printf.sprintf
            "<polyline points=\"%s\" fill=\"none\" stroke=\"#36c\" stroke-width=\"1.5\"/>"
            points);
       Buffer.add_string buf
         (Printf.sprintf "<circle cx=\"%s\" cy=\"%s\" r=\"2\" fill=\"#c33\"/>"
            (fmt (x (n - 1)))
            (fmt (y vs.(n - 1))))
     end
   end);
  Buffer.add_string buf "</svg>";
  Buffer.contents buf

(* log-scale heat color: t in [0,1] maps cold blue -> hot red *)
let heat_color t =
  let t = Stdlib.max 0.0 (Stdlib.min 1.0 t) in
  let r = int_of_float (40.0 +. (215.0 *. t)) in
  let g = int_of_float (60.0 +. (60.0 *. (1.0 -. t))) in
  let b = int_of_float (200.0 -. (170.0 *. t)) in
  Printf.sprintf "#%02x%02x%02x" r g b

(** The layers × snapshots gradient-norm heatmap: one [<svg>], one [rect]
    per (layer, snapshot) sample, colored by log10 of the norm. *)
let gradient_heatmap per_line keys =
  let cell = 13 in
  let nrows = List.length keys in
  let ncols = List.length per_line in
  let w = (ncols * cell) + 4 and h = (nrows * cell) + 4 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg class=\"heatmap\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">" w h w h);
  List.iteri
    (fun row key ->
      List.iteri
        (fun col gauges ->
          match List.assoc_opt key gauges with
          | None -> ()
          | Some v ->
              (* map log10(norm) over [-8, 3] onto the palette *)
              let lg = if v > 0.0 then Stdlib.log10 v else -8.0 in
              let t = (lg +. 8.0) /. 11.0 in
              Buffer.add_string buf
                (Printf.sprintf
                   "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"/>"
                   (2 + (col * cell)) (2 + (row * cell)) (cell - 1) (cell - 1)
                   (heat_color t)))
        per_line)
    keys;
  Buffer.add_string buf "</svg>";
  Buffer.contents buf

(** A bucket-count bar chart for one histogram: one [<svg>]. *)
let hist_bars (h : Metrics.hist_view) =
  let nb = Array.length h.Metrics.counts in
  let bar_w = 14 in
  let w = (nb * bar_w) + 4 and hh = 64 in
  let maxc = Array.fold_left Stdlib.max 1 h.Metrics.counts in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "<svg class=\"hist\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">"
       w hh w hh);
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let bh = float_of_int c /. float_of_int maxc *. float_of_int (hh - 8) in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%d\" y=\"%s\" width=\"%d\" height=\"%s\" fill=\"#36c\"/>"
             (2 + (i * bar_w))
             (fmt (float_of_int (hh - 4) -. bh))
             (bar_w - 2) (fmt bh))
      end)
    h.Metrics.counts;
  Buffer.add_string buf "</svg>";
  Buffer.contents buf

(* ---------------- snapshot readers ---------------- *)

(* the best snapshot to read point-in-time sections from: the final
   metrics.json, else the last ledger line *)
let final_snapshot run =
  match run.final with
  | Some j -> Some j
  | None -> (
      match List.rev run.lines with [] -> None | last :: _ -> Some last)

(* ---------------- page assembly ---------------- *)

let style =
  "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:960px;\
   color:#222;padding:0 16px}\
   h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid #ddd;\
   padding-bottom:4px;margin-top:28px}\
   table{border-collapse:collapse;margin:8px 0}\
   td,th{border:1px solid #ddd;padding:3px 8px;text-align:right;\
   font-variant-numeric:tabular-nums}\
   th,td:first-child{text-align:left}\
   .series{display:flex;align-items:center;gap:12px;margin:4px 0}\
   .series .key{min-width:320px;font-family:ui-monospace,monospace;font-size:12px}\
   .series .range{color:#666;font-size:12px}\
   .fail{color:#b00;font-weight:600}.warn{color:#a60}.pass{color:#080}\
   pre{background:#f6f6f6;padding:8px;overflow-x:auto;font-size:12px}\
   .heatmap,.hist,.spark{vertical-align:middle}"

let buf_section buf id title body =
  if body <> "" then begin
    Buffer.add_string buf (Printf.sprintf "<section id=\"%s\"><h2>%s</h2>\n" id title);
    Buffer.add_string buf body;
    Buffer.add_string buf "</section>\n"
  end

(* one tracked series row: key, per-run sparkline(s), min..max/last *)
let series_rows runs_per_line name =
  let keys =
    Health.sort_keys (List.concat_map (fun pl -> keys_named pl name) runs_per_line)
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun key ->
      let sparks =
        List.filter_map
          (fun pl ->
            match Health.series pl key with
            | [] -> None
            | values ->
                let lo = List.fold_left Stdlib.min infinity values in
                let hi = List.fold_left Stdlib.max neg_infinity values in
                let lastv = List.nth values (List.length values - 1) in
                Some
                  (Printf.sprintf "%s <span class=\"range\">%s .. %s (last %s)</span>"
                     (sparkline values) (fmt lo) (fmt hi) (fmt lastv)))
          runs_per_line
      in
      if sparks <> [] then
        Buffer.add_string buf
          (Printf.sprintf "<div class=\"series\"><span class=\"key\">%s</span>%s</div>\n"
             (html_escape (Health.subject key)) (String.concat " " sparks)))
    keys;
  Buffer.contents buf

let health_body runs =
  let buf = Buffer.create 256 in
  List.iter
    (fun run ->
      let findings = Health.evaluate run.lines in
      Buffer.add_string buf (Printf.sprintf "<h3>%s</h3>\n" (html_escape run.label));
      match findings with
      | [] ->
          Buffer.add_string buf "<p class=\"pass\">all health rules passed</p>\n"
      | findings ->
          Buffer.add_string buf "<ul>\n";
          List.iter
            (fun (f : Health.finding) ->
              Buffer.add_string buf
                (Printf.sprintf "<li class=\"%s\"><b>%s</b> %s <code>%s</code>: %s</li>\n"
                   (match f.Health.level with Health.Fail -> "fail" | Health.Warn -> "warn")
                   (Health.level_name f.Health.level)
                   (html_escape f.Health.rule) (html_escape f.Health.subject)
                   (html_escape f.Health.detail)))
            findings;
          Buffer.add_string buf "</ul>\n")
    runs;
  Buffer.contents buf

let attention_body runs =
  let buf = Buffer.create 256 in
  List.iter
    (fun run ->
      match
        Option.bind (final_snapshot run) (fun s -> Metrics.hist_view s "dynamics.attention_entropy")
      with
      | Some h when h.Metrics.count > 0 ->
          Buffer.add_string buf
            (Printf.sprintf
               "<div class=\"series\"><span class=\"key\">%s</span>%s \
                <span class=\"range\">%d obs, p50 %s, p99 %s nats</span></div>\n"
               (html_escape (run.label ^ " attention entropy"))
               (hist_bars h) h.Metrics.count
               (fmt (Metrics.quantile h 0.5))
               (fmt (Metrics.quantile h 0.99)))
      | _ -> ())
    runs;
  Buffer.contents buf

let profile_body run =
  match final_snapshot run with
  | None -> ""
  | Some snap ->
      let layers =
        List.filter_map
          (fun (e : Metrics.entry) ->
            match e.Metrics.e_value with
            | Metrics.C calls ->
                Option.map
                  (fun l -> (l, float_of_int calls))
                  (List.assoc_opt "layer" e.Metrics.e_labels)
            | _ -> None)
          (Metrics.entries_with snap "profile.layer_calls")
        |> List.sort compare
      in
      if layers = [] then ""
      else begin
        let buf = Buffer.create 256 in
        Buffer.add_string buf
          "<table><tr><th>layer</th><th>calls</th><th>fwd s</th><th>bwd s</th></tr>\n";
        List.iter
          (fun (layer, calls) ->
            let f name = Metrics.fcounter_value ~labels:[ ("layer", layer) ] snap name in
            Buffer.add_string buf
              (Printf.sprintf "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
                 (html_escape layer) (fmt calls)
                 (fmt (f "profile.layer_forward_seconds"))
                 (fmt (f "profile.layer_backward_seconds"))))
          layers;
        Buffer.add_string buf "</table>\n";
        Buffer.contents buf
      end

let postmortem_body run =
  match run.postmortem with
  | None -> ""
  | Some j ->
      let reason =
        Option.value ~default:"?" (Option.bind (Json.member "reason" j) Json.to_string)
      in
      let events =
        Option.value ~default:[] (Option.bind (Json.member "events" j) Json.to_list)
      in
      Printf.sprintf
        "<p class=\"fail\">this run crashed: %s (%d flight-recorder events survive \
         in postmortem.json)</p>\n"
        (html_escape reason) (List.length events)

(* final-gauge delta table between two runs *)
let compare_body a b =
  let finals run =
    List.map
      (fun (key, v) -> (Health.subject key, v))
      (Health.gauges_of_line (Option.value ~default:[] (final_snapshot run)))
  in
  let fa = finals a and fb = finals b in
  let keys = List.sort_uniq compare (List.map fst fa @ List.map fst fb) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "<table><tr><th>gauge</th><th>%s</th><th>%s</th><th>Δ</th></tr>\n"
       (html_escape a.label) (html_escape b.label));
  List.iter
    (fun key ->
      let va = List.assoc_opt key fa and vb = List.assoc_opt key fb in
      let cell = function Some v -> fmt v | None -> "-" in
      let delta =
        match (va, vb) with Some x, Some y -> fmt (y -. x) | _ -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
           (html_escape key) (cell va) (cell vb) delta))
    keys;
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf

(** Render [run] (and, in compare mode, [other] beside it) to one
    self-contained HTML page. *)
let render ?other run =
  let runs = run :: Option.to_list other in
  let pls = List.map per_line runs in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>liger report — %s</title>\n"
       (html_escape (String.concat " vs " (List.map (fun r -> r.label) runs))));
  Buffer.add_string buf (Printf.sprintf "<style>%s</style></head>\n<body>\n" style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>liger report — %s</h1>\n"
       (html_escape (String.concat " vs " (List.map (fun r -> r.label) runs))));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "<p>%s: %d ledger snapshots</p>\n" (html_escape r.label)
           (List.length r.lines)))
    runs;
  Buffer.add_string buf (postmortem_body run);
  buf_section buf "health" "Health verdicts" (health_body runs);
  buf_section buf "training" "Training"
    (String.concat ""
       (List.map (series_rows pls)
          [ "train.loss"; "train.valid_score"; "train.examples_per_second" ]));
  (* gradient flow: sparklines per layer + one heatmap over all layers *)
  let gradflow =
    let sparks =
      String.concat ""
        (List.map (series_rows pls) [ "dynamics.layer_grad_norm"; "dynamics.layer_update_ratio" ])
    in
    let heat =
      match pls with
      | pl :: _ -> (
          match keys_named pl "dynamics.layer_grad_norm" with
          | [] -> ""
          | keys ->
              Printf.sprintf
                "<div class=\"series\"><span class=\"key\">log10 ‖grad‖ heatmap \
                 (rows: %s)</span>%s</div>\n"
                (html_escape
                   (String.concat ", "
                      (List.map
                         (fun ((_, labels) as k) ->
                           Option.value ~default:(Health.subject k) (List.assoc_opt "layer" labels))
                         keys)))
                (gradient_heatmap pl keys))
      | [] -> ""
    in
    sparks ^ heat
  in
  buf_section buf "gradflow" "Per-layer gradient flow" gradflow;
  buf_section buf "activations" "Activation saturation"
    (String.concat ""
       (List.map (series_rows pls) [ "dynamics.saturation"; "dynamics.dead_units" ]));
  buf_section buf "drift" "Embedding drift"
    (String.concat ""
       (List.map (series_rows pls) [ "dynamics.embed_drift"; "dynamics.nn_churn" ]));
  buf_section buf "attention" "Attention entropy" (attention_body runs);
  buf_section buf "profile" "Profile (final snapshot)" (profile_body run);
  (match run.probe with
  | Some text ->
      buf_section buf "probe" "Semantic probes"
        (Printf.sprintf "<pre>%s</pre>\n" (html_escape text))
  | None -> ());
  (match other with
  | Some b -> buf_section buf "compare" "Compare (final gauges)" (compare_body run b)
  | None -> ());
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
