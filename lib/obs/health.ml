(** Threshold rules over the training-dynamics streams.

    Two entry points share one rule set: {!evaluate} runs over a run
    ledger (the [metrics.jsonl] snapshot series), where trend rules like
    the NN-churn spike and the loss-plateau detector have history to work
    with; {!check_snapshot} runs the point-in-time subset against a live
    {!Metrics} snapshot — {!Liger_eval.Train} calls it at each epoch end
    and drops any finding into the flight recorder as a breadcrumb.

    Verdict levels: [Fail] marks training that is actively broken
    (vanished or exploded gradients), [Warn] marks conditions worth a
    look (saturation, churn spikes, plateau-with-drift).  {!healthy} is
    true when nothing failed — warnings do not fail a CI run. *)

type level = Warn | Fail

type finding = {
  rule : string;    (* stable rule id, e.g. "vanishing-gradients" *)
  level : level;
  subject : string; (* the metric key that fired *)
  detail : string;  (* human-readable evidence *)
}

let level_name = function Warn -> "WARN" | Fail -> "FAIL"

let healthy findings = not (List.exists (fun f -> f.level = Fail) findings)

(* thresholds, pinned here so the docs/tests reference one place *)
let vanish_threshold = 1e-7    (* per-layer pre-clip grad norm below this is dead *)
let explode_threshold = 1e3    (* ... and above this has exploded *)
let saturation_threshold = 0.9 (* fraction of saturated activations *)
let churn_spike_min = 0.5      (* churn below this is never a spike *)
let plateau_rel_change = 0.02  (* loss change under 2% over the window = plateau *)
let plateau_drift_min = 0.05   (* ... only suspicious while drift stays above this *)

(* ---------------- series access over ledger lines ---------------- *)

(* A gauge series is identified by its metric name and label set. *)
type key = string * Metrics.labels

let subject ((name, labels) : key) = Metrics.render_key name labels

(* one ledger snapshot's gauges *)
let gauges_of_line (snap : Metrics.snapshot) : (key * float) list =
  List.filter_map
    (fun (e : Metrics.entry) ->
      match e.Metrics.e_value with
      | Metrics.G v -> Some ((e.Metrics.e_name, e.Metrics.e_labels), v)
      | _ -> None)
    snap

(* keys in the order of their rendered subjects, the order findings,
   report rows and heatmap rows are listed in *)
let sort_keys (keys : key list) = List.sort_uniq (fun a b -> compare (subject a) (subject b)) keys

(* every gauge key appearing anywhere in the series *)
let gauge_keys per_line = sort_keys (List.concat_map (List.map fst) per_line)

(* the (present-only) value series of [key], oldest first *)
let series per_line key = List.filter_map (List.assoc_opt key) per_line

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let keys_of_metric keys name = List.filter (fun (n, _) -> n = name) keys

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(* ---------------- the rules ---------------- *)

(* Point rules: latest value only — shared between ledger and snapshot
   evaluation.  [get_last name] returns the latest (key, value) pairs for
   the metric [name] across label sets. *)
let point_rules (get_last : string -> (string * float) list) =
  let findings = ref [] in
  let emit rule level subject detail = findings := { rule; level; subject; detail } :: !findings in
  List.iter
    (fun (key, v) ->
      if v < vanish_threshold then
        emit "vanishing-gradients" Fail key
          (Printf.sprintf "gradient norm %.3g below %.0e" v vanish_threshold)
      else if v > explode_threshold then
        emit "exploding-gradients" Fail key
          (Printf.sprintf "gradient norm %.3g above %.0e" v explode_threshold))
    (get_last "dynamics.layer_grad_norm");
  List.iter
    (fun (key, v) ->
      if v > saturation_threshold then
        emit "saturation" Warn key
          (Printf.sprintf "%.0f%% of activations saturated (threshold %.0f%%)"
             (100.0 *. v) (100.0 *. saturation_threshold)))
    (get_last "dynamics.saturation");
  List.rev !findings

(** Evaluate every rule over a run ledger (the parsed [metrics.jsonl]
    lines, oldest first).  Returns findings sorted rule-first. *)
let evaluate (lines : Metrics.snapshot list) : finding list =
  let per_line = List.map gauges_of_line lines in
  let keys = gauge_keys per_line in
  let get_last name =
    List.filter_map
      (fun k -> Option.map (fun v -> (subject k, v)) (last (series per_line k)))
      (keys_of_metric keys name)
  in
  let point = point_rules get_last in
  let findings = ref [] in
  let emit rule level subject detail = findings := { rule; level; subject; detail } :: !findings in
  (* NN-churn spike: the latest churn is both large in absolute terms and
     at least double the median of its own history *)
  List.iter
    (fun key ->
      match series per_line key with
      | _ :: _ :: _ as s ->
          let n = List.length s in
          let prior = List.filteri (fun i _ -> i < n - 1) s in
          let cur = List.nth s (n - 1) in
          let med = median prior in
          if cur > churn_spike_min && cur > 2.0 *. med then
            emit "nn-churn-spike" Warn (subject key)
              (Printf.sprintf "neighbor churn %.2f vs median %.2f" cur med)
      | _ -> ())
    (keys_of_metric keys "dynamics.nn_churn");
  (* loss plateau with drift: per model, the loss has stopped moving but
     the embedding space has not *)
  List.iter
    (fun ((_, labels) as loss_key) ->
      match List.assoc_opt "model" labels with
      | None -> ()
      | Some model -> (
          match series per_line loss_key with
          | _ :: _ :: _ :: _ as s ->
              let n = List.length s in
              let window = List.filteri (fun i _ -> i >= n - 3) s in
              let lo = List.fold_left Stdlib.min infinity window in
              let hi = List.fold_left Stdlib.max neg_infinity window in
              let rel = if hi <> 0.0 then (hi -. lo) /. Float.abs hi else 0.0 in
              let drift_key = ("dynamics.embed_drift", [ ("model", model) ]) in
              let drift = Option.value ~default:0.0 (last (series per_line drift_key)) in
              if rel < plateau_rel_change && drift > plateau_drift_min then
                emit "loss-plateau-with-drift" Warn (subject loss_key)
                  (Printf.sprintf
                     "loss moved %.1f%% over the last 3 snapshots while embeddings \
                      drift %.3f/epoch"
                     (100.0 *. rel) drift)
          | _ -> ()))
    (keys_of_metric keys "train.loss");
  point @ List.rev !findings

(** The point-in-time rules against a live metrics snapshot (per-epoch
    breadcrumbs, end-of-run report). *)
let check_snapshot (snap : Metrics.snapshot) : finding list =
  let get_last name =
    List.filter_map
      (fun (e : Metrics.entry) ->
        match e.Metrics.e_value with
        | Metrics.G v -> Some (Metrics.render_key e.Metrics.e_name e.Metrics.e_labels, v)
        | _ -> None)
      (Metrics.entries_with snap name)
  in
  point_rules get_last

(** One line per finding, e.g.
    ["FAIL vanishing-gradients dynamics.layer_grad_norm{layer=enc}: ..."]. *)
let render_finding f =
  Printf.sprintf "%s %s %s: %s" (level_name f.level) f.rule f.subject f.detail
