(** Linear probing of frozen program embeddings against exact semantic
    labels.

    For every probing task ({!Liger_dataset.Probing}) a linear readout —
    one {!Liger_nn.Linear} layer with softmax cross-entropy, nothing else —
    is trained on frozen per-statement vectors and scored on held-out
    methods.  The probe vector for a statement is the program embedding
    concatenated with the statement's mean step embedding, so the readout
    may draw on global and local context but cannot compute anything
    itself: accuracy above the majority-class share means the {e frozen}
    encoder linearly exposes the fact.

    The encoders under probe were trained on method naming and never saw a
    single probe label, which is what makes the comparison between LiGer's
    blended embeddings and a dynamic-only baseline informative. *)

open Liger_tensor
open Liger_nn
open Liger_core
module Probing = Liger_dataset.Probing

(** A frozen encoder: everything the probe may see of a model.  [e_embed]
    embeds a batch in one forward: per example, its program embedding and
    its per-statement [(sid, vector)] pairs. *)
type embedder = {
  e_name : string;
  e_embed : Common.enc_example array -> (float array * (int * float array) list) array;
}

let of_liger ?view (model : Liger_model.t) =
  { e_name = "LiGer"; e_embed = Liger_model.embed_statements model ?view }

let of_dypro ?view (model : Liger_baselines.Dypro.t) =
  { e_name = "DYPRO"; e_embed = Liger_baselines.Dypro.embed_statements model ?view }

(* examples per embedding forward *)
let chunk = 16

(* Every example of a split embedded once (one forward per chunk), with
   its probe labels. *)
let embed_split emb examples =
  List.concat_map
    (fun c ->
      List.map2
        (fun (ex : Common.enc_example) e -> (Probing.label_method ex.Common.meth, e))
        (Array.to_list c)
        (Array.to_list (emb.e_embed c)))
    (Train.chunk_list chunk examples)

(* (probe vector, class) pairs of one task over an embedded split.
   Statements the encoded traces never execute have no vector and
   contribute nothing. *)
let task_data task embedded =
  List.concat_map
    (fun (labels, (prog, stmts)) ->
      List.filter_map
        (fun (l : Probing.example) ->
          if l.Probing.p_task <> task then None
          else
            match List.assoc_opt l.Probing.p_sid stmts with
            | Some v -> Some (Array.append prog v, l.Probing.p_class)
            | None -> None)
        labels)
    embedded

(* Train one linear readout (one Adam step per example); returns the
   trained predictor. *)
let fit_readout ?(epochs = 40) ?(lr = 0.02) rng ~classes train =
  let dim_in = match train with (v, _) :: _ -> Array.length v | [] -> 1 in
  let store = Param.create_store ~seed:(Rng.int rng 1_000_000) () in
  let lin = Linear.create store "probe" ~dim_in ~dim_out:classes in
  let logits tape v =
    Linear.forward_batch lin tape (Batched.const_arr tape ~rows:1 ~cols:dim_in v)
  in
  let opt = Optimizer.adam ~lr () in
  let arr = Array.of_list train in
  for _ = 1 to epochs do
    Rng.shuffle rng arr;
    Array.iter
      (fun (v, c) ->
        let tape = Batched.tape () in
        let loss, _ =
          Batched.softmax_xent_rows tape (logits tape v) ~targets:[| c |] ~weights:[| 1.0 |]
        in
        Batched.backward tape loss;
        let norm = Optimizer.clip_grads store ~max_norm:5.0 in
        if Float.is_finite norm then Optimizer.step opt store)
      arr
  done;
  fun v ->
    let tape = Batched.tape () in
    let c = Tensor.argmax (Batched.row_value (logits tape v) 0) in
    Batched.discard tape;
    c

type row = {
  r_task : Probing.task;
  r_train : int;     (* probe examples trained on *)
  r_test : int;      (* probe examples scored on *)
  r_majority : float;  (* share of the train-majority class in the test set *)
  r_accuracy : float;
}

type report = { model : string; rows : row list }

(** Probe a frozen encoder over all tasks.  Tasks with no train or no test
    examples (a degenerate corpus) are omitted rather than reported as 0. *)
let probe ?epochs ?lr rng emb ~train ~test : report =
  let train = embed_split emb train and test = embed_split emb test in
  let rows =
    List.filter_map
      (fun task ->
        let tr = task_data task train in
        let te = task_data task test in
        if tr = [] || te = [] then None
        else begin
          let classes = Probing.classes task in
          let predict = fit_readout ?epochs ?lr rng ~classes tr in
          let hits =
            List.fold_left (fun acc (v, c) -> if predict v = c then acc + 1 else acc) 0 te
          in
          let counts = Array.make classes 0 in
          List.iter (fun (_, c) -> counts.(c) <- counts.(c) + 1) tr;
          let maj_class = Tensor.argmax (Array.map float_of_int counts) in
          let maj_hits =
            List.fold_left (fun acc (_, c) -> if c = maj_class then acc + 1 else acc) 0 te
          in
          let n_te = List.length te in
          Some
            {
              r_task = task;
              r_train = List.length tr;
              r_test = n_te;
              r_majority = float_of_int maj_hits /. float_of_int n_te;
              r_accuracy = float_of_int hits /. float_of_int n_te;
            }
        end)
      Probing.all_tasks
  in
  { model = emb.e_name; rows }

(** Render reports as one aligned table (also the CI artifact format). *)
let render (reports : report list) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-18s %-8s %6s %6s %9s %9s\n" "task" "model" "train" "test"
       "majority" "accuracy");
  List.iter
    (fun r ->
      List.iter
        (fun row ->
          Buffer.add_string b
            (Printf.sprintf "%-18s %-8s %6d %6d %9.3f %9.3f\n"
               (Probing.task_name row.r_task) r.model row.r_train row.r_test
               row.r_majority row.r_accuracy))
        r.rows)
    reports;
  Buffer.contents b
