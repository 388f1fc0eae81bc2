(* The paper's motivating example (Figures 1 and 2): three sorting routines
   where surface syntax misleads and runtime behaviour tells the truth.

   - sortI  : Bubble Sort   (the paper's Figure 1a)
   - sortII : Insertion Sort (Figure 1b) - syntactically close to sortI
   - sortIII: Bubble Sort   (Figure 1c) - syntactically distant from sortI

   We show (1) static AST-path similarity ranks sortII closest to sortI,
   (2) the state traces of sortI and sortIII coincide on the paper's input
   while sortII's differs, and (3) LiGer embeddings trained on the sorting
   problem place the two bubble sorts together.

   Run with: dune exec examples/sorting_semantics.exe *)

open Liger_lang
open Liger_trace
open Liger_tensor
open Liger_testgen
open Liger_core
open Liger_baselines

let sort1_src =
  {|
method sortI(int[] a) : int[] {
  int left = 0;
  int right = a.length - 1;
  for (int i = right; i > left; i--) {
    for (int j = left; j < i; j++) {
      if (a[j] > a[j + 1]) {
        int tmp = a[j];
        a[j] = a[j + 1];
        a[j + 1] = tmp;
      }
    }
  }
  return a;
}
|}

let sort2_src =
  {|
method sortII(int[] a) : int[] {
  int left = 0;
  int right = a.length;
  for (int i = left; i < right; i++) {
    for (int j = i - 1; j >= left; j--) {
      if (a[j] > a[j + 1]) {
        int tmp = a[j];
        a[j] = a[j + 1];
        a[j + 1] = tmp;
      }
    }
  }
  return a;
}
|}

let sort3_src =
  {|
method sortIII(int[] a) : int[] {
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < a.length - 1; i++) {
      if (a[i + 1] < a[i]) {
        int tmp = a[i];
        a[i] = a[i + 1];
        a[i + 1] = tmp;
      }
    }
  }
  return a;
}
|}

(* Jaccard similarity over bags of AST path-context tokens: a proxy for what
   a static model sees. *)
let static_similarity m1 m2 =
  let bag m =
    Ast_paths.extract (Rng.create 7) (Encode.meth_tree m)
    |> List.map (fun c -> Ast_paths.path_token c)
    |> List.sort_uniq compare
  in
  let b1 = bag m1 and b2 = bag m2 in
  let inter = List.filter (fun x -> List.mem x b2) b1 in
  let union = List.sort_uniq compare (b1 @ b2) in
  float_of_int (List.length inter) /. float_of_int (List.length union)

(* array-state sequence on a given input: A's successive contents *)
let array_states meth input =
  let tr = Exec_trace.collect meth [ Value.VArr (Array.copy input) ] in
  Exec_trace.state_trace tr
  |> List.filter_map (fun env ->
         match List.assoc_opt "a" env with
         | Some (Some (Value.VArr arr)) -> Some (Array.to_list arr)
         | _ -> None)
  |> List.fold_left (* dedup consecutive *)
       (fun acc st -> match acc with s :: _ when s = st -> acc | _ -> st :: acc)
       []
  |> List.rev

let cosine a b =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i x ->
      dot := !dot +. (x *. b.(i));
      na := !na +. (x *. x);
      nb := !nb +. (b.(i) *. b.(i)))
    a;
  !dot /. (sqrt !na *. sqrt !nb +. 1e-12)

let () =
  let m1 = Parser.method_of_string sort1_src in
  let m2 = Parser.method_of_string sort2_src in
  let m3 = Parser.method_of_string sort3_src in

  Printf.printf "== 1. What a static model sees (AST path-context Jaccard) ==\n";
  Printf.printf "sim(sortI, sortII)  = %.3f   <- insertion sort, syntactically close\n"
    (static_similarity m1 m2);
  Printf.printf "sim(sortI, sortIII) = %.3f   <- the other bubble sort, syntactically far\n\n"
    (static_similarity m1 m3);

  Printf.printf "== 2. What the dynamic dimension sees (array-state sequences) ==\n";
  let input = [| 8; 5; 1; 4; 3 |] in
  let s1 = array_states m1 input and s2 = array_states m2 input and s3 = array_states m3 input in
  Printf.printf "input A = [8, 5, 1, 4, 3] (the paper's Figure 2 input)\n";
  Printf.printf "sortI and sortIII produce identical array-state sequences: %b\n" (s1 = s3);
  Printf.printf "sortI and sortII produce identical array-state sequences:  %b\n\n" (s1 = s2);

  Printf.printf "== 3. LiGer embeddings after training on the sorting problem ==\n";
  (* tiny classification setup: bubble vs insertion vs selection variants *)
  let rng = Rng.create 11 in
  let enc = { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 } in
  let budget = { Feedback.max_attempts = 200; target_paths = 6; per_path = 3; fuel = 8000 } in
  let train_programs =
    List.concat_map
      (fun (src, cls) ->
        List.init 12 (fun _ ->
            let m = Mutate.variant rng (Parser.method_of_string src) in
            (m, cls)))
      [ (sort1_src, 0); (sort2_src, 1); (sort3_src, 0) ]
  in
  let raw =
    List.filter_map
      (fun (m, cls) ->
        let r = Feedback.generate ~budget rng m in
        if r.Feedback.gave_up then None
        else Some (m, Feedback.blended m r, Common.Class cls))
      train_programs
  in
  let vocab = Vocab.create () in
  List.iter (fun (_, b, l) -> Common.register_example enc vocab b l) raw;
  Vocab.freeze vocab;
  let examples = List.map (fun (m, b, l) -> Common.encode_example enc vocab m b l) raw in
  let wrapper, model =
    Liger_eval.Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 12 }
      ~vocab (Liger_model.Classify 2)
  in
  (* no validation split: every epoch is kept, the last one wins *)
  ignore
    (Liger_eval.Train.fit
       ~options:{ Liger_eval.Train.default_options with Liger_eval.Train.epochs = 8 }
       rng wrapper ~train:examples ~valid:[]);
  (* embed the three pristine programs *)
  let embed m =
    let r = Feedback.generate ~budget rng m in
    let b = Feedback.blended m r in
    let ex = Common.encode_example enc vocab m b (Common.Class 0) in
    (Liger_model.embed_programs model [| ex |]).(0)
  in
  let e1 = embed m1 and e2 = embed m2 and e3 = embed m3 in
  Printf.printf "cosine(sortI, sortIII) = %.3f   (same algorithm)\n" (cosine e1 e3);
  Printf.printf "cosine(sortI, sortII)  = %.3f   (different algorithm)\n" (cosine e1 e2);
  if cosine e1 e3 > cosine e1 e2 then
    Printf.printf "\nLiGer groups the two bubble sorts together - the static view did not.\n"
  else
    Printf.printf "\n(at this tiny scale the embedding geometry can fluctuate; rerun with more epochs)\n"
