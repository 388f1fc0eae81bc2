(* Quickstart: the library's pipeline end to end on one program.

   1. Parse a MiniJava method.
   2. Generate executions with the feedback-directed test generator.
   3. Group them into blended traces (symbolic + concrete, Definition 5.1).
   4. Print a Figure 2-style rendering of one execution.
   5. Embed the program with an (untrained) LiGer encoder.

   Run with: dune exec examples/quickstart.exe *)

open Liger_lang
open Liger_trace
open Liger_tensor
open Liger_testgen
open Liger_core

let source =
  {|
method sortArray(int[] a) : int[] {
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < a.length - 1; i++) {
      if (a[i + 1] < a[i]) {
        int tmp = a[i];
        a[i] = a[i + 1];
        a[i + 1] = tmp;
        swapbit = 1;
      }
    }
  }
  return a;
}
|}

let () =
  let meth = Parser.method_of_string source in
  Printf.printf "== Parsed method '%s' (%d statements) ==\n%s\n" meth.Ast.mname
    (Ast.stmt_count meth) (Pretty.meth_to_string meth);

  (* collect executions: symbolic-execution-directed + random with feedback *)
  let rng = Rng.create 42 in
  let result = Feedback.generate rng meth in
  Printf.printf "== Test generation ==\n";
  Printf.printf "attempts: %d, kept traces: %d, crashes: %d\n\n"
    result.Feedback.n_attempts
    (List.length result.Feedback.traces)
    result.Feedback.n_crashes;

  (* group into blended traces *)
  let blended = Feedback.blended meth result in
  Printf.printf "== Blended traces ==\n";
  Printf.printf "%d distinct program paths; %d total concrete executions\n\n"
    (List.length blended)
    (Blended.total_executions blended);

  (* Figure 2-style display of the shortest execution *)
  let shortest =
    List.fold_left
      (fun best tr ->
        if Exec_trace.length tr < Exec_trace.length best then tr else best)
      (List.hd result.Feedback.traces)
      result.Feedback.traces
  in
  Printf.printf "== One execution (input: %s) ==\n%s\n"
    (String.concat ", " (List.map Value.to_display shortest.Exec_trace.input))
    (Exec_trace.to_display meth shortest);

  (* embed the program *)
  let enc = Common.default_enc_config in
  let vocab = Vocab.create () in
  Common.register_example vocab blended (Common.Name meth.Ast.mname);
  Vocab.freeze vocab;
  let ex = Common.encode_example enc vocab meth blended (Common.Name meth.Ast.mname) in
  let model = Liger_model.create vocab Liger_model.Naming in
  let embedding = (Liger_model.embed_programs model [| ex |]).(0) in
  Printf.printf "== Program embedding (untrained LiGer encoder, dim %d) ==\n[%s]\n"
    (Array.length embedding)
    (String.concat "; "
       (List.map (Printf.sprintf "%.3f") (Array.to_list embedding)));
  Printf.printf "\nNext steps: see examples/method_naming.ml for training, and\n";
  Printf.printf "bench/main.ml for the paper's full evaluation.\n"
