(* Batched-engine throughput probe: one-lane tapes (the batch-size-1
   training step) vs mini-batches on the same corpus and parameters.

   Usage:
     dune exec bench/batched.exe                  # default corpus (n=60)
     LIGER_BENCH_N=120 dune exec bench/batched.exe
     dune exec bench/batched.exe -- 8 16 32       # batch sizes to probe

   Prints, for each batch size: forward-only and forward+backward wall
   time per example, plus the speedup over one-lane tapes.  This is the
   number the train.LiGer examples_per_second history gate tracks. *)

open Liger_tensor
open Liger_core
open Liger_eval

let () =
  let batch_sizes =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 8; 16; 32 ]
    | args -> List.map int_of_string args
  in
  let n = Option.value (Liger_obs.Config.get ()).Liger_obs.Config.bench_n ~default:60 in
  let enc =
    { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  Printf.printf "building corpus (n=%d)...\n%!" n;
  let corpus =
    Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4242)
      ~name:"batched-bench" ~n
  in
  let train = Array.of_list corpus.Liger_dataset.Pipeline.train in
  let n_ex = Array.length train in
  Printf.printf "train examples: %d\n%!" n_ex;
  let wrap, model = Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab Liger_model.Naming in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let reps = 3 in
  let run_chunks bs backward () =
    let off = ref 0 in
    while !off < n_ex do
      let len = min bs (n_ex - !off) in
      let chunk = Array.sub train !off len in
      off := !off + len;
      let btape = Batched.tape () in
      let losses, _ = Liger_model.loss_batch model btape chunk in
      if backward then begin
        Batched.backward btape (Batched.sum_all btape losses);
        Param.zero_grads wrap.Train.store
      end
      else Batched.discard btape
    done
  in
  let timed bs backward = time (fun () -> for _ = 1 to reps do run_chunks bs backward () done) in
  let per_ex_us dt = dt /. float_of_int (reps * n_ex) *. 1e6 in
  (* reference: one-lane tapes, the batch-size-1 step of [Train.fit] *)
  let one_fwd = timed 1 false and one_fb = timed 1 true in
  Printf.printf "\n%-22s %14s %14s\n" "path" "fwd us/ex" "fwd+bwd us/ex";
  Printf.printf "%-22s %14.1f %14.1f\n%!" "one-lane (bs=1)" (per_ex_us one_fwd)
    (per_ex_us one_fb);
  List.iter
    (fun bs ->
      let fwd = timed bs false and fb = timed bs true in
      Printf.printf "%-22s %14.1f %14.1f   (%.2fx / %.2fx)\n%!"
        (Printf.sprintf "batched (bs=%d)" bs)
        (per_ex_us fwd) (per_ex_us fb) (one_fwd /. fwd) (one_fb /. fb))
    batch_sizes
