(* The model profiler and snapshot diffing: disabled-path inertness (no
   allocation, nothing recorded), FLOP/byte accounting against the documented
   conventions on a known-shape matvec, masked recurrences paying GEMM
   FLOPs for live lanes only, live/peak memory gauge monotonicity,
   per-layer forward AND backward attribution through the tape tags, the
   diff/render goldens behind [liger stats A B --diff], and validate_file's
   profile cross-check. *)

open Liger_tensor
open Liger_nn
module View = Liger_obs_view.Readers
module OM = Liger_obs.Metrics
module P = Liger_obs.Profile
module Json = Liger_obs.Json

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* profiling/metrics flags are process-global; every test pins its own *)
let fresh ~profiling =
  OM.enable ();
  OM.reset ();
  P.reset ();
  if profiling then P.enable () else P.disable ()

(* ------------------------------------------------------------------ *)
(* Disabled path: no allocation, nothing recorded                      *)
(* ------------------------------------------------------------------ *)

let test_disabled_inert () =
  fresh ~profiling:false;
  let o = P.register_op "test.inert" in
  (* the call-site guard is the contract: when profiling is off the float
     arguments must never be computed or boxed *)
  let before = Gc.allocated_bytes () in
  for i = 1 to 1000 do
    if P.on () then P.op o ~flops:(float_of_int (2 * i)) ~bytes:16.0
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "guarded loop allocates nothing (saw %.0f bytes)" allocated)
    true (allocated < 256.0);
  (* the layer-scope guard every lib/nn entry point uses: with profiling
     and dynamics both off it is one branch, and no closure is built *)
  Liger_obs.Dynamics.disable ();
  let l = P.register_layer "test.inert" in
  let impl i = i land 7 in
  let acc = ref 0 in
  let before = Gc.allocated_bytes () in
  for i = 1 to 1000 do
    acc := !acc + if P.scope_on () then P.with_layer l (fun () -> impl i) else impl i
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "layer-scope guard allocates nothing (saw %.0f bytes)" allocated)
    true (allocated < 256.0);
  Alcotest.(check int) "guarded body ran every time" 3500 !acc;
  (* library code behind the same guard records nothing while disabled *)
  let tape = Batched.tape () in
  let store = Param.create_store ~seed:1 () in
  let w = Param.matrix store "w" 4 6 in
  let y = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:6 (Array.make 6 1.0)) w in
  Batched.backward tape (Batched.sum_all tape y);
  let s = P.snapshot () in
  Alcotest.(check int) "no ops recorded while disabled" 0 (List.length s.P.ops);
  Alcotest.(check int) "no layers recorded while disabled" 0 (List.length s.P.layers);
  Alcotest.(check int) "no live bytes tracked while disabled" 0 (P.live_bytes ())

(* ------------------------------------------------------------------ *)
(* FLOP/byte accounting on a known shape                               *)
(* ------------------------------------------------------------------ *)

let find_op (s : P.snapshot) name =
  match List.find_opt (fun (o : P.op_stat) -> o.P.op_name = name) s.P.ops with
  | Some o -> o
  | None -> Alcotest.fail (name ^ " not in snapshot")

let test_matvec_flops () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:2 () in
  let w = Param.matrix store "w" 4 6 in
  let tape = Batched.tape () in
  let y = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:6 (Array.make 6 1.0)) w in
  Batched.backward tape (Batched.sum_all tape y);
  let s = P.snapshot () in
  (* documented conventions (batched.ml): a one-lane GEMM (a matvec)
     forward 2rc FLOPs and 16*rows bytes (value+grad buffers), backward
     4rc FLOPs *)
  let fwd = find_op s "bad.gemm" in
  Alcotest.(check int) "matvec count" 1 fwd.P.count;
  Alcotest.(check (float 1e-9)) "matvec fwd flops = 2rc" 48.0 fwd.P.flops;
  Alcotest.(check (float 1e-9)) "matvec fwd bytes = 16r" 64.0 fwd.P.bytes;
  let bwd = find_op s "bad.gemm.bwd" in
  Alcotest.(check int) "matvec bwd count" 1 bwd.P.count;
  Alcotest.(check (float 1e-9)) "matvec bwd flops = 4rc" 96.0 bwd.P.flops;
  (* sum: n forward, n backward *)
  let sum_fwd = find_op s "bad.sum_all" in
  Alcotest.(check (float 1e-9)) "sum fwd flops = n" 4.0 sum_fwd.P.flops;
  let sum_bwd = find_op s "bad.sum_all.bwd" in
  Alcotest.(check (float 1e-9)) "sum bwd flops = n" 4.0 sum_bwd.P.flops

(* ------------------------------------------------------------------ *)
(* Memory gauges                                                       *)
(* ------------------------------------------------------------------ *)

let test_memory_monotonic () =
  fresh ~profiling:true;
  Alcotest.(check int) "live starts at 0" 0 (P.live_bytes ());
  P.alloc 100;
  Alcotest.(check int) "live after alloc" 100 (P.live_bytes ());
  Alcotest.(check int) "peak tracks live" 100 (P.peak_bytes ());
  P.alloc 50;
  Alcotest.(check int) "peak at high-water mark" 150 (P.peak_bytes ());
  P.release 100;
  Alcotest.(check int) "release lowers live" 50 (P.live_bytes ());
  Alcotest.(check int) "peak never decreases" 150 (P.peak_bytes ());
  P.alloc 20;
  Alcotest.(check int) "live tracks churn" 70 (P.live_bytes ());
  Alcotest.(check int) "peak unchanged below the mark" 150 (P.peak_bytes ());
  Alcotest.(check bool) "peak >= live always" true (P.peak_bytes () >= P.live_bytes ());
  (* a tape's pushes feed the same gauges; backward releases them *)
  let tape = Batched.tape () in
  let live0 = P.live_bytes () in
  let a = Batched.const_arr tape ~rows:1 ~cols:8 (Array.make 8 1.0) in
  Alcotest.(check bool) "tape push raises live" true (P.live_bytes () > live0);
  Batched.backward tape (Batched.sum_all tape a);
  Alcotest.(check int) "backward releases the tape" live0 (P.live_bytes ())

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                               *)
(* ------------------------------------------------------------------ *)

let find_layer (s : P.snapshot) name =
  match List.find_opt (fun (l : P.layer_stat) -> l.P.layer_name = name) s.P.layers with
  | Some l -> l
  | None -> Alcotest.fail (name ^ " not in snapshot")

let test_layer_fwd_bwd_nonzero () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:3 () in
  let lin = Linear.create store "lin" ~dim_in:128 ~dim_out:128 in
  let tape = Batched.tape () in
  let x = Batched.const_arr tape ~rows:1 ~cols:128 (Array.make 128 0.5) in
  let total = ref (Batched.zeros tape ~rows:1 ~cols:1) in
  for _ = 1 to 50 do
    total := Batched.add tape !total (Batched.sum_all tape (Linear.forward_batch lin tape x))
  done;
  Batched.backward tape !total;
  let s = P.snapshot () in
  let l = find_layer s "linear" in
  Alcotest.(check int) "one call per forward" 50 l.P.calls;
  Alcotest.(check bool) "forward time nonzero" true (l.P.fwd_total_s > 0.0);
  Alcotest.(check bool) "self time <= total" true (l.P.fwd_self_s <= l.P.fwd_total_s);
  (* the affine nodes built inside the layer frame carry its tag, so
     backward time lands on the layer, not on (untagged) *)
  Alcotest.(check bool) "backward time nonzero" true (l.P.bwd_s > 0.0);
  Alcotest.(check bool) "untagged backward time non-negative" true (s.P.untagged_bwd_s >= 0.0)

(* Masked recurrences compute only the live lanes: over three lanes of
   lengths 1, 4 and 6 the forward GEMM FLOPs are (1+4+6) one-lane steps,
   not 3 lanes × 6 steps of lockstep padding. *)
let test_live_lane_flops () =
  let lengths = [| 1; 4; 6 |] in
  let gemm_flops build =
    fresh ~profiling:true;
    let btape = Batched.tape () in
    ignore (build btape);
    Batched.discard btape;
    let flops = (find_op (P.snapshot ()) "bad.gemm").P.flops in
    P.disable ();
    flops
  in
  List.iter
    (fun (name, kind) ->
      let store = Param.create_store ~seed:4 () in
      let cell = Rnn_cell.create ~kind store "cell" ~dim_in:3 ~dim_hidden:4 in
      let input btape lanes =
        Batched.const_arr btape ~rows:lanes ~cols:3 (Array.make (3 * lanes) 0.5)
      in
      let per_step =
        gemm_flops (fun btape ->
            Rnn_cell.last_batch cell btape ~lanes:1 [ (input btape 1, None) ])
      in
      let mask s = Array.map (fun n -> if s < n then 1.0 else 0.0) lengths in
      let ragged =
        gemm_flops (fun btape ->
            Rnn_cell.last_batch cell btape ~lanes:3
              (List.init 6 (fun s -> (input btape 3, Some (mask s)))))
      in
      Alcotest.(check bool) (name ^ ": a step costs GEMM FLOPs") true (per_step > 0.0);
      Alcotest.(check (float 0.0)) (name ^ ": forward GEMM FLOPs = 11 lane-steps")
        (11.0 *. per_step) ragged)
    [ ("gru", Rnn_cell.Gru); ("vanilla", Rnn_cell.Vanilla) ]

(* Every GEMM op site times its kernel: after one pass through each of
   them (matmul_nt, affine, its sliced twin and the fused attention
   scorer) the bad.gemm and bad.gemm.bwd rows carry seconds, and the
   report's op table prints them instead of "-". *)
let test_gemm_seconds () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:5 () in
  let w = Param.matrix store "w" 64 96 and b = Param.vector store "b" 64 in
  let v = Param.matrix store "v" 1 64 in
  let tape = Batched.tape () in
  let x = Batched.const_arr tape ~rows:16 ~cols:64 (Array.init 1024 (fun i -> float (i mod 7))) in
  let y = Batched.matmul_nt_slice tape x w ~off:32 in
  let wide = Batched.const_arr tape ~rows:16 ~cols:96 (Array.make 1536 0.25) in
  let z = Batched.affine_tanh tape ~w ~b wide in
  let h = Batched.matmul_nt tape (Batched.add tape y z) (Param.matrix store "u" 64 64) in
  let scores = Batched.matvec_stack_cols tape h v ~lanes:4 in
  Batched.backward tape (Batched.sum_all tape scores);
  let s = P.snapshot () in
  let fwd = find_op s "bad.gemm" and bwd = find_op s "bad.gemm.bwd" in
  Alcotest.(check int) "four forward GEMM sites" 4 fwd.P.count;
  Alcotest.(check int) "four backward GEMM sites" 4 bwd.P.count;
  Alcotest.(check bool) "forward GEMM seconds recorded" true (fwd.P.seconds > 0.0);
  Alcotest.(check bool) "backward GEMM seconds recorded" true (bwd.P.seconds > 0.0);
  let report = Liger_obs.Obs.report () in
  P.disable ();
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun line -> List.hd (String.split_on_char ' ' (String.trim line)) = name)
          (String.split_on_char '\n' report)
      with
      | None -> Alcotest.failf "no %s row in the report" name
      | Some line ->
          Alcotest.(check bool)
            (Printf.sprintf "%s row prints seconds: %S" name line)
            false
            (String.ends_with ~suffix:"-" (String.trim line)))
    [ "bad.gemm"; "bad.gemm.bwd" ]

(* Every model layer of a whole LiGer batched step is attributed: each
   enters its scope (calls) and owns tape nodes (backward time). *)
let test_liger_batched_layers () =
  let c =
    Liger_dataset.Pipeline.build_naming (Rng.create 4321) ~name:"profile-layers" ~n:20
  in
  let examples =
    Array.of_list
      (c.Liger_dataset.Pipeline.train @ c.Liger_dataset.Pipeline.valid
     @ c.Liger_dataset.Pipeline.test)
  in
  let chunk = Array.sub examples 0 (min 16 (Array.length examples)) in
  let wrap, _ =
    Liger_eval.Zoo.liger ~vocab:c.Liger_dataset.Pipeline.vocab Liger_core.Liger_model.Naming
  in
  fresh ~profiling:true;
  ignore (Liger_eval.Train.backward_chunk (Liger_eval.Train.batched_hooks wrap) chunk);
  let s = P.snapshot () in
  P.disable ();
  List.iter
    (fun name ->
      let l = find_layer s name in
      Alcotest.(check bool) (name ^ " called") true (l.P.calls > 0);
      Alcotest.(check bool) (name ^ " backward time nonzero") true (l.P.bwd_s > 0.0))
    [ "attention"; "decoder"; "embedding"; "linear"; "rnn_cell"; "treelstm" ]

(* ------------------------------------------------------------------ *)
(* Diff goldens                                                        *)
(* ------------------------------------------------------------------ *)

let m1 = [ ("speedup", 1.5); ("par_methods_per_second", 4.0) ]
let m2 = [ ("speedup", 0.6); ("par_methods_per_second", 2.0) ]

let test_diff_golden () =
  let rendered = View.render_diff ~threshold:0.25 m1 m2 in
  let expected =
    "metric                  before  after  change\n\
     par_methods_per_second       4      2    -50%  !\n\
     speedup                    1.5    0.6    -60%  !\n"
  in
  Alcotest.(check string) "render_diff golden" expected rendered;
  (* a metric present on one side only is reported with '-' and flagged *)
  let d = View.diff ~threshold:0.5 [ ("a", 1.0) ] [ ("a", 1.2); ("b", 3.0) ] in
  Alcotest.(check int) "union of names" 2 (List.length d);
  let a = List.nth d 0 and b = List.nth d 1 in
  Alcotest.(check bool) "within threshold unflagged" false a.View.flagged;
  Alcotest.(check bool) "missing side flagged" true b.View.flagged;
  Alcotest.(check bool) "missing side is nan" true (Float.is_nan b.View.before)

let test_stats_diff_files () =
  (* two metrics snapshots with controlled counters *)
  let write_snapshot v =
    fresh ~profiling:false;
    OM.add "pipeline.methods" v;
    OM.fadd "pipeline.seconds" (float_of_int v *. 0.5);
    let path = Filename.temp_file "liger" ".metrics.json" in
    OM.write path;
    path
  in
  let a = write_snapshot 100 and b = write_snapshot 80 in
  (match View.diff_files ~threshold:0.1 a b with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
      let expected =
        Printf.sprintf
          "diff: %s -> %s\n\
           metric            before  after  change\n\
           pipeline.methods     100     80    -20%%  !\n\
           pipeline.seconds      50     40    -20%%  !\n"
          a b
      in
      Alcotest.(check string) "diff_files golden" expected text);
  Sys.remove a;
  Sys.remove b

(* ------------------------------------------------------------------ *)
(* validate_file: the profile cross-check                              *)
(* ------------------------------------------------------------------ *)

let test_validate_profile_section () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:4 () in
  let w = Param.matrix store "w" 3 3 in
  let tape = Batched.tape () in
  let y = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:3 (Array.make 3 1.0)) w in
  Batched.backward tape (Batched.sum_all tape y);
  P.publish ();
  let path = Filename.temp_file "liger" ".metrics.json" in
  OM.write path;
  (match View.validate_file path with
  | Error msg -> Alcotest.fail ("published snapshot rejected: " ^ msg)
  | Ok summary ->
      Alcotest.(check bool) "summary mentions the profile section" true
        (contains summary "profile section"));
  Sys.remove path;
  (* an op counter without its flops twin was not produced by publish *)
  let bad = Filename.temp_file "liger" ".metrics.json" in
  let oc = open_out bad in
  output_string oc
    {|{"counters":{"profile.op_count{op=bad.gemm}":1},"fcounters":{},"gauges":{},"histograms":{}}|};
  close_out oc;
  (match View.validate_file bad with
  | Ok _ -> Alcotest.fail "incomplete profile section accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the missing metric" true
        (contains msg "profile.op_flops"));
  Sys.remove bad

let () =
  Alcotest.run "profile"
    [
      ( "contract",
        [ Alcotest.test_case "disabled path is inert" `Quick test_disabled_inert ] );
      ( "accounting",
        [
          Alcotest.test_case "matvec FLOPs/bytes match conventions" `Quick test_matvec_flops;
          Alcotest.test_case "live/peak memory monotonicity" `Quick test_memory_monotonic;
          Alcotest.test_case "layer forward+backward attribution" `Quick
            test_layer_fwd_bwd_nonzero;
          Alcotest.test_case "masked recurrences compute live lanes only" `Quick
            test_live_lane_flops;
          Alcotest.test_case "LiGer batched step attributes every layer" `Quick
            test_liger_batched_layers;
          Alcotest.test_case "GEMM ops record kernel seconds" `Quick test_gemm_seconds;
        ] );
      ( "history",
        [
          Alcotest.test_case "diff golden" `Quick test_diff_golden;
          Alcotest.test_case "stats --diff on snapshots" `Quick test_stats_diff_files;
          Alcotest.test_case "validate checks the profile section" `Quick
            test_validate_profile_section;
        ] );
    ]
