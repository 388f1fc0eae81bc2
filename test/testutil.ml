(** Shared helpers for the test suite.

    The polling helpers replace bare [Unix.sleepf] waits: a test that
    needs an asynchronous effect to land states the predicate it is
    waiting for and a hard timeout, so it waits exactly as long as
    necessary and fails with a message (not a hang, not a flake) when
    the condition never arrives. *)

(** [poll_until ?timeout_s ?interval_s pred] evaluates [pred] until it
    returns [true]; [false] if [timeout_s] elapses first. *)
let poll_until ?(timeout_s = 5.0) ?(interval_s = 0.002) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf interval_s;
      go ()
    end
  in
  go ()

(** [poll_for ~what f] evaluates [f] until it returns [Some v];
    [Alcotest.fail]s naming [what] on timeout. *)
let poll_for ?(timeout_s = 5.0) ?(interval_s = 0.002) ~what f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
        if Unix.gettimeofday () >= deadline then
          Alcotest.failf "timed out after %.1fs waiting for %s" timeout_s what
        else begin
          Unix.sleepf interval_s;
          go ()
        end
  in
  go ()

(** Assert [pred] becomes true within the timeout, failing with [what]. *)
let require ?timeout_s ?interval_s ~what pred =
  if not (poll_until ?timeout_s ?interval_s pred) then
    Alcotest.failf "timed out waiting for %s" what

(** Batched hooks for the stub models of the training-loop tests: each
    lane's loss is [w · x] for the [1 × n] parameter [w] and the constant
    input [x], and every prediction is class 0.  [?before] runs ahead of
    each forward pass. *)
let stub_batched ?(before = ignore) (w : Liger_tensor.Param.t) x =
  let open Liger_tensor in
  {
    Liger_eval.Train.train_loss_batch =
      (fun btape chunk ->
        before ();
        let g = Array.length chunk and n = Array.length x in
        let xs = Batched.const_arr btape ~rows:g ~cols:n (Array.init (g * n) (fun i -> x.(i mod n))) in
        Batched.matmul_nt btape xs w);
    predict_batch = (fun chunk -> Array.map (fun _ -> Liger_eval.Train.Class 0) chunk);
  }

(** Fail the test unless every parameter gradient of the 1×1 loss [build]
    records matches its central finite difference
    ({!Liger_fuzz.Oracle.grad_check}).

    Tolerance: central differences with eps = 1e-5 carry O(eps^2)
    truncation error plus ~1e-6 of float64 cancellation noise on O(1)
    values, so analytic and numeric gradients are compared with a RELATIVE
    tolerance (scaled by 1 + |numeric|), 2e-3 by default for one layer;
    stacks such as a softmax cross-entropy over a GRU need a looser one. *)
let grad_check ?(tol = 2e-3) store build =
  match Liger_fuzz.Oracle.grad_check ~tol store build with
  | Liger_fuzz.Oracle.Pass -> ()
  | Fail msg | Skip msg -> Alcotest.fail msg
