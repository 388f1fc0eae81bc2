(** A generic monotone-framework fixpoint solver.

    Every concrete pass (reaching definitions, liveness, constant
    propagation, ...) instantiates {!Solver} with a join-semilattice of facts
    and a per-node transfer function; the solver runs a worklist to the least
    fixpoint over a {!Cfg.t}, forward or backward.  Termination holds
    whenever the lattice has finite height over the method's variables and
    the transfer functions are monotone — true of all the passes here. *)

type direction = Forward | Backward

module type FACT = sig
  type t

  val bottom : t
  (** Least element: the initial fact at every node. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (F : FACT) = struct
  (** [before.(i)] is the fact flowing into node [i] in analysis order (for a
      backward pass that is the fact at the node's {e exit}); [after.(i)] is
      the result of the node's transfer function.  [iterations] counts nodes
      popped off the worklist before convergence. *)
  type result = { before : F.t array; after : F.t array; iterations : int }

  (** The worklist pops in reverse postorder of the flow direction: for a
      forward pass that is RPO over successor edges, for a backward pass
      RPO of the reversed graph (i.e. postorder).  A node is then processed
      after as many of its flow predecessors as the loop structure allows,
      and facts converge in near-linear sweeps. *)
  let solve ?(direction = Forward) (cfg : Cfg.t) ~(init : F.t)
      ~(transfer : Cfg.node -> F.t -> F.t) : result =
    let n = Cfg.n_nodes cfg in
    let before = Array.make n F.bottom in
    let after = Array.make n F.bottom in
    let flow_preds, flow_succs, start =
      match direction with
      | Forward -> (cfg.Cfg.preds, cfg.Cfg.succs, Cfg.entry)
      | Backward -> (cfg.Cfg.succs, cfg.Cfg.preds, Cfg.exit_)
    in
    (* Worklist priority: reverse postorder of the flow graph.  Nodes the
       DFS from [start] cannot reach sort last (they only ever enter the
       list in degenerate graphs). *)
    let order =
      let rpo, _, _ = Dominator.compute_rpo n flow_succs start in
      Array.map (fun i -> if i < 0 then n else i) rpo
    in
    (* Seed the worklist with the start node only.  Seeding every node looks
       harmless but is not: a node processed before the start fact reaches it
       sees a partial input (absent variables), and a transfer that is only
       monotone over inputs descending from [init] — constant propagation's
       [Var] lookup — can then produce transient facts that a loop circulates
       forever.  Starting from [start], every processed input is a join of
       real predecessor outputs, and unreachable nodes keep [bottom]. *)
    let queued = Array.make n false in
    let visited = Array.make n false in
    let iterations = ref 0 in
    (* priority set; the seq number breaks priority ties in insertion
       order *)
    let module PQ = Set.Make (struct
      type t = int * int * int (* priority, seq, node *)

      let compare = compare
    end) in
    let pq = ref PQ.empty in
    let seq = ref 0 in
    let push u =
      if not queued.(u) then begin
        queued.(u) <- true;
        pq := PQ.add (order.(u), !seq, u) !pq;
        incr seq
      end
    in
    push start;
    while not (PQ.is_empty !pq) do
      let ((_, _, u) as el) = PQ.min_elt !pq in
      pq := PQ.remove el !pq;
      queued.(u) <- false;
      incr iterations;
      let input =
        List.fold_left
          (fun acc p -> F.join acc after.(p))
          (if u = start then init else F.bottom)
          flow_preds.(u)
      in
      before.(u) <- input;
      let out = transfer cfg.Cfg.nodes.(u) input in
      (* a node's first processing must propagate even when its output equals
         bottom — successors still need their own first processing *)
      let first = not visited.(u) in
      visited.(u) <- true;
      if first || not (F.equal out after.(u)) then begin
        after.(u) <- out;
        List.iter push flow_succs.(u)
      end
    done;
    Liger_obs.Metrics.add "dataflow.iterations" !iterations;
    { before; after; iterations = !iterations }
end

(** Plain string sets, the fact domain shared by liveness and slicing. *)
module VarSet = Set.Make (String)

let pp_varset ppf s =
  Fmt.pf ppf "{%s}" (String.concat ", " (VarSet.elements s))
