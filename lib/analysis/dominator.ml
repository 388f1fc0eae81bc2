(** Dominator and postdominator trees over statement-level CFGs, via the
    Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
    Algorithm"): number the nodes in reverse postorder, then iterate a
    two-finger intersection over each node's processed predecessors until the
    idom array stabilises.  On these small graphs the simple algorithm beats
    Lengauer–Tarjan and is hard to get wrong.

    Nodes unreachable from the root keep [idom = None] and dominate nothing;
    the root's [idom] is itself by CHK convention, exposed here as [None] so
    the tree reads as a proper forest. *)

type t = {
  root : int;
  idom : int option array;  (* immediate dominator; None for root/unreachable *)
  rpo : int array;          (* rpo.(node) = reverse-postorder number, -1 if unreachable *)
  reachable : bool array;
}

let compute_rpo n succs root =
  let rpo = Array.make n (-1) in
  let order = ref [] in
  let seen = Array.make n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter dfs succs.(u);
      order := u :: !order
    end
  in
  dfs root;
  List.iteri (fun i u -> rpo.(u) <- i) !order;
  (rpo, !order, seen)

let compute_generic n succs preds root : t =
  let rpo, order, reachable = compute_rpo n succs root in
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect f1 f2 =
    if f1 = f2 then f1
    else if rpo.(f1) > rpo.(f2) then intersect idom.(f1) f2
    else intersect f1 idom.(f2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> root then begin
          let processed = List.filter (fun p -> reachable.(p) && idom.(p) >= 0) preds.(b) in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  let idom_opt =
    Array.mapi (fun i d -> if i = root || d < 0 then None else Some d) idom
  in
  { root; idom = idom_opt; rpo; reachable = Array.map (fun s -> s) reachable }

(** Dominator tree rooted at [Cfg.entry]. *)
let dominators (cfg : Cfg.t) : t =
  compute_generic (Cfg.n_nodes cfg) cfg.Cfg.succs cfg.Cfg.preds Cfg.entry

(** Postdominator tree: dominators of the reversed graph rooted at
    [Cfg.exit_].  Nodes with no path to exit (none, after the nonterm lint
    gate) are unreachable here and postdominate nothing. *)
let postdominators (cfg : Cfg.t) : t =
  compute_generic (Cfg.n_nodes cfg) cfg.Cfg.preds cfg.Cfg.succs Cfg.exit_

(** [dominates t a b]: every path from the root to [b] passes through [a]
    (reflexive).  False whenever [b] is unreachable from the root. *)
let dominates t a b =
  if not (t.reachable.(a) && t.reachable.(b)) then false
  else begin
    let rec walk b = if b = a then true else match t.idom.(b) with None -> false | Some d -> walk d in
    walk b
  end

let strictly_dominates t a b = a <> b && dominates t a b

(** Strict dominators of [b], nearest first. *)
let strict_doms t b =
  if not t.reachable.(b) then []
  else begin
    let rec walk acc b = match t.idom.(b) with None -> List.rev acc | Some d -> walk (d :: acc) d in
    walk [] b
  end
