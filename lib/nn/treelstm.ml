(** Child-sum TreeLSTM (Tai et al. 2015, §4.2 of the paper).

    Embeds a labeled tree bottom-up: each node combines its own label
    embedding with the summed hidden states of its children, gated by a
    per-child forget gate:

    {v
    h~  = sum_k h_k
    i   = sigmoid(W_i x + U_i h~ + b_i)
    f_k = sigmoid(W_f x + U_f h_k + b_f)
    o   = sigmoid(W_o x + U_o h~ + b_o)
    u   = tanh  (W_u x + U_u h~ + b_u)
    c   = i * u + sum_k f_k * c_k
    h   = o * tanh(c)
    v}

    The fusion layer uses this to embed each statement's AST (§5.1.1). *)

open Liger_tensor
open Liger_trace
module P = Liger_obs.Profile

let layer = P.register_layer "treelstm"

type t = {
  wx : Param.t;  (* 4H x in : [i; o; u; f] input contributions *)
  uh : Param.t;  (* 3H x H  : [i; o; u] child-sum contributions *)
  uf : Param.t;  (* H x H   : per-child forget contribution *)
  b : Param.t;   (* 4H      : [i; o; u; f] biases *)
  dim_hidden : int;
}

let create store name ~dim_in ~dim_hidden =
  {
    wx = Param.matrix store (name ^ ".wx") (4 * dim_hidden) dim_in;
    uh = Param.matrix store (name ^ ".uh") (3 * dim_hidden) dim_hidden;
    uf = Param.matrix store (name ^ ".uf") dim_hidden dim_hidden;
    b = Param.vector store (name ^ ".b") (4 * dim_hidden);
    dim_hidden;
  }

(* Core over a pre-flattened forest.  [children.(i)] must reference only
   indices < i (post-order flattening guarantees this); [embed] maps an
   array of labels to a [|labels| × dim_in] batched node. *)
let embed_forest_flat_impl t btape ~embed ~(labels : 'a array)
    ~(children : int list array) ~(roots : int array) =
  let n = Array.length labels in
  if n = 0 || Array.length roots = 0 then invalid_arg "Treelstm.embed_forest: empty";
  Array.iteri
    (fun i cs ->
      List.iter
        (fun c ->
          if c < 0 || c >= i then invalid_arg "Treelstm.embed_forest: not post-order")
        cs)
    children;
  (* level = height: all childless nodes are level 0, so every node of a
     level >= 1 has at least one child, all at strictly lower levels *)
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    level.(i) <- List.fold_left (fun acc c -> Stdlib.max acc (level.(c) + 1)) 0 children.(i)
  done;
  let max_level = Array.fold_left Stdlib.max 0 level in
  let d = t.dim_hidden in
  (* Process levels bottom-up; all nodes of one level share one batched
     TreeLSTM cell evaluation.  [stack_pos] maps a node to its row in the
     vstack of the levels processed so far. *)
  let stack_pos = Array.make n (-1) in
  let level_h = ref [] and level_c = ref [] in  (* per level, reverse order *)
  let stacked = ref 0 in
  for lvl = 0 to max_level do
    let members =
      Array.of_list (List.filter (fun i -> level.(i) = lvl) (List.init n Fun.id))
    in
    let ln = Array.length members in
    let x = embed (Array.map (fun i -> labels.(i)) members) in
    let wxx = Batched.matmul_nt btape x t.wx in
    let bias = Batched.of_param btape ~lanes:ln t.b in
    let wx_slice off = Batched.slice_cols btape wxx (off * d) d in
    let b_slice off = Batched.slice_cols btape bias (off * d) d in
    (* flattened children of this level, keeping per-parent child order *)
    let child_rows = ref [] and child_groups = ref [] in
    Array.iteri
      (fun pos i ->
        List.iter
          (fun c ->
            child_rows := stack_pos.(c) :: !child_rows;
            child_groups := pos :: !child_groups)
          children.(i))
      members;
    let child_rows = Array.of_list (List.rev !child_rows) in
    let child_groups = Array.of_list (List.rev !child_groups) in
    let h_sum, forget =
      if Array.length child_rows = 0 then
        (Batched.zeros btape ~rows:ln ~cols:d, Batched.zeros btape ~rows:ln ~cols:d)
      else begin
        let all_h = Batched.vstack btape (List.rev !level_h) in
        let all_c = Batched.vstack btape (List.rev !level_c) in
        let h_child = Batched.gather_rows btape all_h child_rows in
        let c_child = Batched.gather_rows btape all_c child_rows in
        let h_sum =
          Batched.group_sum btape h_child ~groups:child_groups ~n_groups:ln
        in
        let f_base = Batched.add btape (wx_slice 3) (b_slice 3) in
        let f_k =
          Batched.sigmoid btape
            (Batched.add btape
               (Batched.gather_rows btape f_base child_groups)
               (Batched.matmul_nt btape h_child t.uf))
        in
        let forget =
          Batched.group_sum btape
            (Batched.mul btape f_k c_child)
            ~groups:child_groups ~n_groups:ln
        in
        (h_sum, forget)
      end
    in
    let uhh = Batched.matmul_nt btape h_sum t.uh in
    let uh_slice off = Batched.slice_cols btape uhh (off * d) d in
    let gate off =
      Batched.add btape (Batched.add btape (wx_slice off) (uh_slice off)) (b_slice off)
    in
    let i_g = Batched.sigmoid btape (gate 0) in
    let o_g = Batched.sigmoid btape (gate 1) in
    let u_g = Batched.tanh_ btape (gate 2) in
    let c = Batched.add btape (Batched.mul btape i_g u_g) forget in
    let h = Batched.mul btape o_g (Batched.tanh_ btape c) in
    Array.iteri (fun pos i -> stack_pos.(i) <- !stacked + pos) members;
    stacked := !stacked + ln;
    level_h := h :: !level_h;
    level_c := c :: !level_c
  done;
  let all_h = Batched.vstack btape (List.rev !level_h) in
  Batched.gather_rows btape all_h (Array.map (fun r -> stack_pos.(r)) roots)

(** Embed a pre-flattened forest with level-grouped packing: all nodes of
    equal height are evaluated as one batched TreeLSTM cell application,
    children aggregated with segment sums.  [children.(i)] must hold only
    indices [< i]; [roots] selects the output lanes.  [embed] maps an array
    of labels to a [|labels| × dim_in] node.  Returns root hidden states,
    one lane per root (in order). *)
let embed_forest_flat t btape ~embed ~labels ~children ~roots =
  if P.scope_on () then
    P.with_layer layer (fun () ->
        embed_forest_flat_impl t btape ~embed ~labels ~children ~roots)
  else embed_forest_flat_impl t btape ~embed ~labels ~children ~roots

(** Post-order flatten a forest for {!embed_forest_flat}, a node [n]
    having label [label n] and children [children n].  Children get
    smaller indices than their parent, siblings and trees keep their
    order, and [roots] holds each tree's index.  Two accessors rather than
    one returning a pair: a pair per node would be allocated. *)
let flatten ~label ~children trees =
  let labels_rev = ref [] and children_rev = ref [] in
  let count = ref 0 in
  let rec go tree =
    let cidx = List.map go (children tree) in
    let idx = !count in
    incr count;
    labels_rev := label tree :: !labels_rev;
    children_rev := cidx :: !children_rev;
    idx
  in
  let roots = Array.map go trees in
  (Array.of_list (List.rev !labels_rev), Array.of_list (List.rev !children_rev), roots)

(** Embed a forest of {!Encode.tree}s (convenience wrapper over
    {!embed_forest_flat}): post-order flattens the trees, then packs by
    level. *)
let embed_forest t btape ~embed trees =
  (match trees with [] -> invalid_arg "Treelstm.embed_forest: empty" | _ -> ());
  let labels, children, roots =
    flatten
      ~label:(function Encode.Leaf l | Encode.Node (l, _) -> l)
      ~children:(function Encode.Leaf _ -> [] | Encode.Node (_, cs) -> cs)
      (Array.of_list trees)
  in
  embed_forest_flat t btape ~embed ~labels ~children ~roots
