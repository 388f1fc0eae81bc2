(** Helpers shared by the batched models (LiGer, DYPRO and the static
    baselines).

    {!States} packs every program state of a mini-batch into one padded
    pair of recurrences: each distinct variable value gets one row (an
    embedding row for a single token, one lane of the value RNN f1 for a
    composite), and each distinct state gets one lane of the state RNN f2.
    {!slots} and {!trace_memory} lay out ragged per-example row lists
    (decoder memory, attention candidates) as padded slot nodes with a
    validity mask; {!flatten} turns per-example items into lanes.
    {!infer}, {!argmax_rows} and {!class_losses} are the forward-only and
    classification-head plumbing every model repeats. *)

open Liger_tensor
open Liger_trace
open Liger_nn

module States = struct
  (* Values are deduplicated by content: composite values take slots 0,
     1, ... and single tokens -1, -2, ..., so both kinds share one slot
     space before the final row layout is known.  States are deduplicated
     by content too, per variable-name array. *)
  type t = {
    names : bool;
    comp_memo : (int array, int) Hashtbl.t;
    mutable comps_rev : int array list;
    mutable n_comps : int;
    sing_memo : (int, int) Hashtbl.t;
    mutable sings_rev : int list;
    mutable n_sings : int;
    state_memo : (int array, (int array array, int) Hashtbl.t) Hashtbl.t;
    mutable states_rev : (int array * int array) list;  (* name ids, value slots *)
    mutable n_states : int;
  }

  (** An empty packer.  With [~names:true] every variable feeds the
      concatenation of its name embedding and its value embedding to f2
      (DYPRO, §6.1); otherwise just the value (LiGer). *)
  let create ~names =
    {
      names;
      comp_memo = Hashtbl.create 256;
      comps_rev = [];
      n_comps = 0;
      sing_memo = Hashtbl.create 64;
      sings_rev = [];
      n_sings = 0;
      state_memo = Hashtbl.create 16;
      states_rev = [];
      n_states = 0;
    }

  let value_slot t (tokens : int array) =
    if Array.length tokens = 1 then begin
      match Hashtbl.find_opt t.sing_memo tokens.(0) with
      | Some q -> -q - 1
      | None ->
          let q = t.n_sings in
          t.n_sings <- q + 1;
          Hashtbl.add t.sing_memo tokens.(0) q;
          t.sings_rev <- tokens.(0) :: t.sings_rev;
          -q - 1
    end
    else
      match Hashtbl.find_opt t.comp_memo tokens with
      | Some f -> f
      | None ->
          let f = t.n_comps in
          t.n_comps <- f + 1;
          Hashtbl.add t.comp_memo tokens f;
          t.comps_rev <- tokens :: t.comps_rev;
          f

  (** The f2 lane of the state [vars] (one token array per variable, in
      the state's fixed order), adding it if no equal state was added
      before.  [~names] gives the variable-name token per position, used
      only by a packer created with names; positions past its end use the
      unknown token. *)
  let add t ?(names = [||]) (vars : int array array) =
    let names = if t.names then names else [||] in
    let memo =
      match Hashtbl.find_opt t.state_memo names with
      | Some m -> m
      | None ->
          let m = Hashtbl.create 256 in
          Hashtbl.add t.state_memo names m;
          m
    in
    match Hashtbl.find_opt memo vars with
    | Some s -> s
    | None ->
        let s = t.n_states in
        t.n_states <- s + 1;
        Hashtbl.add memo vars s;
        let name_ids =
          if t.names then
            Array.init (Array.length vars) (fun v ->
                if v < Array.length names then names.(v) else Vocab.unk_id)
          else [||]
        in
        t.states_rev <- (name_ids, Array.map (value_slot t) vars) :: t.states_rev;
        s

  (** Embed every added state on [btape]: row [s] of the result is the
      final f2 state of the state {!add} returned [s] for.  [None] when no
      state was added.  Identical states share one lane, so their
      gradients sum through later gathers: the per-state sum up to float
      reassociation. *)
  let embed t btape ~embedding ~f1 ~f2 =
    if t.n_states = 0 then None
    else begin
      let comps = Array.of_list (List.rev t.comps_rev) in
      let sings = Array.of_list (List.rev t.sings_rev) in
      let n_comps = Array.length comps in
      (* composite values: one padded f1 recurrence over their tokens *)
      let f1_final =
        if n_comps = 0 then None
        else begin
          let max_t = Array.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 comps in
          let steps =
            List.init max_t (fun ti ->
                let ids = Array.map (fun a -> if ti < Array.length a then a.(ti) else 0) comps in
                let mask =
                  Array.map (fun a -> if ti < Array.length a then 1.0 else 0.0) comps
                in
                (Embedding_layer.embed_ids embedding btape ids, Some mask))
          in
          Some (Rnn_cell.last_batch f1 btape ~lanes:n_comps steps)
        end
      in
      let sing =
        if sings = [||] then None else Some (Embedding_layer.embed_ids embedding btape sings)
      in
      let src =
        match (f1_final, sing) with
        | Some f, Some s -> Some (Batched.vstack btape [ f; s ])
        | Some f, None -> Some f
        | None, Some s -> Some s
        | None, None -> None
      in
      let row slot = if slot >= 0 then slot else n_comps - slot - 1 in
      let states = Array.of_list (List.rev t.states_rev) in
      (* f2 over the padded per-state variable sequences *)
      let steps =
        match src with
        | None -> []
        | Some src ->
            let max_v =
              Array.fold_left (fun acc (_, slots) -> Stdlib.max acc (Array.length slots)) 0 states
            in
            List.init max_v (fun v ->
                let live slots = v < Array.length slots in
                let idx =
                  Array.map (fun (_, slots) -> if live slots then row slots.(v) else 0) states
                in
                let mask = Array.map (fun (_, slots) -> if live slots then 1.0 else 0.0) states in
                let values = Batched.gather_rows btape src idx in
                let x =
                  if t.names then
                    let ids =
                      Array.map (fun (ids, slots) -> if live slots then ids.(v) else 0) states
                    in
                    Batched.concat_cols btape
                      [ Embedding_layer.embed_ids embedding btape ids; values ]
                  else values
                in
                (x, Some mask))
      in
      Some (Rnn_cell.last_batch f2 btape ~lanes:t.n_states steps)
    end
end

(** [slots btape src rows] lays out the ragged per-example row lists
    [rows] of [src] as padded slots: slot [m] is a [G × dim] node whose row
    [g] is row [rows.(g).(m)] of [src] (row 0 where example [g] has fewer
    rows), and the [G × maxM] mask marks the real ones.  There is always
    at least one slot; an example without rows has all its slots masked. *)
let slots btape src (rows : int array array) =
  let g_n = Array.length rows in
  let max_m =
    Stdlib.max 1 (Array.fold_left (fun acc a -> Stdlib.max acc (Array.length a)) 0 rows)
  in
  let mask = Tensor.zeros g_n max_m in
  let nodes =
    Array.init max_m (fun m ->
        let idx =
          Array.init g_n (fun g ->
              if m < Array.length rows.(g) then begin
                Tensor.set mask g m 1.0;
                rows.(g).(m)
              end
              else 0)
        in
        Batched.gather_rows btape src idx)
  in
  (nodes, mask)

(** Decoder memory of a batched trace recurrence: [states] holds one
    [lanes × dim] node per step, every lane included (a finished lane's
    row carries its last state).  An example's memory is its lanes' states
    in (lane, step) order, over each lane's [n_steps] real steps. *)
let trace_memory btape states ~lane_ex ~n_steps ~n_groups ~dim =
  match states with
  | [] -> ([| Batched.zeros btape ~rows:n_groups ~cols:dim |], Tensor.zeros n_groups 1)
  | _ ->
      let l_n = Array.length lane_ex in
      let all = Batched.vstack btape states in
      (* row of (lane l, step j) in [all] is [j * l_n + l] *)
      let rows_rev = Array.make n_groups [] in
      for l = 0 to l_n - 1 do
        for j = 0 to n_steps.(l) - 1 do
          rows_rev.(lane_ex.(l)) <- ((j * l_n) + l) :: rows_rev.(lane_ex.(l))
        done
      done;
      slots btape all (Array.map (fun rs -> Array.of_list (List.rev rs)) rows_rev)

(** [statement_means memory g sids]: per statement id, the mean of lane
    [g]'s memory slots that execute it, where [sids.(m)] is the statement
    id of slot [m] (slots past [sids] are not read).  Returns [(sid,
    vector)] pairs in statement-id order. *)
let statement_means (memory : Batched.node array) g (sids : int array) =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun m sid ->
      let v = Batched.row_value memory.(m) g in
      match Hashtbl.find_opt tbl sid with
      | Some (sum, n) ->
          Array.iteri (fun i x -> sum.(i) <- sum.(i) +. x) v;
          Hashtbl.replace tbl sid (sum, n + 1)
      | None -> Hashtbl.add tbl sid (v, 1))
    sids;
  Hashtbl.fold
    (fun sid (sum, n) acc -> (sid, Array.map (fun x -> x /. float_of_int n) sum) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [flatten items] concatenates per-example item arrays into one array
    of lanes; returns it with each example's lane indices (its rows) and
    each lane's example (the [~groups] of {!Batched.group_sum}). *)
let flatten (items : 'a array array) =
  let off = ref 0 in
  let rows =
    Array.map
      (fun xs ->
        let r = Array.init (Array.length xs) (fun i -> !off + i) in
        off := !off + Array.length xs;
        r)
      items
  in
  let groups =
    Array.concat (Array.to_list (Array.mapi (fun g xs -> Array.map (fun _ -> g) xs) items))
  in
  (Array.concat (Array.to_list items), rows, groups)

(** [infer exs f] runs the forward pass [f btape] over the batch [exs] on
    a fresh tape and discards the tape; [[||]] for an empty batch. *)
let infer exs f =
  if Array.length exs = 0 then [||]
  else begin
    let btape = Batched.tape () in
    let out = f btape in
    Batched.discard btape;
    out
  end

(** The argmax class of every lane of a [G × classes] logits node. *)
let argmax_rows logits =
  Array.init (Batched.lanes logits) (fun g -> Tensor.argmax (Batched.row_value logits g))

(** Per-example cross-entropy ([G×1]) of [logits] against each example's
    single class target; [who] names the caller in the error raised for a
    target that is not one class. *)
let class_losses btape logits (exs : Common.enc_example array) ~who =
  let targets =
    Array.map
      (fun (ex : Common.enc_example) ->
        match ex.Common.target_ids with
        | [ c ] -> c
        | _ -> invalid_arg (who ^ ": classification target must be one class"))
      exs
  in
  fst (Batched.softmax_xent_rows btape logits ~targets ~weights:(Array.make (Array.length exs) 1.0))
