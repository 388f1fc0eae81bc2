(** A mutex-protected LRU map with hit/miss/eviction counters — the
    embedding cache of {!Engine}, keyed by AST hash ({!Ast_hash}).

    Doubly-linked recency list over a hashtable: [find] refreshes recency,
    [put] evicts the least-recently-used entry once [capacity] is
    exceeded.  All operations are O(1) and safe to call from any server
    thread. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards most-recently-used *)
  mutable next : ('k, 'v) node option;  (* towards least-recently-used *)
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;
  mutable lru : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* unlink [node] from the recency list (caller holds the lock) *)
let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.mru <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> t.lru <- Some node);
  t.mru <- Some node

(** Look up [key]; a hit refreshes its recency. *)
let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value

(** Insert or refresh [key]; evicts the least-recently-used entry when the
    capacity is exceeded, calling [on_evict] once per eviction. *)
let put ?(on_evict = ignore) t key value =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.tbl key with
  | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
  | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key node;
      push_front t node;
      if Hashtbl.length t.tbl > t.capacity then
        match t.lru with
        | None -> ()
        | Some victim ->
            unlink t victim;
            Hashtbl.remove t.tbl victim.key;
            t.evictions <- t.evictions + 1;
            on_evict ())

let size t = locked t @@ fun () -> Hashtbl.length t.tbl
let capacity t = t.capacity
let hits t = locked t @@ fun () -> t.hits
let misses t = locked t @@ fun () -> t.misses
let evictions t = locked t @@ fun () -> t.evictions

(** Keys from most- to least-recently used (test introspection). *)
let keys_by_recency t =
  locked t @@ fun () ->
  let rec go acc = function
    | None -> List.rev acc
    | Some node -> go (node.key :: acc) node.next
  in
  go [] t.mru
