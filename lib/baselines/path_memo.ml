(** The AST path contexts of each example, extracted once and kept by
    example uid.  Predictions run in parallel (see [Train.predictions]),
    so the table is read and written under a mutex; an extraction runs
    outside it. *)

type 'a t = { table : (int, 'a) Hashtbl.t; lock : Mutex.t }

let create () = { table = Hashtbl.create 256; lock = Mutex.create () }

(** [find t uid extract]: the value kept for [uid], or [extract ()], kept.
    A concurrent extraction of the same example computes the same value,
    so whichever is kept first stays. *)
let find t uid extract =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table uid) with
  | Some v -> v
  | None ->
      let v = extract () in
      Mutex.protect t.lock (fun () ->
          if not (Hashtbl.mem t.table uid) then Hashtbl.add t.table uid v);
      v
