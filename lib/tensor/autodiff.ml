(** {!Batched}'s [tape], [length] and [backward] under their former names.

    {!Batched} is the only autodiff engine.  This alias exists only for
    perfbench's traced step loop ([perfbench/train_wl.ml]), which calls
    these three functions on one-lane tapes; nothing else uses it. *)

let tape = Batched.tape
let length = Batched.length
let backward = Batched.backward
