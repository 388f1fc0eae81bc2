(** Content addressing for methods: a 64-bit FNV-1a hash of the
    pretty-printed source.

    The pretty-printer normalizes whitespace and layout, and the roundtrip
    fuzz oracle guarantees [parse (pretty m)] reproduces [m] (statement ids
    are not printed), so the hash is stable under pretty→parse roundtrips —
    two submissions of the same method body always share a cache entry and
    an index entry, however they were formatted. *)

open Liger_lang

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* a plain loop over a local ref: the compiler keeps [h] unboxed, where a
   ref captured by a closure allocates an [Int64] box per byte *)
let of_string s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

(** [h] as 16 lowercase hex digits, most significant first (what
    [Printf.sprintf "%016Lx" h] prints). *)
let hex h =
  String.init 16 (fun i ->
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15])

(** The hash of a method's normalized source, as 16 lowercase hex digits. *)
let of_meth (m : Ast.meth) = hex (of_string (Pretty.meth_to_string m))

(** A deterministic RNG seed derived from a hash string — serving runs
    the feedback generator with a per-method seed so equal methods get
    equal traces regardless of request order or concurrency. *)
let seed_of_hex hash =
  (* fold the hex string through FNV again; keep it positive and small
     enough for Rng.create *)
  Int64.to_int (Int64.logand (of_string hash) 0x3fffffffL)
