(** The application engine behind [liger serve]: MiniJava source in,
    embeddings / neighbors / name suggestions out.

    Every submission runs the same pipeline as training — parse,
    typecheck, feedback-directed test generation (with a reduced,
    latency-oriented budget and a per-method RNG seed derived from the
    AST hash), blending, interning against the model's frozen vocabulary
    — and then the {e batched} forward: even a lone request is a
    one-lane [Batched] tape, so a coalesced burst of N requests produces
    bitwise the same per-lane vectors as N sequential calls (the batched
    forward deduplicates and gathers; no padding lane contributes).

    Results are cached in an AST-hash-keyed LRU ({!Lru}); unchanged
    methods hit the cache no matter how they were formatted
    ({!Ast_hash}).  An entry keeps the vector's JSON array next to the
    vector, rendered once on the miss, so a hit renders no float. *)

open Liger_lang
open Liger_trace
open Liger_tensor
open Liger_testgen
open Liger_core
module Metrics = Liger_obs.Metrics
module Json = Liger_obs.Json

type config = {
  batch_window_s : float;    (* coalescing window *)
  max_batch : int;           (* lanes per batched forward *)
  cache_capacity : int;      (* LRU entries *)
  feedback_budget : Feedback.budget;  (* reduced vs training: latency first *)
  enc_config : Common.enc_config;
  search_k : int;            (* default neighbors per /search *)
}

let default_config =
  {
    batch_window_s = 0.002;
    max_batch = 32;
    cache_capacity = 512;
    (* the training default is 400 attempts / 20 paths / fuel 20k; a
       serving request needs enough executions to blend, not a corpus *)
    feedback_budget =
      { Feedback.max_attempts = 60; target_paths = 6; per_path = 3; fuel = 8000 };
    enc_config = Common.default_enc_config;
    search_k = 5;
  }

(** A cache entry: the embedding and its JSON array, rendered on the miss
    that computed it. *)
type entry = { vector : float array; vector_json : string }

type t = {
  config : config;
  model : Liger_model.t;
  vocab : Vocab.t;
  index : Index.t option;
  cache : (string, entry) Lru.t;
  embed_co : (Common.enc_example, float array) Coalescer.t;
  suggest_co : (Common.enc_example, string list) Coalescer.t;
}

let create ?(config = default_config) ?index ~model ~vocab () =
  let embed_run exs =
    Metrics.incr "serve.batches" ~labels:[ ("op", "embed") ];
    Metrics.add "serve.batch_lanes" (Array.length exs) ~labels:[ ("op", "embed") ];
    Liger_model.embed_programs model exs
  in
  let suggest_run exs =
    Metrics.incr "serve.batches" ~labels:[ ("op", "suggest") ];
    Metrics.add "serve.batch_lanes" (Array.length exs) ~labels:[ ("op", "suggest") ];
    Liger_model.predict_name_ids_batch model exs
    |> Array.map (fun ids -> List.map (Vocab.name vocab) ids)
  in
  {
    config;
    model;
    vocab;
    index;
    cache = Lru.create ~capacity:config.cache_capacity;
    embed_co =
      Coalescer.create ~max_batch:config.max_batch ~window_s:config.batch_window_s
        ~run:embed_run ();
    suggest_co =
      Coalescer.create ~max_batch:config.max_batch ~window_s:config.batch_window_s
        ~run:suggest_run ();
  }

let stop t =
  Coalescer.stop t.embed_co;
  Coalescer.stop t.suggest_co

(* ---------------- the source pipeline ---------------- *)

(* parse + typecheck one submitted method; every rejection is a 4xx, never
   an exception escaping to the connection *)
let prepare body =
  if String.trim body = "" then Error (400, "empty body: POST MiniJava source")
  else
    match Parser.methods_of_string body with
    | exception Parser.Parse_error (msg, line) ->
        Error (400, Printf.sprintf "parse error at line %d: %s" line msg)
    | [] -> Error (400, "no method found in body")
    | meth :: _ -> (
        match Typecheck.check meth with
        | Error e ->
            Error (400, Printf.sprintf "type error at line %d: %s" e.Typecheck.line e.Typecheck.msg)
        | Ok () -> Ok (meth, Ast_hash.of_meth meth))

(* trace generation + interning; the expensive prefix of a cache miss.
   Standalone so [liger index] encodes offline corpora through exactly the
   pipeline the server applies to queries (same budget, same per-hash
   seed → same vectors). *)
let encode_method ?(config = default_config) ~vocab (meth : Ast.meth) hash =
  let rng = Rng.create (Ast_hash.seed_of_hex hash) in
  let result = Feedback.generate ~budget:config.feedback_budget rng meth in
  if result.Feedback.gave_up then
    Error (422, "could not generate executions for this method within the serving budget")
  else
    let blended = Feedback.blended meth result in
    Ok
      (Common.encode_example config.enc_config vocab meth blended
         (Common.Name meth.Ast.mname))

let encode t meth hash = encode_method ~config:t.config ~vocab:t.vocab meth hash

let vector_json v =
  "[" ^ String.concat "," (List.map Json.of_float_17 (Array.to_list v)) ^ "]"

(** The embedding of [meth], through cache and coalescer.  Returns the
    cache entry and whether it was served from cache. *)
let embed_vector t ~deadline (meth : Ast.meth) hash =
  match Lru.find t.cache hash with
  | Some e ->
      Metrics.incr "serve.cache_hits";
      Ok (e, true)
  | None -> (
      Metrics.incr "serve.cache_misses";
      match encode t meth hash with
      | Error _ as e -> e
      | Ok ex -> (
          match Coalescer.submit t.embed_co ~deadline ex with
          | Ok v ->
              let e = { vector = v; vector_json = vector_json v } in
              (* hits, misses and evictions count events; the entry count
                 is a gauge *)
              Lru.put t.cache hash e ~on_evict:(fun () -> Metrics.incr "serve.cache_evictions");
              Metrics.gauge "serve.cache_entries" (float_of_int (Lru.size t.cache));
              Ok (e, false)
          | Error `Expired ->
              Metrics.incr "serve.deadline_expired";
              Error (408, "deadline expired before a batch lane was allocated")))

(* ---------------- JSON bodies ---------------- *)

(* the /embed body around a vector already rendered by [vector_json] *)
let embed_json hash ~cached ~dim vector_json =
  String.concat ""
    [ "{\"hash\":\""; hash; "\",\"dim\":"; string_of_int dim; ",\"cached\":";
      string_of_bool cached; ",\"vector\":"; vector_json; "}" ]

let embed_body hash ~cached v = embed_json hash ~cached ~dim:(Array.length v) (vector_json v)

let search_body hash neighbors =
  let neighbor (score, key) =
    String.concat "" [ "{\"key\":\""; Json.escape key; "\",\"score\":"; Json.of_float_17 score; "}" ]
  in
  String.concat ""
    [ "{\"hash\":\""; hash; "\",\"neighbors\":["; String.concat "," (List.map neighbor neighbors); "]}" ]

let suggest_body hash subtokens =
  Printf.sprintf "{\"hash\":\"%s\",\"name\":\"%s\",\"subtokens\":[%s]}" hash
    (Json.escape (Subtoken.join subtokens))
    (String.concat ","
       (List.map (fun s -> "\"" ^ Json.escape s ^ "\"") subtokens))

(* ---------------- endpoints ---------------- *)

let err status msg = (status, "application/json", Http.error_body msg)

let embed_endpoint t ~deadline body =
  match prepare body with
  | Error (status, msg) -> err status msg
  | Ok (meth, hash) -> (
      match embed_vector t ~deadline meth hash with
      | Error (status, msg) -> err status msg
      | Ok (e, cached) ->
          ( 200,
            "application/json",
            embed_json hash ~cached ~dim:(Array.length e.vector) e.vector_json ))

let search_endpoint t ~deadline ~k body =
  match t.index with
  | None -> err 503 "no index loaded (start the server with --index DIR)"
  | Some index -> (
      match prepare body with
      | Error (status, msg) -> err status msg
      | Ok (meth, hash) -> (
          match embed_vector t ~deadline meth hash with
          | Error (status, msg) -> err status msg
          | Ok (e, _) ->
              (200, "application/json", search_body hash (Index.nearest index ~k e.vector))))

let suggest_endpoint t ~deadline body =
  match prepare body with
  | Error (status, msg) -> err status msg
  | Ok (meth, hash) -> (
      match encode t meth hash with
      | Error (status, msg) -> err status msg
      | Ok ex -> (
          match Coalescer.submit t.suggest_co ~deadline ex with
          | Ok subtokens -> (200, "application/json", suggest_body hash subtokens)
          | Error `Expired ->
              Metrics.incr "serve.deadline_expired";
              err 408 "deadline expired before a batch lane was allocated"))

(** The request handler {!Server.start} runs behind its gate: everything
    except [/healthz] and [/metrics], which the server owns. *)
let handle t ~deadline (req : Http.request) : int * string * string =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/embed" -> embed_endpoint t ~deadline req.Http.body
  | "POST", "/search" ->
      let k =
        match Option.bind (Http.query_param req "k") int_of_string_opt with
        | Some k when k >= 1 -> k
        | _ -> t.config.search_k
      in
      search_endpoint t ~deadline ~k req.Http.body
  | "POST", "/suggest" -> suggest_endpoint t ~deadline req.Http.body
  | _, ("/embed" | "/search" | "/suggest") -> err 405 "use POST with MiniJava source as the body"
  | _, path -> err 404 (Printf.sprintf "no such endpoint %s" path)
