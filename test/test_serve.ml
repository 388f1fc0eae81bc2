(* Tests for the serving stack (lib/serve): the incremental HTTP parser
   under golden, pipelined, torn and malformed inputs; the request
   coalescer's single-batch and never-a-lane-past-deadline guarantees;
   the LRU cache against a reference model; AST-hash stability under
   pretty-print/parse roundtrips; backpressure (429) and deadlines (408)
   end-to-end over loopback sockets; the OOV sub-token contract; and the
   serving arm of the determinism contract (byte-identical responses
   across job counts and reruns, byte-identical index builds). *)

open Liger_tensor
open Liger_core
open Liger_dataset
open Liger_eval
module Http = Liger_serve.Http
module Lru = Liger_serve.Lru
module Ast_hash = Liger_serve.Ast_hash
module Coalescer = Liger_serve.Coalescer
module Engine = Liger_serve.Engine
module Server = Liger_serve.Server
module Client = Liger_serve.Client
module Index = Liger_serve.Index
module Vocab = Liger_trace.Vocab
module Parallel = Liger_parallel.Parallel
module OM = Liger_obs.Metrics

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what s sub =
  if not (contains s sub) then Alcotest.failf "%s: %S not found in %S" what sub s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "liger-serve-test-%s-%d" name (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o700;
  d

(* one small shared corpus + untrained model for all serving tests; the
   serving pipeline (parse → trace → encode → batched forward) does not
   need trained weights to be exercised *)
let enc =
  { Common.default_enc_config with Common.max_paths = 3; max_concrete = 3; max_steps = 12 }

let fixture =
  lazy
    (let corpus =
       Pipeline.build_naming ~enc_config:enc (Rng.create 4242) ~name:"serve-corpus" ~n:40
     in
     let vocab = corpus.Pipeline.vocab in
     let _wrap, model = Zoo.liger ~vocab Liger_model.Naming in
     let sources =
       corpus.Pipeline.train
       |> List.filteri (fun i _ -> i < 6)
       |> List.map (fun (ex : Common.enc_example) ->
              Liger_lang.Pretty.meth_to_string ex.Common.meth)
     in
     (model, vocab, sources))

let fast_config = { Engine.default_config with Engine.batch_window_s = 0.0 }

let parse_first src = List.hd (Liger_lang.Parser.methods_of_string src)

let far_deadline () = Unix.gettimeofday () +. 30.0

(* ------------------------------------------------------------------ *)
(* HTTP parser                                                         *)
(* ------------------------------------------------------------------ *)

let test_http_golden () =
  let raw = "POST /embed HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" in
  match Http.parse raw with
  | Http.Complete (req, consumed) ->
      Alcotest.(check string) "method" "POST" req.Http.meth;
      Alcotest.(check string) "path" "/embed" req.Http.path;
      Alcotest.(check string) "body" "hello" req.Http.body;
      Alcotest.(check (option string)) "header lowercased" (Some "x") (Http.header req "Host");
      Alcotest.(check int) "consumed everything" (String.length raw) consumed
  | _ -> Alcotest.fail "golden request did not parse"

let test_http_query () =
  match Http.parse "GET /search?k=3&q=a%20b+c HTTP/1.1\r\n\r\n" with
  | Http.Complete (req, _) ->
      Alcotest.(check string) "path split from query" "/search" req.Http.path;
      Alcotest.(check (option string)) "int param" (Some "3") (Http.query_param req "k");
      Alcotest.(check (option string)) "decoded param" (Some "a b c") (Http.query_param req "q")
  | _ -> Alcotest.fail "query request did not parse"

let test_http_pipelined () =
  let r1 = "POST /embed HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc" in
  let r2 = "GET /healthz HTTP/1.1\r\n\r\n" in
  let input = r1 ^ r2 in
  match Http.parse input with
  | Http.Complete (req1, c1) -> (
      Alcotest.(check string) "first body" "abc" req1.Http.body;
      Alcotest.(check int) "first consumed exactly its bytes" (String.length r1) c1;
      let rest = String.sub input c1 (String.length input - c1) in
      match Http.parse rest with
      | Http.Complete (req2, c2) ->
          Alcotest.(check string) "second path" "/healthz" req2.Http.path;
          Alcotest.(check int) "second consumed" (String.length r2) c2
      | _ -> Alcotest.fail "second pipelined request did not parse")
  | _ -> Alcotest.fail "first pipelined request did not parse"

(* every strict prefix of a full request must park as Incomplete — never
   crash, never mis-parse — and the full byte string must parse whole *)
let test_http_torn_reads () =
  let raw = "POST /embed HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello" in
  let n = String.length raw in
  for i = 0 to n - 1 do
    match Http.parse (String.sub raw 0 i) with
    | Http.Incomplete -> ()
    | Http.Complete _ -> Alcotest.failf "torn read at byte %d parsed as complete" i
    | Http.Reject (s, m) -> Alcotest.failf "torn read at byte %d rejected: %d %s" i s m
  done;
  match Http.parse raw with
  | Http.Complete (_, consumed) -> Alcotest.(check int) "full request consumed" n consumed
  | _ -> Alcotest.fail "full request did not parse after torn-read sweep"

let expect_reject ?limits what input status =
  match Http.parse ?limits input with
  | Http.Reject (s, _) -> Alcotest.(check int) what status s
  | Http.Complete _ -> Alcotest.failf "%s: parsed malformed input" what
  | Http.Incomplete -> Alcotest.failf "%s: wanted more input instead of rejecting" what

let test_http_malformed () =
  expect_reject "garbage request line" "garbage\r\n\r\n" 400;
  expect_reject "unsupported version" "GET / HTTP/2.0\r\n\r\n" 505;
  expect_reject "relative target" "GET nope HTTP/1.1\r\n\r\n" 400;
  expect_reject "bad content-length" "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n" 400;
  expect_reject "negative content-length" "GET / HTTP/1.1\r\nContent-Length: -4\r\n\r\n" 400;
  expect_reject "header without colon" "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n" 400

let test_http_oversized () =
  let limits = { Http.max_head_bytes = 64; max_body_bytes = 8 } in
  expect_reject ~limits "oversized head"
    ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 128 'a')
    431;
  (* the body limit rejects on the declared length, before buffering it *)
  expect_reject ~limits "oversized body" "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n" 413

let test_http_response_deterministic () =
  let a = Http.response ~status:200 "{\"x\":1}" in
  let b = Http.response ~status:200 "{\"x\":1}" in
  Alcotest.(check string) "identical bytes for identical input" a b;
  Alcotest.(check bool) "no Date header" false (contains a "Date:");
  check_contains "content-length framing" a "Content-Length: 7\r\n"

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_lru_basics () =
  let c = Lru.create ~capacity:3 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  Alcotest.(check (list string)) "recency order" [ "c"; "b"; "a" ] (Lru.keys_by_recency c);
  ignore (Lru.find c "a");
  (* "a" was refreshed, so the victim is "b" *)
  Lru.put c "d" 4;
  Alcotest.(check (option int)) "lru evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "refreshed entry survives" (Some 1) (Lru.find c "a");
  Alcotest.(check int) "size capped" 3 (Lru.size c);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check int) "hits counted" 2 (Lru.hits c);
  Alcotest.(check int) "misses counted" 1 (Lru.misses c);
  (* re-putting an existing key updates in place, no eviction *)
  Lru.put c "a" 10;
  Alcotest.(check (option int)) "value updated" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "no spurious eviction" 1 (Lru.evictions c)

(* random op sequences against an executable specification: an MRU-first
   association list bounded at the capacity *)
let lru_model_prop =
  QCheck.Test.make ~name:"lru matches reference model" ~count:300
    QCheck.(list (triple (int_bound 7) bool small_int))
    (fun ops ->
      let cap = 4 in
      let c = Lru.create ~capacity:cap in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (k, is_put, v) ->
          if is_put then begin
            Lru.put c k v;
            let m = (k, v) :: List.remove_assoc k !model in
            model := List.filteri (fun i _ -> i < cap) m
          end
          else begin
            let expect = List.assoc_opt k !model in
            if Lru.find c k <> expect then ok := false;
            match expect with
            | Some v -> model := (k, v) :: List.remove_assoc k !model
            | None -> ()
          end)
        ops;
      !ok && Lru.keys_by_recency c = List.map fst !model)

(* ------------------------------------------------------------------ *)
(* AST hash                                                            *)
(* ------------------------------------------------------------------ *)

let test_ast_hash_roundtrip_stable () =
  let rng = Rng.create 99 in
  let distinct = Hashtbl.create 16 in
  for _ = 1 to 25 do
    let m = Liger_fuzz.Gen.gen rng in
    let h = Ast_hash.of_meth m in
    let src = Liger_lang.Pretty.meth_to_string m in
    (match Liger_lang.Parser.methods_of_string src with
    | [ m' ] ->
        Alcotest.(check string) "hash stable under pretty/parse roundtrip" h
          (Ast_hash.of_meth m')
    | _ -> Alcotest.fail "roundtrip did not yield exactly one method");
    Hashtbl.replace distinct h ()
  done;
  Alcotest.(check bool) "hashes discriminate between methods" true
    (Hashtbl.length distinct > 1)

let test_ast_hash_seed_range () =
  List.iter
    (fun s ->
      let h = Ast_hash.hex (Ast_hash.of_string s) in
      let seed = Ast_hash.seed_of_hex h in
      Alcotest.(check bool) "seed in rng range" true (seed >= 0 && seed <= 0x3fffffff))
    [ ""; "a"; "hello world"; String.make 1000 'x' ]

(* ------------------------------------------------------------------ *)
(* Coalescer                                                           *)
(* ------------------------------------------------------------------ *)

let test_coalescer_burst_single_batch () =
  let co = Coalescer.create ~window_s:0.1 ~run:(Array.map (fun x -> x * 2)) () in
  let n = 8 in
  let results = Array.make n 0 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun i ->
            match Coalescer.submit co i with
            | Ok v -> results.(i) <- v
            | Error `Expired -> ())
          i)
  in
  List.iter Thread.join threads;
  Alcotest.(check (array int)) "per-lane results" (Array.init n (fun i -> i * 2)) results;
  Alcotest.(check int) "exactly one batched run for the burst" 1 (Coalescer.batches co);
  Alcotest.(check int) "every request got a lane" n (Coalescer.lanes co);
  Alcotest.(check int) "nothing expired" 0 (Coalescer.expired co);
  Coalescer.stop co

let test_coalescer_expired_at_submit () =
  let co = Coalescer.create ~window_s:0.01 ~run:(fun reqs -> reqs) () in
  (match Coalescer.submit co ~deadline:(Unix.gettimeofday () -. 1.0) 42 with
  | Error `Expired -> ()
  | Ok _ -> Alcotest.fail "already-expired submission was run");
  Alcotest.(check int) "counted as expired" 1 (Coalescer.expired co);
  Alcotest.(check int) "never occupied a lane" 0 (Coalescer.lanes co);
  Coalescer.stop co

(* deadline passes while the request waits in the coalescing window: it
   must be dropped at batch assembly, not given a lane *)
let test_coalescer_expired_at_assembly () =
  let co = Coalescer.create ~window_s:0.15 ~run:(fun reqs -> reqs) () in
  let r = ref (Ok 0) in
  let th =
    Thread.create
      (fun () -> r := Coalescer.submit co ~deadline:(Unix.gettimeofday () +. 0.03) 7)
      ()
  in
  Thread.join th;
  (match !r with
  | Error `Expired -> ()
  | Ok _ -> Alcotest.fail "lane allocated past the deadline");
  Alcotest.(check int) "no batch ran" 0 (Coalescer.batches co);
  Alcotest.(check int) "no lane occupied" 0 (Coalescer.lanes co);
  Alcotest.(check int) "counted as expired" 1 (Coalescer.expired co);
  Coalescer.stop co

let test_coalescer_wrong_arity_fails () =
  let co = Coalescer.create ~window_s:0.0 ~run:(fun _ -> [||]) () in
  (try
     ignore (Coalescer.submit co 1);
     Alcotest.fail "wrong-arity run did not raise in the waiter"
   with Failure msg -> check_contains "failure names the arity bug" msg "arity");
  Coalescer.stop co

let test_coalescer_submit_after_stop () =
  let co = Coalescer.create ~window_s:0.0 ~run:(fun reqs -> reqs) () in
  Coalescer.stop co;
  match Coalescer.submit co 1 with
  | Error `Expired -> ()
  | Ok _ -> Alcotest.fail "submit after stop was run"

(* ------------------------------------------------------------------ *)
(* Engine: coalesced batch ≡ sequential singletons, bitwise            *)
(* ------------------------------------------------------------------ *)

(* THE central claim of the serving design: a coalesced batch-of-N
   forward produces, lane for lane, bit-for-bit the vectors of N
   sequential batch-of-1 forwards.  Encodes are precomputed so the
   concurrent part is exactly the burst of submissions. *)
let test_engine_coalesced_bitwise_equal () =
  let model, vocab, sources = Lazy.force fixture in
  let sources = List.filteri (fun i _ -> i < 4) sources in
  let encoded =
    List.map
      (fun src ->
        let m = parse_first src in
        let h = Ast_hash.of_meth m in
        match Engine.encode_method ~vocab m h with
        | Ok ex -> ex
        | Error (_, msg) -> Alcotest.failf "fixture method rejected: %s" msg)
      sources
  in
  let expected =
    List.map (fun ex -> (Liger_model.embed_programs model [| ex |]).(0)) encoded
  in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.batch_window_s = 0.1 }
      ~model ~vocab ()
  in
  let n = List.length encoded in
  let got = Array.make n [||] in
  let threads =
    List.mapi
      (fun i ex ->
        Thread.create
          (fun () ->
            match Coalescer.submit engine.Engine.embed_co ex with
            | Ok v -> got.(i) <- v
            | Error `Expired -> ())
          ())
      encoded
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "burst ran as exactly one batched forward" 1
    (Coalescer.batches engine.Engine.embed_co);
  Alcotest.(check int) "lanes = burst size" n (Coalescer.lanes engine.Engine.embed_co);
  List.iteri
    (fun i expect ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d bitwise equal to its sequential singleton" i)
        true
        (got.(i) = expect))
    expected;
  Engine.stop engine

let test_engine_cache_hit () =
  let model, vocab, sources = Lazy.force fixture in
  OM.enable ();
  OM.reset_prefix "serve.";
  let engine = Engine.create ~config:fast_config ~model ~vocab () in
  let m = parse_first (List.hd sources) in
  let h = Ast_hash.of_meth m in
  (match Engine.embed_vector engine ~deadline:(far_deadline ()) m h with
  | Ok (_, cached) -> Alcotest.(check bool) "first request misses" false cached
  | Error (s, msg) -> Alcotest.failf "embed failed: %d %s" s msg);
  (match Engine.embed_vector engine ~deadline:(far_deadline ()) m h with
  | Ok (v2, cached) ->
      Alcotest.(check bool) "second request hits" true cached;
      let expect =
        match Engine.encode_method ~vocab m h with
        | Ok ex -> (Liger_model.embed_programs model [| ex |]).(0)
        | Error _ -> Alcotest.fail "encode failed"
      in
      Alcotest.(check bool) "cached vector identical" true (v2 = expect)
  | Error (s, msg) -> Alcotest.failf "cached embed failed: %d %s" s msg);
  Alcotest.(check int) "cache hit counted" 1 (Lru.hits engine.Engine.cache);
  Alcotest.(check int) "one lane total (hit skipped the model)" 1
    (Coalescer.lanes engine.Engine.embed_co);
  (* hits and misses are counters bumped per lookup, entries a gauge *)
  let snap = OM.snapshot () in
  Alcotest.(check int) "hit counter" 1 (OM.counter_value snap "serve.cache_hits");
  Alcotest.(check int) "miss counter" 1 (OM.counter_value snap "serve.cache_misses");
  Alcotest.(check (option (float 0.0))) "entries gauge" (Some 1.0)
    (OM.gauge_value snap "serve.cache_entries");
  let text = Liger_obs.Openmetrics.render snap in
  check_contains "hits exposed as a counter" text "# TYPE serve_cache_hits counter";
  check_contains "hit total" text "serve_cache_hits_total 1";
  check_contains "entries exposed as a gauge" text "# TYPE serve_cache_entries gauge";
  Engine.stop engine

let test_engine_cache_evictions_counted () =
  let model, vocab, sources = Lazy.force fixture in
  OM.enable ();
  OM.reset_prefix "serve.";
  let engine =
    Engine.create ~config:{ fast_config with Engine.cache_capacity = 1 } ~model ~vocab ()
  in
  List.iter
    (fun src ->
      let m = parse_first src in
      match Engine.embed_vector engine ~deadline:(far_deadline ()) m (Ast_hash.of_meth m) with
      | Ok _ -> ()
      | Error (s, msg) -> Alcotest.failf "embed failed: %d %s" s msg)
    [ List.nth sources 0; List.nth sources 1; List.nth sources 0 ];
  let snap = OM.snapshot () in
  Alcotest.(check int) "every lookup missed" 3 (OM.counter_value snap "serve.cache_misses");
  Alcotest.(check int) "no hit" 0 (OM.counter_value snap "serve.cache_hits");
  Alcotest.(check int) "one eviction per insert past capacity" 2
    (OM.counter_value snap "serve.cache_evictions");
  Alcotest.(check int) "counter agrees with the cache" (Lru.evictions engine.Engine.cache)
    (OM.counter_value snap "serve.cache_evictions");
  Engine.stop engine

let test_engine_deadline_408_no_lane () =
  let model, vocab, sources = Lazy.force fixture in
  let engine = Engine.create ~config:fast_config ~model ~vocab () in
  let req =
    { Http.meth = "POST"; path = "/embed"; query = []; headers = [];
      body = List.hd sources }
  in
  let status, _, body = Engine.handle engine ~deadline:(Unix.gettimeofday () -. 1.0) req in
  Alcotest.(check int) "expired deadline answers 408" 408 status;
  check_contains "error body" body "deadline";
  Alcotest.(check int) "cancelled work never occupied a lane" 0
    (Coalescer.lanes engine.Engine.embed_co);
  Engine.stop engine

(* ------------------------------------------------------------------ *)
(* Vocabulary: unseen sub-tokens                                       *)
(* ------------------------------------------------------------------ *)

let test_vocab_lookup_is_pure () =
  let v = Vocab.create () in
  let seen = Vocab.id v "seen" in
  let size = Vocab.size v in
  (* even UNFROZEN, lookup must neither raise nor grow the table *)
  Alcotest.(check int) "unseen -> unk while unfrozen" Vocab.unk_id (Vocab.lookup v "oov1");
  Alcotest.(check int) "lookup did not grow the vocabulary" size (Vocab.size v);
  Vocab.freeze v;
  Alcotest.(check int) "unseen -> unk while frozen" Vocab.unk_id (Vocab.lookup v "oov2");
  Alcotest.(check int) "seen token keeps its id" seen (Vocab.lookup v "seen")

(* regression: embedding a user-submitted method whose identifiers were
   never in the training set must answer (never raise) and must not
   mutate the model's frozen vocabulary *)
let test_engine_oov_method_embeds () =
  let model, vocab, _ = Lazy.force fixture in
  let engine = Engine.create ~config:fast_config ~model ~vocab () in
  let size0 = Vocab.size vocab in
  let rng = Rng.create 321 in
  let rec try_one attempts =
    if attempts = 0 then Alcotest.fail "no generated method embedded (all gave up)"
    else
      let src = Liger_lang.Pretty.meth_to_string (Liger_fuzz.Gen.gen rng) in
      let req = { Http.meth = "POST"; path = "/embed"; query = []; headers = []; body = src } in
      match Engine.handle engine ~deadline:(far_deadline ()) req with
      | 200, _, body -> check_contains "vector in response" body "\"vector\":["
      | 422, _, _ -> try_one (attempts - 1)  (* testgen gave up; try another *)
      | status, _, body -> Alcotest.failf "unexpected status %d: %s" status body
  in
  try_one 10;
  Alcotest.(check int) "vocabulary unchanged by serving" size0 (Vocab.size vocab);
  Engine.stop engine

(* ------------------------------------------------------------------ *)
(* Server end-to-end over loopback                                     *)
(* ------------------------------------------------------------------ *)

let test_server_backpressure_429 () =
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let released = ref false in
  let handler ~deadline:_ (_ : Http.request) =
    Mutex.lock gate_m;
    while not !released do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    (200, "text/plain", "done")
  in
  let server =
    Server.start ~config:{ Server.default_config with Server.max_inflight = 1 } ~handler ()
  in
  let port = Server.port server in
  let slow_status = ref 0 in
  let slow =
    Thread.create
      (fun () ->
        slow_status := (Client.request ~meth:"POST" ~body:"x" ~port "/embed").Client.status)
      ()
  in
  Testutil.require ~what:"first request to be admitted" (fun () ->
      Server.inflight server = 1);
  let r = Client.request ~meth:"POST" ~body:"y" ~port "/embed" in
  Alcotest.(check int) "request over the cap answers 429" 429 r.Client.status;
  Alcotest.(check (option string)) "429 carries Retry-After" (Some "1")
    (List.assoc_opt "retry-after" r.Client.headers);
  (* the probes bypass the gate: still alive at capacity *)
  Alcotest.(check int) "healthz alive at capacity" 200
    (Client.request ~port "/healthz").Client.status;
  Alcotest.(check int) "metrics alive at capacity" 200
    (Client.request ~port "/metrics").Client.status;
  Mutex.lock gate_m;
  released := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Thread.join slow;
  Alcotest.(check int) "held request completed after release" 200 !slow_status;
  Alcotest.(check int) "lane released" 0 (Server.inflight server);
  Server.stop server

let test_server_end_to_end () =
  let model, vocab, sources = Lazy.force fixture in
  OM.enable ();
  let engine = Engine.create ~config:fast_config ~model ~vocab () in
  let server = Server.start ~handler:(Engine.handle engine) () in
  let port = Server.port server in
  Alcotest.(check string) "healthz body" "ok\n" (Client.request ~port "/healthz").Client.body;
  let src = List.hd sources in
  let r = Client.request ~meth:"POST" ~body:src ~port "/embed" in
  Alcotest.(check int) "embed ok" 200 r.Client.status;
  check_contains "vector present" r.Client.body "\"vector\":[";
  check_contains "first request misses the cache" r.Client.body "\"cached\":false";
  let r2 = Client.request ~meth:"POST" ~body:src ~port "/embed" in
  check_contains "repeat hits the cache" r2.Client.body "\"cached\":true";
  Alcotest.(check int) "parse error answers 400" 400
    (Client.request ~meth:"POST" ~body:"int int int" ~port "/embed").Client.status;
  Alcotest.(check int) "unknown endpoint answers 404" 404
    (Client.request ~meth:"POST" ~body:"x" ~port "/nope").Client.status;
  Alcotest.(check int) "GET on a POST endpoint answers 405" 405
    (Client.request ~port "/embed").Client.status;
  Alcotest.(check int) "search without an index answers 503" 503
    (Client.request ~meth:"POST" ~body:src ~port "/search").Client.status;
  let sug = Client.request ~meth:"POST" ~body:src ~port "/suggest" in
  Alcotest.(check int) "suggest ok" 200 sug.Client.status;
  check_contains "suggest subtokens" sug.Client.body "\"subtokens\":[";
  (* a zero deadline on an uncached method: 408, stated by the client *)
  let d =
    Client.request ~meth:"POST"
      ~headers:[ ("X-Deadline-Ms", "0") ]
      ~body:(List.nth sources 1) ~port "/embed"
  in
  Alcotest.(check int) "expired deadline answers 408" 408 d.Client.status;
  (* the exposition must lint clean after real traffic *)
  let m = Client.request ~port "/metrics" in
  Alcotest.(check int) "metrics ok" 200 m.Client.status;
  (match Liger_obs.Openmetrics.lint m.Client.body with
  | Ok samples -> Alcotest.(check bool) "lint saw serve samples" true (samples > 0)
  | Error msg -> Alcotest.failf "/metrics does not lint: %s" msg);
  check_contains "serve counters exported" m.Client.body "serve_requests";
  Server.stop server;
  Engine.stop engine

let test_server_search_with_index () =
  let model, vocab, sources = Lazy.force fixture in
  let sources = List.filteri (fun i _ -> i < 3) sources in
  let items =
    List.map
      (fun src ->
        let m = parse_first src in
        let h = Ast_hash.of_meth m in
        match Engine.encode_method ~vocab m h with
        | Ok ex -> (m.Liger_lang.Ast.mname, h, ex)
        | Error (_, msg) -> Alcotest.failf "encode failed: %s" msg)
      sources
  in
  let dim = model.Liger_model.config.Liger_model.dim in
  let index, _report =
    Index.build ~dim ~embed_batch:(fun exs -> Liger_model.embed_programs model exs) items
  in
  let engine = Engine.create ~config:fast_config ~index ~model ~vocab () in
  let server = Server.start ~handler:(Engine.handle engine) () in
  let port = Server.port server in
  let src = List.hd sources in
  let own_name = (parse_first src).Liger_lang.Ast.mname in
  let r = Client.request ~meth:"POST" ~body:src ~port "/search?k=2" in
  Alcotest.(check int) "search ok" 200 r.Client.status;
  (* the query IS an indexed method: its own entry must lead with ~1.0 *)
  check_contains "nearest neighbor is itself" r.Client.body
    (Printf.sprintf "\"neighbors\":[{\"key\":\"%s\"" own_name);
  Server.stop server;
  Engine.stop engine

(* raw-socket exchange: write [payload] in one burst, read to EOF *)
let raw_exchange ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string payload in
      let rec send off =
        if off < Bytes.length b then send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let test_server_pipelined_connection () =
  let handler ~deadline:_ (req : Http.request) = (200, "text/plain", "echo " ^ req.Http.path) in
  let server = Server.start ~handler () in
  let port = Server.port server in
  let payload =
    "GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\nConnection: close\r\n\r\n"
  in
  let out = raw_exchange ~port payload in
  check_contains "first response" out "echo /first";
  check_contains "second response" out "echo /second";
  (* responses must come back in request order on the same connection *)
  let idx sub =
    let rec go i =
      if i + String.length sub > String.length out then -1
      else if String.sub out i (String.length sub) = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "responses in order" true (idx "echo /first" < idx "echo /second");
  Server.stop server

let test_server_rejects_on_wire () =
  let handler ~deadline:_ (_ : Http.request) = (200, "text/plain", "ok") in
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.limits = { Http.max_head_bytes = 1024; max_body_bytes = 32 };
        }
      ~handler ()
  in
  let port = Server.port server in
  let malformed = raw_exchange ~port "garbage\r\n\r\n" in
  check_contains "malformed line answers 400" malformed "HTTP/1.1 400";
  let big =
    raw_exchange ~port
      ("POST /embed HTTP/1.1\r\nContent-Length: 64\r\n\r\n" ^ String.make 64 'a')
  in
  check_contains "oversized body answers 413" big "HTTP/1.1 413";
  (* the server survived both rejects *)
  Alcotest.(check int) "still serving" 200 (Client.request ~port "/x").Client.status;
  Server.stop server

(* ------------------------------------------------------------------ *)
(* Determinism: jobs and reruns                                        *)
(* ------------------------------------------------------------------ *)

let embed_once ~jobs model vocab src =
  Parallel.set_jobs jobs;
  let engine = Engine.create ~config:fast_config ~model ~vocab () in
  let server = Server.start ~handler:(Engine.handle engine) () in
  let r = Client.request ~meth:"POST" ~body:src ~port:(Server.port server) "/embed" in
  Server.stop server;
  Engine.stop engine;
  (r.Client.status, r.Client.body)

let test_determinism_jobs_and_reruns () =
  let model, vocab, sources = Lazy.force fixture in
  let src = List.hd sources in
  let s1, b1 = embed_once ~jobs:1 model vocab src in
  let s4, b4 = embed_once ~jobs:4 model vocab src in
  let s1', b1' = embed_once ~jobs:1 model vocab src in
  Parallel.set_jobs 1;
  Alcotest.(check int) "jobs=1 ok" 200 s1;
  Alcotest.(check int) "jobs=4 ok" 200 s4;
  Alcotest.(check int) "rerun ok" 200 s1';
  Alcotest.(check string) "jobs=1 and jobs=4 responses byte-identical" b1 b4;
  Alcotest.(check string) "two runs byte-identical" b1 b1'

let index_entry key vector = { Index.key; hash = key; vector }

let test_index_basic_retrieval () =
  let idx =
    Index.create ~dim:3
      [ index_entry "x" [| 1.0; 0.0; 0.0 |]; index_entry "y" [| 0.0; 1.0; 0.0 |];
        index_entry "xy" [| 1.0; 1.0; 0.0 |] ]
  in
  let hits = Index.nearest idx ~k:2 [| 1.0; 0.1; 0.0 |] in
  Alcotest.(check (list string)) "ranking" [ "x"; "xy" ] (List.map snd hits);
  Alcotest.(check bool) "scores best first" true
    (match hits with (a, _) :: (b, _) :: _ -> a >= b | _ -> false)

let test_index_dim_mismatch () =
  let idx = Index.create ~dim:3 [ index_entry "x" [| 1.0; 0.0; 0.0 |] ] in
  Alcotest.(check bool) "nearest rejects a wrong-length query" true
    (try ignore (Index.nearest idx [| 1.0 |]); false with Invalid_argument _ -> true)

let test_index_build_deterministic_and_reuses () =
  let model, vocab, sources = Lazy.force fixture in
  let sources = List.filteri (fun i _ -> i < 3) sources in
  let items =
    List.map
      (fun src ->
        let m = parse_first src in
        let h = Ast_hash.of_meth m in
        match Engine.encode_method ~vocab m h with
        | Ok ex -> (m.Liger_lang.Ast.mname, h, ex)
        | Error (_, msg) -> Alcotest.failf "encode failed: %s" msg)
      sources
  in
  let dim = model.Liger_model.config.Liger_model.dim in
  let embed exs = Liger_model.embed_programs model exs in
  let idx1, rep1 = Index.build ~dim ~embed_batch:embed items in
  let idx2, _rep2 = Index.build ~dim ~embed_batch:embed items in
  Alcotest.(check int) "first build embeds everything" (List.length items) rep1.Index.embedded;
  let d1 = tmp_dir "idx1" and d2 = tmp_dir "idx2" in
  Index.save idx1 ~dir:d1;
  Index.save idx2 ~dir:d2;
  Alcotest.(check string) "two builds serialize byte-identically"
    (read_file (Filename.concat d1 "index.txt"))
    (read_file (Filename.concat d2 "index.txt"));
  (* content-addressed rebuild: every unchanged method reuses its vector
     and the model is never invoked *)
  let idx3, rep3 =
    Index.build ~dim ~previous:idx1
      ~embed_batch:(fun _ -> Alcotest.fail "re-embedded an unchanged method")
      items
  in
  Alcotest.(check int) "rebuild reuses everything" (List.length items) rep3.Index.reused;
  Alcotest.(check int) "rebuild embeds nothing" 0 rep3.Index.embedded;
  let d3 = tmp_dir "idx3" in
  Index.save idx3 ~dir:d3;
  Alcotest.(check string) "reusing rebuild serializes identically"
    (read_file (Filename.concat d1 "index.txt"))
    (read_file (Filename.concat d3 "index.txt"));
  (* persistence roundtrip preserves retrieval *)
  match Index.load ~dir:d1 with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok loaded -> (
      Alcotest.(check int) "dim preserved" dim (Index.dim loaded);
      Alcotest.(check int) "entries preserved" (List.length items) (Index.size loaded);
      let e = (Index.entries loaded).(0) in
      match Index.nearest loaded ~k:1 e.Index.vector with
      | [ (score, key) ] ->
          Alcotest.(check string) "nearest to an entry is itself" e.Index.key key;
          Alcotest.(check bool) "self-similarity ~1" true (abs_float (score -. 1.0) < 1e-9)
      | _ -> Alcotest.fail "nearest k=1 did not return one neighbor")

let () =
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "golden request" `Quick test_http_golden;
          Alcotest.test_case "query parsing" `Quick test_http_query;
          Alcotest.test_case "pipelined requests" `Quick test_http_pipelined;
          Alcotest.test_case "torn reads at every byte boundary" `Quick test_http_torn_reads;
          Alcotest.test_case "malformed inputs reject without crashing" `Quick
            test_http_malformed;
          Alcotest.test_case "oversized head and body reject early" `Quick
            test_http_oversized;
          Alcotest.test_case "responses are deterministic bytes" `Quick
            test_http_response_deterministic;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics, recency and counters" `Quick test_lru_basics;
          QCheck_alcotest.to_alcotest lru_model_prop;
        ] );
      ( "ast-hash",
        [
          Alcotest.test_case "stable under pretty/parse roundtrip" `Quick
            test_ast_hash_roundtrip_stable;
          Alcotest.test_case "derived rng seeds stay in range" `Quick
            test_ast_hash_seed_range;
        ] );
      ( "coalescer",
        [
          Alcotest.test_case "burst coalesces into one batch" `Quick
            test_coalescer_burst_single_batch;
          Alcotest.test_case "expired at submit: no lane" `Quick
            test_coalescer_expired_at_submit;
          Alcotest.test_case "expired in the window: dropped at assembly" `Quick
            test_coalescer_expired_at_assembly;
          Alcotest.test_case "wrong run arity fails the waiters" `Quick
            test_coalescer_wrong_arity_fails;
          Alcotest.test_case "submit after stop expires" `Quick
            test_coalescer_submit_after_stop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "coalesced batch bitwise equals sequential" `Quick
            test_engine_coalesced_bitwise_equal;
          Alcotest.test_case "cache hit skips the model" `Quick test_engine_cache_hit;
          Alcotest.test_case "cache evictions counted per event" `Quick
            test_engine_cache_evictions_counted;
          Alcotest.test_case "expired deadline answers 408, lane reclaimed" `Quick
            test_engine_deadline_408_no_lane;
          Alcotest.test_case "oov method embeds without mutating vocab" `Quick
            test_engine_oov_method_embeds;
        ] );
      ( "vocab",
        [ Alcotest.test_case "lookup is pure (unseen -> unk)" `Quick test_vocab_lookup_is_pure ] );
      ( "server",
        [
          Alcotest.test_case "backpressure: 429 over the cap, probes exempt" `Quick
            test_server_backpressure_429;
          Alcotest.test_case "end-to-end endpoints over loopback" `Quick
            test_server_end_to_end;
          Alcotest.test_case "search against a built index" `Quick
            test_server_search_with_index;
          Alcotest.test_case "pipelined connection answers in order" `Quick
            test_server_pipelined_connection;
          Alcotest.test_case "wire-level rejects: 400 and 413, no crash" `Quick
            test_server_rejects_on_wire;
        ] );
      ( "index",
        [
          Alcotest.test_case "basic retrieval" `Quick test_index_basic_retrieval;
          Alcotest.test_case "dim mismatch" `Quick test_index_dim_mismatch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "responses byte-identical across jobs and reruns" `Quick
            test_determinism_jobs_and_reruns;
          Alcotest.test_case "index builds byte-identical and content-addressed" `Quick
            test_index_build_deterministic_and_reuses;
        ] );
    ]
