(* Tests of the benchmark's own accounting: the percentile rule, the
   open-loop latency and lag bookkeeping, response framing, and the
   differencing of two /metrics scrapes. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_tail_level () =
  (* ten samples beyond the percentile, never fewer *)
  Alcotest.(check (option (float 0.0))) "19 samples: no tail" None (Stats.tail_level 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 0.5) (Stats.tail_level 20);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 0.9) (Stats.tail_level 100);
  Alcotest.(check (option (float 0.0))) "99 samples: p75" (Some 0.75) (Stats.tail_level 99);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 0.99) (Stats.tail_level 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 0.999) (Stats.tail_level 10000);
  List.iter
    (fun n ->
      match Stats.tail_level n with
      | Some q -> Alcotest.(check bool) "ten beyond" true (Stats.beyond n q >= 10)
      | None -> ())
    (List.init 3000 (fun i -> i + 1))

let test_summarize () =
  let s = Stats.summarize (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check int) "count" 100 s.Stats.n;
  Alcotest.check feq "median (nearest rank)" 50.0 s.Stats.p50;
  Alcotest.check feq "tail level" 0.9 s.Stats.tail_q;
  Alcotest.check feq "p90 value" 90.0 s.Stats.tail;
  let few = Stats.summarize [| 3.0; 1.0; 2.0 |] in
  Alcotest.check feq "few: median" 2.0 few.Stats.p50;
  Alcotest.check feq "few: no tail" 0.0 few.Stats.tail;
  Alcotest.(check int) "empty" 0 (Stats.summarize [||]).Stats.n

let test_open_loop_accounting () =
  let reqs =
    Array.map (fun due -> { Loadgen.due; path = "/embed"; body = "" }) [| 0.0; 0.010; 0.020; 0.030 |]
  in
  let o sent done_ = { Loadgen.conn = 0; sent; done_; status = 200; resp_body = "" } in
  (* the second request was sent 5 ms late and answered at 30 ms: its
     latency counts from its due time, 10 ms, not from its send *)
  let outs = [| o 0.0 0.002; o 0.015 0.030; o 0.0205 0.031; o Float.nan Float.nan |] in
  Alcotest.check feq "latency from due" 0.020 (Loadgen.latency_from_due reqs.(1) outs.(1));
  Alcotest.check (Alcotest.float 1e-9) "lag" 0.005 (Loadgen.lag reqs.(1) outs.(1));
  let p99, late = Loadgen.lag_summary reqs outs in
  Alcotest.check (Alcotest.float 1e-9) "lag p99 in ms" 5.0 p99;
  (* 0.5 ms late is on time; the unsent request is not counted *)
  Alcotest.check feq "late share" (1.0 /. 3.0) late

let test_cycle_rate () =
  let o conn sent = { Loadgen.conn; sent; done_ = sent; status = 200; resp_body = "" } in
  (* connection 0 cycles every 2 ms with one 50 ms stall; connection 1
     every 2 ms: the stall does not move the rate *)
  let outs =
    List.map (o 0) [ 0.0; 0.002; 0.004; 0.054; 0.056; 0.058 ]
    @ List.map (o 1) [ 0.001; 0.003; 0.005; 0.007; 0.009 ]
  in
  Alcotest.check (Alcotest.float 1e-6) "two connections over a 2 ms cycle" 1000.0
    (Loadgen.median_cycle_rate ~conns:2 outs);
  Alcotest.check feq "no cycles" 0.0 (Loadgen.median_cycle_rate ~conns:2 [ o 0 0.0 ])

let test_parse_response () =
  let one = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}" in
  (match Loadgen.parse_response (one ^ "HTTP/1.1 429 T") with
  | Some (status, body, used) ->
      Alcotest.(check int) "status" 200 status;
      Alcotest.(check string) "body" "{}" body;
      Alcotest.(check int) "consumed" (String.length one) used
  | None -> Alcotest.fail "complete response not parsed");
  Alcotest.(check bool) "partial body" true
    (Loadgen.parse_response (String.sub one 0 (String.length one - 1)) = None);
  Alcotest.(check bool) "partial head" true (Loadgen.parse_response "HTTP/1.1 200 OK\r\n" = None);
  Alcotest.check_raises "no length" (Failure "response without Content-Length") (fun () ->
      ignore (Loadgen.parse_response "HTTP/1.1 200 OK\r\n\r\n"))

let before =
  "# TYPE serve_cache_hits gauge\nserve_cache_hits 10\nserve_cache_misses 4\n\
   serve_requests_total{endpoint=\"/embed\",status=\"200\"} 7\n\
   serve_requests_total{endpoint=\"/search\",status=\"200\"} 2\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"0.001\"} 1\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"0.01\"} 5\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"+Inf\"} 7\n# EOF\n"

let after =
  "serve_cache_hits 25\nserve_cache_misses 6\n\
   serve_requests_total{endpoint=\"/embed\",status=\"200\"} 17\n\
   serve_requests_total{endpoint=\"/search\",status=\"200\"} 3\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"0.001\"} 2\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"0.01\"} 14\n\
   serve_latency_seconds_bucket{endpoint=\"/embed\",le=\"+Inf\"} 17\n# EOF\n"

let test_metrics_delta () =
  let before = Scrape.parse before and after = Scrape.parse after in
  Alcotest.check feq "gauge of a running total" 15.0 (Scrape.delta ~before ~after "serve_cache_hits");
  Alcotest.check feq "misses" 2.0 (Scrape.delta ~before ~after "serve_cache_misses");
  Alcotest.check feq "counter summed over labels" 11.0 (Scrape.delta ~before ~after "serve_requests");
  Alcotest.check feq "counter restricted to labels" 10.0
    (Scrape.delta ~labels:[ ("endpoint", "/embed") ] ~before ~after "serve_requests");
  (* the same count once it is exposed as a counter *)
  let as_counter = Scrape.parse "serve_cache_hits_total 40\n" in
  Alcotest.check feq "counter form" 15.0
    (Scrape.delta ~before:(Scrape.parse "serve_cache_hits_total 25\n") ~after:as_counter "serve_cache_hits");
  (* 10 new observations: 1 under 1 ms, 8 more under 10 ms, 1 above *)
  Alcotest.(check (option (float 0.0))) "histogram p50 bucket" (Some 0.01)
    (Scrape.hist_quantile ~labels:[ ("endpoint", "/embed") ] ~before ~after "serve_latency_seconds" 0.5);
  Alcotest.(check (option (float 0.0))) "histogram p10 bucket" (Some 0.001)
    (Scrape.hist_quantile ~labels:[ ("endpoint", "/embed") ] ~before ~after "serve_latency_seconds" 0.1);
  Alcotest.(check (option (float 0.0))) "no observations" None
    (Scrape.hist_quantile ~before ~after:before "serve_latency_seconds" 0.5)

let test_result_line () =
  let line =
    Result_json.line ~correct:true ~attempted:3 ~failed:0
      [ { Result_json.name = "setup_s"; value = 0.1; unit_ = "s" } ]
  in
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": \
     0.10000000000000001, \"unit\": \"s\"}}}"
    line

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_level;
          Alcotest.test_case "summaries" `Quick test_summarize;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open-loop latency and lag" `Quick test_open_loop_accounting;
          Alcotest.test_case "closed-loop cycle rate" `Quick test_cycle_rate;
          Alcotest.test_case "response framing" `Quick test_parse_response;
        ] );
      ("scrape", [ Alcotest.test_case "metrics differencing" `Quick test_metrics_delta ]);
      ("result", [ Alcotest.test_case "result line" `Quick test_result_line ]);
    ]
