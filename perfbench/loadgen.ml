(** The load generator: keep-alive HTTP/1.1 connections to 127.0.0.1,
    driven by the calling thread through [Unix.select].

    - {!run_open}: an open loop.  Each request has a due time and is sent
      when it falls due, whatever the server is doing, on the connection
      with the fewest unanswered requests (pipelining behind them if every
      connection is busy).  Latency is measured from the due time, so a
      stall is charged to every request it delays, and {!lag} reports how
      late the generator itself sent.
    - {!run_closed}: a closed loop.  Each connection sends its next
      request as soon as the previous answer arrives.

    One thread and at most as many connections as the caller asks for;
    every connection stays open for the whole run (no per-request TCP
    connect). *)

type request = {
  due : float;  (* seconds after the start of the run (open loop) *)
  path : string;
  body : string;
}

type outcome = {
  conn : int;  (* the connection it went out on; -1 if never sent *)
  sent : float;  (* seconds after the start; [nan] if never sent *)
  done_ : float;  (* seconds after the start; [nan] if never answered *)
  status : int;  (* 0 when the connection failed or the run ended first *)
  resp_body : string;
}

let unsent = { conn = -1; sent = Float.nan; done_ = Float.nan; status = 0; resp_body = "" }

(* ---------------- wire format ---------------- *)

let encode_request ~path ~body =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" path
    (String.length body) body

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go from

(** Parse one response from the front of [s]: [Some (status, body,
    bytes consumed)], or [None] when [s] holds no complete response yet.
    Responses without a Content-Length are malformed for a keep-alive
    connection and raise [Failure]. *)
let parse_response s =
  match find_sub s "\r\n\r\n" 0 with
  | None -> None
  | Some head_end -> (
      let head = String.sub s 0 head_end in
      let lines = String.split_on_char '\n' head |> List.map String.trim in
      let status =
        match lines with
        | first :: _ -> (
            match String.split_on_char ' ' first with
            | _ :: code :: _ -> (
                match int_of_string_opt code with
                | Some c -> c
                | None -> failwith ("bad status line: " ^ first))
            | _ -> failwith ("bad status line: " ^ first))
        | [] -> failwith "empty response head"
      in
      let length =
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
                int_of_string_opt
                  (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          lines
      in
      match length with
      | None -> failwith "response without Content-Length"
      | Some len ->
          let start = head_end + 4 in
          if String.length s < start + len then None
          else Some (status, String.sub s start len, start + len))

(* ---------------- open-loop accounting ---------------- *)

(** Requests sent more than this long after their due time count as late. *)
let late_threshold_s = 0.001

(** Latency of an answered request, measured from its due time. *)
let latency_from_due (r : request) o = o.done_ -. r.due

(** How late the generator sent a request. *)
let lag (r : request) o = o.sent -. r.due

(** [(p99 lag in ms, share of sent requests more than
    {!late_threshold_s} late)] over the requests that were sent. *)
let lag_summary (reqs : request array) (outs : outcome array) =
  let lags =
    Array.to_list (Array.mapi (fun i o -> (reqs.(i), o)) outs)
    |> List.filter (fun (_, o) -> not (Float.is_nan o.sent))
    |> List.map (fun (r, o) -> lag r o)
    |> Array.of_list
  in
  if Array.length lags = 0 then (0.0, 0.0)
  else
    let late = Array.fold_left (fun n l -> if l > late_threshold_s then n + 1 else n) 0 lags in
    ( 1000.0 *. Stats.quantile (Stats.sorted lags) 0.99,
      float_of_int late /. float_of_int (Array.length lags) )

(** Closed-loop rate at the median request cycle: on each connection a
    request goes out as soon as the previous answer is in, so the gap
    between consecutive sends on one connection is one full request
    cycle; [conns] connections over the median cycle give requests per
    second.  A burst of interference from outside the program lengthens a
    few cycles, not the median. *)
let median_cycle_rate ~conns (outs : outcome list) =
  let cycles =
    List.concat_map
      (fun c ->
        let sends =
          List.filter_map (fun o -> if o.conn = c then Some o.sent else None) outs |> List.sort compare
        in
        let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
        gaps sends)
      (List.init conns Fun.id)
  in
  if cycles = [] then 0.0 else float_of_int conns /. Stats.median (Array.of_list cycles)

(* ---------------- connections ---------------- *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  pending : int Queue.t;  (* request ids awaiting an answer, in send order *)
  mutable alive : bool;
}

let connect port id =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { id; fd; buf = Buffer.create 4096; pending = Queue.create (); alive = true }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let chunk = Bytes.create 65536

(* Read what [c] has and hand every complete response to [complete]; a
   closed or broken connection is marked dead for {!check_dead}. *)
let read_conn c ~now ~complete =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error _ -> c.alive <- false
  | 0 -> c.alive <- false
  | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let rec go () =
        match parse_response (Buffer.contents c.buf) with
        | None -> ()
        | Some (status, body, used) ->
            let rest = Buffer.sub c.buf used (Buffer.length c.buf - used) in
            Buffer.clear c.buf;
            Buffer.add_string c.buf rest;
            complete (Queue.pop c.pending) status body (now ());
            go ()
      in
      go ()

let check_dead c ~fail =
  if not c.alive then begin
    Queue.iter fail c.pending;
    Queue.clear c.pending
  end

let readable conns ~timeout =
  let fds =
    Array.to_list conns
    |> List.filter (fun c -> c.alive && not (Queue.is_empty c.pending))
    |> List.map (fun c -> c.fd)
  in
  if fds = [] then begin
    if timeout > 0.0 then Unix.sleepf timeout;
    []
  end
  else
    match Unix.select fds [] [] timeout with
    | r, _, _ -> List.filter (fun c -> List.mem c.fd r) (Array.to_list conns)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(** Send [reqs] (sorted by [due]) over [conns] keep-alive connections on
    their schedule, then wait at most [drain_s] past the last due time
    for the answers.  Returns one outcome per request, in order. *)
let run_open ~port ~conns ~drain_s (reqs : request array) =
  let n = Array.length reqs in
  let outs = Array.make n unsent in
  let cs = Array.init conns (connect port) in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let deadline = (if n = 0 then 0.0 else reqs.(n - 1).due) +. drain_s in
  let outstanding = ref 0 in
  let complete id status body t =
    outs.(id) <- { (outs.(id)) with done_ = t; status; resp_body = body };
    decr outstanding
  in
  let fail _ = decr outstanding in
  let next = ref 0 in
  Fun.protect
    ~finally:(fun () -> Array.iter close_conn cs)
    (fun () ->
      while (!next < n || !outstanding > 0) && now () < deadline do
        let t = now () in
        while !next < n && reqs.(!next).due <= t do
          let live = List.filter (fun c -> c.alive) (Array.to_list cs) in
          (match live with
          | [] -> ()
          | c0 :: rest ->
              let c =
                List.fold_left
                  (fun best c ->
                    if Queue.length c.pending < Queue.length best.pending then c else best)
                  c0 rest
              in
              let r = reqs.(!next) in
              (try
                 write_all c.fd (encode_request ~path:r.path ~body:r.body);
                 outs.(!next) <- { unsent with conn = c.id; sent = now () };
                 Queue.push !next c.pending;
                 incr outstanding
               with Unix.Unix_error _ ->
                 c.alive <- false;
                 check_dead c ~fail));
          incr next
        done;
        let t = now () in
        let timeout =
          if !next < n then Float.max 0.0 (reqs.(!next).due -. t)
          else Float.max 0.0 (deadline -. t)
        in
        List.iter
          (fun c ->
            read_conn c ~now ~complete;
            check_dead c ~fail)
          (readable cs ~timeout)
      done;
      outs)

(** Closed loop: [conns] connections each keep one request in flight,
    the [i]-th request sent being [gen i] = [(path, body)], until
    [seconds] have passed; answers still in flight then are awaited for
    at most [drain_s].  Returns [(i, outcome)] for every request sent. *)
let run_closed ~port ~conns ~seconds ~drain_s gen =
  let cs = Array.init conns (connect port) in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let outs = Hashtbl.create 4096 in
  let sent = ref 0 and outstanding = ref 0 in
  let send c =
    let path, body = gen !sent in
    match write_all c.fd (encode_request ~path ~body) with
    | () ->
        Hashtbl.replace outs !sent { unsent with conn = c.id; sent = now () };
        Queue.push !sent c.pending;
        incr sent;
        incr outstanding
    | exception Unix.Unix_error _ -> c.alive <- false
  in
  let complete id status body t =
    Hashtbl.replace outs id { (Hashtbl.find outs id) with done_ = t; status; resp_body = body };
    decr outstanding
  in
  let fail _ = decr outstanding in
  Fun.protect
    ~finally:(fun () -> Array.iter close_conn cs)
    (fun () ->
      Array.iter send cs;
      while !outstanding > 0 && now () < seconds +. drain_s do
        List.iter
          (fun c ->
            read_conn c ~now ~complete;
            check_dead c ~fail;
            if c.alive && Queue.is_empty c.pending && now () < seconds then send c)
          (readable cs ~timeout:(Float.max 0.0 (seconds +. drain_s -. now ())))
      done;
      Hashtbl.fold (fun i o acc -> (i, o) :: acc) outs []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
