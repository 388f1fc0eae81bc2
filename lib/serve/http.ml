(** A minimal, dependency-free HTTP/1.1 layer for {!Server}.

    The parser is {e incremental}: a connection accumulates bytes into a
    buffer and repeatedly offers the whole prefix; the parser either
    consumes one complete request (returning how many bytes it used, so
    pipelined requests parse one at a time), asks for more input, or
    rejects the prefix with the status code the connection should answer
    before closing.  It never throws on malformed input and never reads
    past the limits — oversized heads and bodies are rejected with 431/413
    {e before} the connection buffers them whole.

    The response writer emits a fixed, minimal header set in a fixed
    order and no [Date] header, so responses to equal requests are
    byte-identical across runs and job counts (the serving arm of the
    determinism contract; see DESIGN.md). *)

type request = {
  meth : string;                      (* verb, uppercased by the client *)
  path : string;                      (* request target without the query *)
  query : (string * string) list;     (* decoded query pairs, in order *)
  headers : (string * string) list;   (* names lowercased, in order *)
  body : string;
}

type limits = {
  max_head_bytes : int;  (* request line + headers, incl. the blank line *)
  max_body_bytes : int;
}

let default_limits = { max_head_bytes = 16 * 1024; max_body_bytes = 1024 * 1024 }

type parse_result =
  | Complete of request * int  (* parsed request, bytes consumed *)
  | Incomplete                 (* need more input *)
  | Reject of int * string     (* answer with this status, then close *)

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

let query_param req name = List.assoc_opt name req.query

(* %XX and '+' decoding for query strings; bad escapes pass through
   verbatim rather than failing the request *)
let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | Some a, Some b ->
            Buffer.add_char buf (Char.chr ((a * 16) + b));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun pair ->
           if pair = "" then None
           else
             match String.index_opt pair '=' with
             | None -> Some (percent_decode pair, "")
             | Some i ->
                 Some
                   ( percent_decode (String.sub pair 0 i),
                     percent_decode (String.sub pair (i + 1) (String.length pair - i - 1)) ))

(* index of the "\r\n\r\n" head terminator within [s.[0..limit)] *)
let find_head_end s limit =
  let n = min (String.length s) limit in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      Some i
    else go (i + 1)
  in
  go 0

let split_crlf_lines s =
  (* [s] contains no "\r\n\r\n"; tolerate bare "\n" separators *)
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        Error (505, Printf.sprintf "unsupported protocol version %S" version)
      else if meth = "" || String.exists (fun c -> c < '!' || c > '~') meth then
        Error (400, "malformed method")
      else if String.length target = 0 || target.[0] <> '/' then
        Error (400, "request target must be absolute path")
      else
        let path, query =
          match String.index_opt target '?' with
          | None -> (target, [])
          | Some i ->
              ( String.sub target 0 i,
                parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
        in
        Ok (meth, path, query)
  | _ -> Error (400, "malformed request line")

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (400, Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if String.exists (fun c -> c = ' ' || c = '\t') name then
        Error (400, "whitespace in header name")
      else Ok (name, value)

(** Parse one request from the front of [input].  See {!parse_result}. *)
let parse ?(limits = default_limits) (input : string) : parse_result =
  match find_head_end input limits.max_head_bytes with
  | None ->
      if String.length input >= limits.max_head_bytes then
        Reject (431, "request head exceeds limit")
      else Incomplete
  | Some head_end -> (
      let head = String.sub input 0 head_end in
      match split_crlf_lines head with
      | [] -> Reject (400, "empty request head")
      | request_line :: header_lines -> (
          match parse_request_line request_line with
          | Error (status, msg) -> Reject (status, msg)
          | Ok (meth, path, query) -> (
              let rec headers acc = function
                | [] -> Ok (List.rev acc)
                | "" :: rest -> headers acc rest
                | line :: rest -> (
                    match parse_header_line line with
                    | Error e -> Error e
                    | Ok kv -> headers (kv :: acc) rest)
              in
              match headers [] header_lines with
              | Error (status, msg) -> Reject (status, msg)
              | Ok headers -> (
                  let content_length =
                    match List.assoc_opt "content-length" headers with
                    | None -> Ok 0
                    | Some s -> (
                        match int_of_string_opt (String.trim s) with
                        | Some n when n >= 0 -> Ok n
                        | _ -> Error (400, Printf.sprintf "bad content-length %S" s))
                  in
                  match content_length with
                  | Error (status, msg) -> Reject (status, msg)
                  | Ok len ->
                      if len > limits.max_body_bytes then
                        Reject (413, "request body exceeds limit")
                      else
                        let body_start = head_end + 4 in
                        if String.length input < body_start + len then Incomplete
                        else
                          let body = String.sub input body_start len in
                          Complete ({ meth; path; query; headers; body }, body_start + len)))))

(* ---------------- responses ---------------- *)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

(** Serialize a response.  Headers come out in a fixed order (status line,
    Content-Type, any extras, Content-Length) with no Date header, so the
    bytes are a pure function of the arguments. *)
let response ?(content_type = "application/json") ?(extra_headers = []) ~status body =
  let buf = Buffer.create (String.length body + 128) in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  Buffer.add_string buf (Printf.sprintf "Content-Type: %s\r\n" content_type);
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v)) extra_headers;
  Buffer.add_string buf (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
  Buffer.add_string buf body;
  Buffer.contents buf

(** The uniform error body: [{"error": "..."}]. *)
let error_body msg = Printf.sprintf "{\"error\":\"%s\"}" (Liger_obs.Json.escape msg)
