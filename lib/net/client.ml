(** Synchronous client for the xnfdb wire protocol — the library the
    benchmarks, tests, and the CLI's [--connect] mode use to talk to a
    daemon.  One request in flight per connection; responses are
    reassembled from their streamed frames. *)

open Relcore
module H = Xnf.Hetstream

exception
  Server_error of {
    kind : string;
    msg : string;
  }

let () =
  Printexc.register_printer (function
    | Server_error { kind; msg } ->
      Some (Printf.sprintf "Server_error(%s: %s)" kind msg)
    | _ -> None)

type t = {
  fd : Unix.file_descr;
  mutable session_id : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable closed : bool;
}

let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out
let frames_in t = t.frames_in
let frames_out t = t.frames_out
let session_id t = t.session_id

let send t (req : Wire.request) =
  let f = Wire.encode_request req in
  Wire.send_frame t.fd f;
  t.bytes_out <- t.bytes_out + String.length f;
  t.frames_out <- t.frames_out + 1

let recv_payload t : string =
  let payload = Wire.recv_payload t.fd in
  t.bytes_in <- t.bytes_in + String.length payload + 4;
  t.frames_in <- t.frames_in + 1;
  payload

let recv t : Wire.response = Wire.decode_response (recv_payload t)

let raise_on_error : Wire.response -> Wire.response = function
  | Wire.Error { kind; msg } -> raise (Server_error { kind; msg })
  | r -> r

(** Receive, raising {!Server_error} if the server answered with an
    error frame. *)
let recv_ok t : Wire.response = raise_on_error (recv t)

let protocol_error what got =
  raise
    (Server_error
       { kind = "client"; msg = Printf.sprintf "expected %s, got %s" what got })

let tag_of = function
  | Wire.Hello_ok _ -> "hello_ok"
  | Wire.Row_header _ -> "row_header"
  | Wire.Row_batch _ -> "row_batch"
  | Wire.Row_end _ -> "row_end"
  | Wire.Stream_header _ -> "stream_header"
  | Wire.Stream_chunk _ -> "stream_chunk"
  | Wire.Stream_end _ -> "stream_end"
  | Wire.Affected _ -> "affected"
  | Wire.Done _ -> "done"
  | Wire.Error _ -> "error"
  | Wire.Stats_reply _ -> "stats_reply"
  | Wire.Bye_ok -> "bye_ok"

let connect ?(client_name = "xnfdb-client") (addr : Unix.sockaddr) : t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain =
    match addr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> (
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | _ -> ());
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      fd;
      session_id = 0;
      bytes_in = 0;
      bytes_out = 0;
      frames_in = 0;
      frames_out = 0;
      closed = false;
    }
  in
  send t (Wire.Hello { client = client_name; version = Wire.version });
  (match recv_ok t with
  | Wire.Hello_ok { session_id; _ } -> t.session_id <- session_id
  | r -> protocol_error "hello_ok" (tag_of r));
  t

(** Collect a streamed row response (header / batches / end). *)
let collect_rows t : Schema.t * Tuple.t list =
  let schema =
    match recv_ok t with
    | Wire.Row_header s -> s
    | r -> protocol_error "row_header" (tag_of r)
  in
  let rec go acc =
    match recv_ok t with
    | Wire.Row_batch rows -> go (List.rev_append rows acc)
    | Wire.Row_end { rows } ->
      let all = List.rev acc in
      if List.length all <> rows then
        protocol_error
          (Printf.sprintf "%d rows" rows)
          (Printf.sprintf "%d rows" (List.length all));
      all
    | r -> protocol_error "row_batch/row_end" (tag_of r)
  in
  (schema, go [])

let query t (sql : string) : Schema.t * Tuple.t list =
  send t (Wire.Query { sql; analyze = false });
  collect_rows t

let query_rows t sql = snd (query t sql)

(** EXPLAIN ANALYZE over the wire: the server executes the query under
    an instrumented context and ships back the per-operator report. *)
let query_analyze t (sql : string) : string =
  send t (Wire.Query { sql; analyze = true });
  match recv_ok t with
  | Wire.Done report -> report
  | r -> protocol_error "done" (tag_of r)

(** Extract a CO stream ([text] is XNF query text or a view name),
    reassembled from its chunk frames.  [chunk] is the ship quantum in
    stream items: unset = server default, [1] = tuple-at-a-time. *)
let extract ?(chunk = 0) t (text : string) : H.t =
  send t (Wire.Extract { text; chunk; analyze = false });
  let header =
    match recv_ok t with
    | Wire.Stream_header h -> h
    | r -> protocol_error "stream_header" (tag_of r)
  in
  (* chunk items decode straight onto one reversed accumulator *)
  let rec go acc n =
    let payload = recv_payload t in
    match Wire.decode_chunk_rev payload acc with
    | Some (acc, k) -> go acc (n + k)
    | None -> (
      match raise_on_error (Wire.decode_response payload) with
      | Wire.Stream_end { items } ->
        if n <> items then
          protocol_error
            (Printf.sprintf "%d items" items)
            (Printf.sprintf "%d items" n);
        List.rev acc
      | r -> protocol_error "stream_chunk/stream_end" (tag_of r))
  in
  { H.header; items = go [] 0 }

(** Instrumented extraction over the wire: the server runs the XNF
    query (or view) under an instrumented context and ships back the
    per-operator report instead of a stream. *)
let extract_analyze t (text : string) : string =
  send t (Wire.Extract { text; chunk = 0; analyze = true });
  match recv_ok t with
  | Wire.Done report -> report
  | r -> protocol_error "done" (tag_of r)

type exec_result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Done of string

(** Execute one statement (DML / DDL / BEGIN / COMMIT / ROLLBACK; a
    SELECT also works and comes back as [Rows]). *)
let exec t (sql : string) : exec_result =
  send t (Wire.Stmt { sql });
  match recv_ok t with
  | Wire.Affected n -> Affected n
  | Wire.Done msg -> Done msg
  | Wire.Row_header schema ->
    let rec go acc =
      match recv_ok t with
      | Wire.Row_batch rows -> go (List.rev_append rows acc)
      | Wire.Row_end _ -> List.rev acc
      | r -> protocol_error "row_batch/row_end" (tag_of r)
    in
    Rows (schema, go [])
  | r -> protocol_error "affected/done/rows" (tag_of r)

let stats t : string =
  send t Wire.Stats;
  match recv_ok t with
  | Wire.Stats_reply text -> text
  | r -> protocol_error "stats_reply" (tag_of r)

(** Polite goodbye: Bye / Bye_ok, then close the socket. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    (try
       send t Wire.Bye;
       match recv t with
       | Wire.Bye_ok -> ()
       | _ -> ()
     with Wire.Connection_lost | Wire.Malformed _ | Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(** Slam the socket shut with no goodbye — the crash-of-one-client
    simulation the isolation tests use. *)
let abort t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(** Send a raw pre-framed byte string (malformed-frame tests). *)
let send_raw t (bytes : string) =
  Wire.send_frame t.fd bytes;
  t.bytes_out <- t.bytes_out + String.length bytes

(** Receive one raw response (malformed-frame tests). *)
let recv_any t : Wire.response = recv t
