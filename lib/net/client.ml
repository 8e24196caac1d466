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

(* The delta check-out's base: the items of this connection's last
   extraction that ended in [Stream_end], under its (text, chunk) key.
   The server keeps the same list for the session. *)
type base = {
  key : string * int;
  items : H.item list;
  len : int;
}

type t = {
  fd : Unix.file_descr;
  mutable base : base option;
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
  | Wire.Stream_same _ -> "stream_same"
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
      base = None;
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

(* A reply's items as they arrive, newest first: decoded chunk items
   (reversed; consecutive chunks share one list), or a same run of [n]
   base items starting at [run] that may reach the base's end. *)
type segment =
  | Decoded of H.item list
  | Same of { run : H.item list; n : int; to_end : bool }

(* the first [n] items of [src], in order, ahead of [rest] *)
let[@tail_mod_cons] rec prepend n src rest =
  if n = 0 then rest
  else match src with x :: src -> x :: prepend (n - 1) src rest | [] -> rest

let rec drop k items =
  match items with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> items

(* The stream's item list, built back to front: a same run that reaches
   the base's end with nothing after it is the base's own tail, shared *)
let assemble segments =
  List.fold_left
    (fun acc -> function
      | Decoded rev -> List.rev_append rev acc
      | Same { run; n; to_end } -> (
        match acc with [] when to_end -> run | _ -> prepend n run acc))
    [] segments

(** Extract a CO stream ([text] is XNF query text or a view name),
    reassembled from its chunk frames.  [chunk] is the ship quantum in
    stream items: unset = server default, [1] = tuple-at-a-time.  With a
    base for the same key the server may send [Stream_same] runs, which
    are rebuilt from the base by position. *)
let extract ?(chunk = 0) t (text : string) : H.t =
  let key = (text, chunk) in
  let base =
    match t.base with
    | Some b when b.key = key -> Some b
    | _ -> None
  in
  (* dropped until this reply completes: any exception mid-stream
     leaves the connection without a base *)
  t.base <- None;
  send t (Wire.Extract { text; chunk; analyze = false; base = Option.is_some base });
  let header =
    match recv_ok t with
    | Wire.Stream_header h -> h
    | r -> protocol_error "stream_header" (tag_of r)
  in
  let base_items, base_len =
    match base with Some b -> (b.items, b.len) | None -> ([], 0)
  in
  (* [pos] items so far; [cursor] is the base from [pos] on *)
  let rec go segments pos cursor =
    let payload = recv_payload t in
    let open_rev, older =
      match segments with
      | Decoded rev :: older -> (rev, older)
      | _ -> ([], segments)
    in
    match Wire.decode_chunk_rev payload open_rev with
    | Some (rev, k) -> go (Decoded rev :: older) (pos + k) (drop k cursor)
    | None -> (
      match raise_on_error (Wire.decode_response payload) with
      | Wire.Stream_same { items = n } ->
        if n > base_len - pos then
          raise
            (Wire.Malformed
               (Printf.sprintf "same run of %d items at %d past a %d-item base"
                  n pos base_len));
        let to_end = pos + n = base_len in
        go
          (Same { run = cursor; n; to_end } :: segments)
          (pos + n)
          (if to_end then [] else drop n cursor)
      | Wire.Stream_end { items } ->
        if pos <> items then
          protocol_error
            (Printf.sprintf "%d items" items)
            (Printf.sprintf "%d items" pos);
        (assemble segments, pos)
      | r -> protocol_error "stream_chunk/stream_same/stream_end" (tag_of r))
  in
  let items, len = go [] 0 base_items in
  t.base <- Some { key; items; len };
  { H.header; items }

(** Instrumented extraction over the wire: the server runs the XNF
    query (or view) under an instrumented context and ships back the
    per-operator report instead of a stream. *)
let extract_analyze t (text : string) : string =
  send t (Wire.Extract { text; chunk = 0; analyze = true; base = false });
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
