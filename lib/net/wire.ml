(** The xnfdb wire protocol: length-prefixed binary frames.

    A frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is the frame tag, the rest is the
    body in {!Xnf.Hetstream}'s varint/value encoding — the same codec
    that serializes CO result streams, so a [Stream_chunk] frame's body
    is byte-identical to the corresponding slice of
    [Hetstream.serialize] output.  Responses to a query or an extraction
    are {e streamed}: a header frame, one frame per batch/chunk, then an
    end frame carrying the total — the paper's Sect. 5 bulk shipping,
    with the chunk size as the ship quantum (chunk 1 = the
    tuple-at-a-time strawman).

    A connection that already holds a stream for the same (text, chunk)
    asks for a {e delta} check-out: a run of chunks whose items are
    physically the ones the server last shipped it at the same
    positions travels as one tiny [Stream_same] frame instead. *)

open Relcore
module H = Xnf.Hetstream

let version = 3

(** Frames larger than this are rejected as malformed before any
    allocation happens — a garbage length prefix must not OOM the
    daemon. *)
let max_frame = 64 * 1024 * 1024

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type request =
  | Hello of { client : string; version : int }
  | Query of { sql : string; analyze : bool }
      (** [analyze] requests EXPLAIN ANALYZE: the server executes the
          query, discards the rows and replies with a single [Done]
          frame carrying the per-operator attribution report. *)
  | Extract of { text : string; chunk : int; analyze : bool; base : bool }
      (** [text] is XNF query text or a view name; [chunk] is the number
          of stream items per [Stream_chunk] frame (0 = server default,
          1 = tuple-at-a-time).  [analyze] requests an instrumented
          extraction: the reply is one [Done] frame with the
          per-operator report instead of a stream.  [base]: the client
          holds the items of this connection's last full reply to the
          same [text] and [chunk], so the server may answer with
          [Stream_same] frames. *)
  | Stmt of { sql : string }  (** DML / DDL / BEGIN / COMMIT / ROLLBACK *)
  | Stats
  | Bye

type response =
  | Hello_ok of { server : string; version : int; session_id : int }
  | Row_header of Schema.t
  | Row_batch of Tuple.t list
  | Row_end of { rows : int }
  | Stream_header of H.header
  | Stream_chunk of H.item list
  | Stream_same of { items : int }
      (** the next [items] items are the base's items at these
          positions *)
  | Stream_end of { items : int }
  | Affected of int
  | Done of string
  | Error of { kind : string; msg : string }
  | Stats_reply of string
  | Bye_ok

(* -- encoding ------------------------------------------------------------ *)

(** Wrap a payload into a full frame (length prefix + payload). *)
let frame (payload : string) : string =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

(* One pass: reserve the length prefix, write tag and body behind it,
   then patch the prefix into the single copy taken out of the buffer. *)
let with_tag tag body =
  let b = Buffer.create 64 in
  Buffer.add_int32_be b 0l;
  Buffer.add_char b tag;
  body b;
  let f = Buffer.to_bytes b in
  Bytes.set_int32_be f 0 (Int32.of_int (Bytes.length f - 4));
  Bytes.unsafe_to_string f

let encode_request (r : request) : string =
  match r with
  | Hello { client; version } ->
    with_tag 'h' (fun b ->
        H.write_string b client;
        H.write_int b version)
  | Query { sql; analyze } ->
    with_tag 'q' (fun b ->
        H.write_string b sql;
        H.write_int b (if analyze then 1 else 0))
  | Extract { text; chunk; analyze; base } ->
    with_tag 'x' (fun b ->
        H.write_string b text;
        H.write_int b chunk;
        H.write_int b (if analyze then 1 else 0);
        H.write_int b (if base then 1 else 0))
  | Stmt { sql } -> with_tag 's' (fun b -> H.write_string b sql)
  | Stats -> with_tag 'S' (fun _ -> ())
  | Bye -> with_tag 'b' (fun _ -> ())

let rec write_items b k items =
  if k > 0 then
    match items with
    | item :: rest ->
      H.write_item b item;
      write_items b (k - 1) rest
    | [] -> ()

(* A [Stream_chunk] body of the first [n] of [items]: the one writer
   behind both [encode_response] and [encode_chunk]. *)
let write_chunk b n items =
  H.write_int b n;
  write_items b n items

let rec prefix_length chunk k items =
  match items with
  | _ :: rest when k < chunk -> prefix_length chunk (k + 1) rest
  | _ -> k

let rec drop k items =
  match items with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> items

let encode_chunk ~chunk items =
  let n = prefix_length chunk 0 items in
  (with_tag 'i' (fun b -> write_chunk b n items), n, drop n items)

let encode_response (r : response) : string =
  match r with
  | Hello_ok { server; version; session_id } ->
    with_tag 'H' (fun b ->
        H.write_string b server;
        H.write_int b version;
        H.write_int b session_id)
  | Row_header schema -> with_tag 'T' (fun b -> H.write_schema b schema)
  | Row_batch rows ->
    with_tag 'B' (fun b ->
        H.write_int b (List.length rows);
        List.iter (H.write_values b) rows)
  | Row_end { rows } -> with_tag 'E' (fun b -> H.write_int b rows)
  | Stream_header h -> with_tag 'r' (fun b -> H.write_header b h)
  | Stream_chunk items ->
    with_tag 'i' (fun b -> write_chunk b (List.length items) items)
  | Stream_same { items } -> with_tag 'm' (fun b -> H.write_int b items)
  | Stream_end { items } -> with_tag 'z' (fun b -> H.write_int b items)
  | Affected n -> with_tag 'A' (fun b -> H.write_int b n)
  | Done msg -> with_tag 'D' (fun b -> H.write_string b msg)
  | Error { kind; msg } ->
    with_tag 'X' (fun b ->
        H.write_string b kind;
        H.write_string b msg)
  | Stats_reply text -> with_tag 'Y' (fun b -> H.write_string b text)
  | Bye_ok -> with_tag 'Z' (fun _ -> ())

(* -- decoding ------------------------------------------------------------ *)

(* Any slip in a malformed payload surfaces as an out-of-bounds read or
   a codec error deep in the Hetstream reader; [decoding] funnels every
   such failure into [Malformed] so one bad client frame can never take
   the daemon down. *)
let decoding (payload : string) (f : H.reader -> 'a) : 'a =
  let r = { H.data = payload; pos = 1 } in
  let v =
    try f r with
    | Malformed _ as e -> raise e
    | Errors.Db_error (_, msg) -> malformed "%s" msg
    | Invalid_argument _ | Failure _ -> malformed "truncated frame"
  in
  if r.H.pos <> String.length payload then
    malformed "%d trailing bytes in frame" (String.length payload - r.H.pos);
  v

let decode_request (payload : string) : request =
  if String.length payload = 0 then malformed "empty frame";
  match payload.[0] with
  | 'h' ->
    decoding payload (fun r ->
        let client = H.read_string r in
        let version = H.read_int r in
        Hello { client; version })
  | 'q' ->
    decoding payload (fun r ->
        let sql = H.read_string r in
        let analyze = H.read_int r <> 0 in
        Query { sql; analyze })
  | 'x' ->
    decoding payload (fun r ->
        let text = H.read_string r in
        let chunk = H.read_int r in
        let analyze = H.read_int r <> 0 in
        let base = H.read_int r <> 0 in
        Extract { text; chunk; analyze; base })
  | 's' -> decoding payload (fun r -> Stmt { sql = H.read_string r })
  | 'S' -> decoding payload (fun _ -> Stats)
  | 'b' -> decoding payload (fun _ -> Bye)
  | c -> malformed "unknown request tag %C" c

let read_row r : Tuple.t =
  let n = H.read_int r in
  if n < 0 then malformed "negative row arity";
  H.read_values r n

(* A [Stream_chunk] body's items consed onto [acc] (so in reverse), and
   their count. *)
let read_chunk_rev payload acc =
  decoding payload (fun r ->
      let n = H.read_int r in
      if n < 0 then malformed "negative chunk size";
      let acc = ref acc in
      for _ = 1 to n do
        acc := H.read_item r :: !acc
      done;
      (!acc, n))

let decode_chunk_rev (payload : string) acc =
  if String.length payload > 0 && payload.[0] = 'i' then
    Some (read_chunk_rev payload acc)
  else None

let decode_response (payload : string) : response =
  if String.length payload = 0 then malformed "empty frame";
  match payload.[0] with
  | 'H' ->
    decoding payload (fun r ->
        let server = H.read_string r in
        let version = H.read_int r in
        let session_id = H.read_int r in
        Hello_ok { server; version; session_id })
  | 'T' -> decoding payload (fun r -> Row_header (H.read_schema r))
  | 'B' ->
    decoding payload (fun r ->
        let n = H.read_int r in
        if n < 0 then malformed "negative batch size";
        Row_batch (List.init n (fun _ -> read_row r)))
  | 'E' -> decoding payload (fun r -> Row_end { rows = H.read_int r })
  | 'r' -> decoding payload (fun r -> Stream_header (H.read_header r))
  | 'i' -> Stream_chunk (List.rev (fst (read_chunk_rev payload [])))
  | 'm' ->
    decoding payload (fun r ->
        let items = H.read_int r in
        if items < 0 then malformed "negative same-run length";
        Stream_same { items })
  | 'z' -> decoding payload (fun r -> Stream_end { items = H.read_int r })
  | 'A' -> decoding payload (fun r -> Affected (H.read_int r))
  | 'D' -> decoding payload (fun r -> Done (H.read_string r))
  | 'X' ->
    decoding payload (fun r ->
        let kind = H.read_string r in
        let msg = H.read_string r in
        Error { kind; msg })
  | 'Y' -> decoding payload (fun r -> Stats_reply (H.read_string r))
  | 'Z' -> decoding payload (fun _ -> Bye_ok)
  | c -> malformed "unknown response tag %C" c

(* -- blocking frame IO (client side) ------------------------------------- *)

exception Connection_lost

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Connection_lost
    in
    write_all fd s (off + n) (len - n)
  end

let send_frame fd (framed : string) =
  write_all fd framed 0 (String.length framed)

let read_exactly fd n : string =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k =
      try Unix.read fd buf !off (n - !off) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Connection_lost
    in
    if k = 0 && !off < n then raise Connection_lost;
    off := !off + k
  done;
  Bytes.unsafe_to_string buf

(** Read one frame's payload (blocking); raises {!Connection_lost} on
    EOF. *)
let recv_payload fd : string =
  let hdr = read_exactly fd 4 in
  let n = Int32.to_int (String.get_int32_be hdr 0) in
  if n < 1 || n > max_frame then malformed "frame length %d out of range" n;
  read_exactly fd n
