(** The xnfdb wire protocol: length-prefixed binary frames.

    Frame = 4-byte big-endian payload length + payload; payload = one
    tag byte + body in {!Xnf.Hetstream}'s varint/value encoding.  Query
    and extraction responses are streamed — header frame, one frame per
    batch/chunk, end frame — so a slow client backpressures the server
    through its bounded outbox instead of forcing one giant blob.

    Version 3 adds the delta check-out: an [Extract] that says [base]
    may be answered with [Stream_same] frames, each standing for a run
    of items the connection already holds at the same positions. *)

open Relcore
module H = Xnf.Hetstream

val version : int

val max_frame : int
(** Upper bound on a payload length; longer prefixes are malformed. *)

exception Malformed of string
(** A frame that cannot be decoded.  Decoders never raise anything
    else on bad input — the daemon answers with an error frame and
    closes that session only. *)

type request =
  | Hello of { client : string; version : int }
  | Query of { sql : string; analyze : bool }
      (** [analyze] requests EXPLAIN ANALYZE: the server executes the
          query and replies with one [Done] frame carrying the
          per-operator attribution report instead of a row stream. *)
  | Extract of { text : string; chunk : int; analyze : bool; base : bool }
      (** [text] is XNF query text or a view name; [chunk] is the number
          of stream items per [Stream_chunk] frame (0 = server default,
          1 = tuple-at-a-time).  [analyze] replies with one [Done]
          report frame instead of a stream.  [base] says the client
          holds a {e base} for this [(text, chunk)]: the item list of
          this connection's last extraction that ended in
          [Stream_end], which the server keeps too.  Only then may the
          reply carry [Stream_same] frames; without it the reply's
          frames are exactly a full shipment. *)
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
      (** The next [items] stream items are the base's items at the
          same positions (the server found them physically equal to
          what it last shipped; published streams are immutable, so
          their bytes are too).  A negative count is {!Malformed}. *)
  | Stream_end of { items : int }
  | Affected of int
  | Done of string
  | Error of { kind : string; msg : string }
  | Stats_reply of string
  | Bye_ok

val frame : string -> string
(** Prefix a payload with its 4-byte length. *)

val encode_request : request -> string
(** Full frame, length prefix included. *)

val encode_response : response -> string
(** Full frame, length prefix included. *)

val encode_chunk : chunk:int -> H.item list -> string * int * H.item list
(** [encode_chunk ~chunk items] is [(frame, n, rest)]: the first [n =
    min chunk (List.length items)] items framed as a [Stream_chunk],
    byte-identical to [encode_response (Stream_chunk prefix)], and the
    items after them — a stream ships chunk by chunk straight off its
    item list, without copying the prefix.  [chunk] must be positive. *)

val decode_request : string -> request
(** From a payload (no length prefix).  @raise Malformed *)

val decode_response : string -> response
(** From a payload (no length prefix).  @raise Malformed *)

val decode_chunk_rev :
  string -> H.item list -> (H.item list * int) option
(** [decode_chunk_rev payload acc] is [Some (acc', n)] when [payload] is
    a [Stream_chunk] frame: its [n] items consed onto [acc] in reverse
    order, so a whole stream reassembles onto one accumulator with a
    single final [List.rev].  [None] for any other tag.
    @raise Malformed *)

(** {2 Blocking frame IO} — the client side's synchronous transport. *)

exception Connection_lost

val send_frame : Unix.file_descr -> string -> unit
val recv_payload : Unix.file_descr -> string
