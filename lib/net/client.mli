(** Synchronous client for the xnfdb wire protocol — used by the
    benchmarks, the tests, and the CLI's [--connect] mode.  One request
    in flight per connection; streamed responses are reassembled. *)

open Relcore
module H = Xnf.Hetstream

exception Server_error of { kind : string; msg : string }
(** An error frame from the server (execution errors, protocol
    violations, malformed frames). *)

type t

val connect : ?client_name:string -> Unix.sockaddr -> t
(** Connect and complete the Hello handshake. *)

val session_id : t -> int

val query : t -> string -> Schema.t * Tuple.t list
(** Run a SELECT; rows reassembled from the streamed batch frames. *)

val query_rows : t -> string -> Tuple.t list

val query_analyze : t -> string -> string
(** EXPLAIN ANALYZE over the wire: the server executes the query under
    an instrumented context and replies with the per-operator report. *)

val extract : ?chunk:int -> t -> string -> H.t
(** Extract a CO stream ([text] is XNF query text or a view name).
    [chunk] is the ship quantum in stream items per frame: unset =
    server default, [1] = tuple-at-a-time.

    The connection keeps the items of its last completed extraction as
    a base.  Extracting the same [text] at the same [chunk] again is a
    delta check-out: the server sends each run of unchanged chunks as
    one [Stream_same] frame, and they are rebuilt from the base.  So
    the returned items may be shared with earlier extractions' (and the
    next ones'), and must not be mutated; {!Cocache.Workspace.update}
    copies on write.  A different [text] or [chunk] replaces the base,
    and an exception mid-stream drops it, so the next extraction ships
    in full.  @raise Wire.Malformed on a [Stream_same] past the base's
    end. *)

val extract_analyze : t -> string -> string
(** Instrumented extraction: per-operator report for an XNF query or
    view instead of a stream. *)

type exec_result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Done of string

val exec : t -> string -> exec_result
(** One statement: DML / DDL / BEGIN / COMMIT / ROLLBACK (SELECT comes
    back as [Rows]). *)

val stats : t -> string
(** The server's EXPLAIN-style STATS block. *)

val close : t -> unit
(** Polite goodbye (Bye / Bye_ok), then close. *)

val abort : t -> unit
(** Slam the socket shut with no goodbye — crash simulation. *)

(** {2 Wire-level accounting and raw IO} (bench + hardening tests) *)

val bytes_in : t -> int
val bytes_out : t -> int
val frames_in : t -> int
val frames_out : t -> int

val send_raw : t -> string -> unit
(** Ship arbitrary pre-framed bytes (malformed-frame tests). *)

val recv_any : t -> Wire.response
(** Read one response frame. *)
