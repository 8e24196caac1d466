(** The xnfdb socket daemon: many client sessions multiplexed onto one
    database and the shared {!Relcore.Pool} worker domains.

    One event-loop thread owns every socket (accept / frame parse /
    flush); request execution runs on pool workers, which push encoded
    response frames into bounded per-session {!Relcore.Chan} outboxes —
    a full outbox stalls (only) the worker serving that client, which is
    the backpressure.  Locks and snapshot pins cover only computing a
    result; its frames are encoded and pushed after release.  Sessions
    share the catalog, result cache, and IVM state but carry their own
    transaction and prepared plans ({!Engine.Database.session}), and
    each keeps the last stream it shipped as the base of a delta
    check-out (see {!Wire.request}), released at teardown.  Writes
    serialize behind a process-wide writer lock at statement
    granularity, and every COMMIT drains through one group-commit
    exclusive section (a lone committer is a batch of one).  Reads
    prefer the lock: when it is free and every table is committed they
    take a non-blocking read acquisition; when a writer is busy — or an
    open transaction's uncommitted rows would be visible — they pin an
    MVCC-lite snapshot epoch and run lock-free over committed
    pre-images, falling back to the blocking lock when the bounded undo
    window cannot answer.  A session inside its own transaction reads
    under the blocking lock, so it sees its own writes.

    Malformed frames earn an error frame and close that session only.
    {!stop} drains in-flight requests and rolls back every open
    transaction (commits nothing). *)

type config = {
  addr : Unix.sockaddr;
  max_sessions : int;  (** [XNFDB_MAX_SESSIONS], default 1024 *)
}

val default_addr : unit -> Unix.sockaddr
(** [XNFDB_PORT] (TCP on loopback) if set, else [XNFDB_SOCKET]
    (default [/tmp/xnfdb.sock]). *)

val default_config : ?addr:Unix.sockaddr -> unit -> config

type t

val create : ?config:config -> Engine.Database.t -> t
(** Bind and listen (the socket is live, connections queue); the loop
    itself starts with {!serve}. *)

val serve : t -> unit
(** Run the event loop; blocks until {!stop} completes the drain. *)

val stop : t -> unit
(** Signal-safe shutdown trigger (the CLI wires it to SIGINT). *)

val sockaddr : t -> Unix.sockaddr
(** The actually-bound address (resolves port 0 to the chosen port). *)

(** {2 Observability} *)

type counters = {
  active_sessions : int;
  peak_sessions : int;
  sessions_opened : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  queries : int;
  extracts : int;
  stmts : int;
  errors : int;
  memo_hits : int;
      (** delta check-outs: extractions that shipped at least one
          [Stream_same] run, because the session's base (its last
          shipped stream for the same text and chunk) still held those
          items physically *)
  snap_reads : int;
      (** reads served lock-free off a pinned snapshot epoch *)
  snap_fallbacks : int;
      (** snapshot attempts that fell back to the blocking reader lock
          (stale undo window or pending DDL) *)
  gc_batches : int;  (** group-commit exclusive sections taken *)
  gc_commits : int;  (** COMMITs drained across all batches *)
  gc_max_batch : int;  (** largest single drain *)
  read_hold_us : int;
      (** total µs readers held the process rwlock (compute only:
          frames are encoded and shipped after release) *)
  write_wait_us : int;
      (** total µs writers (DML, DDL, COMMIT drains, teardown
          rollbacks) queued for the rwlock *)
}

val counters : t -> counters

val stats_text : t -> string
(** EXPLAIN-style block: process totals + one line per live session —
    the payload of the STATS protocol command. *)
