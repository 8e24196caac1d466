(** The xnfdb socket daemon: many client sessions multiplexed onto one
    database and the shared {!Relcore.Pool} worker domains.

    One event-loop thread owns every socket: it accepts connections,
    reads and parses frames, and flushes response bytes.  Request
    {e execution} happens on pool workers — the loop hands a decoded
    frame to {!Relcore.Pool.launch} and moves on.  Workers never touch a
    socket: they push encoded response frames into the session's
    bounded {!Relcore.Chan} outbox, so a slow client stalls (only) the
    worker serving it once the outbox fills — that stall {e is} the
    backpressure — while the loop keeps serving everyone else.

    Sessions share the catalog (tables, columnar mirrors, result cache,
    IVM state) but each gets its own {!Engine.Database.session}: open
    transaction and prepared plans are per-connection.  Writes take a
    process-wide writer lock at statement granularity; queries and
    extractions share a reader lock, or run lock-free off a pinned MVCC
    snapshot epoch when a writer is busy.  Either covers only computing
    the result: frames are encoded, and pushed one by one, after the
    lock or pin is released.

    A malformed frame earns an error frame and closes that session; the
    daemon survives.  {!stop} (wired to SIGINT by the CLI) drains
    in-flight requests and commits nothing — open transactions are
    rolled back. *)

open Relcore
module Db = Engine.Database
module Txn = Engine.Txn
module H = Xnf.Hetstream

(* -- a small reader/writer lock ------------------------------------------ *)

(* Writer-preferring: arriving readers queue behind a waiting writer, so
   a steady query load cannot starve DML forever.  Handlers hold it only
   while computing a result: encoding frames and shipping bytes happen
   after release.  [hold_us] / [wait_us] total the time readers held it
   and writers queued for it (STATS). *)
module Rwlock = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting_w : int;
    hold_us : int Atomic.t;
    wait_us : int Atomic.t;
  }

  let create () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      readers = 0;
      writer = false;
      waiting_w = 0;
      hold_us = Atomic.make 0;
      wait_us = Atomic.make 0;
    }

  let add_since total t0 =
    ignore
      (Atomic.fetch_and_add total
         (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))

  (* run [f] as an admitted reader *)
  let as_reader t f =
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        add_since t.hold_us t0;
        Mutex.lock t.m;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.broadcast t.c;
        Mutex.unlock t.m)

  let read t f =
    Mutex.lock t.m;
    while t.writer || t.waiting_w > 0 do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m;
    as_reader t f

  (* Non-blocking read acquisition: [Some (f ())] when no writer is
     active or waiting, [None] otherwise (the caller takes the
     snapshot path instead of queueing behind the writer). *)
  let try_read t f =
    Mutex.lock t.m;
    if t.writer || t.waiting_w > 0 then begin
      Mutex.unlock t.m;
      None
    end
    else begin
      t.readers <- t.readers + 1;
      Mutex.unlock t.m;
      Some (as_reader t f)
    end

  let write t f =
    let t0 = Unix.gettimeofday () in
    Mutex.lock t.m;
    t.waiting_w <- t.waiting_w + 1;
    while t.writer || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.waiting_w <- t.waiting_w - 1;
    t.writer <- true;
    Mutex.unlock t.m;
    add_since t.wait_us t0;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.m;
        t.writer <- false;
        Condition.broadcast t.c;
        Mutex.unlock t.m)
end

(* -- configuration ------------------------------------------------------- *)

type config = {
  addr : Unix.sockaddr;
  max_sessions : int;
}

(* response frames buffered per session before the serving worker
   blocks *)
let outbox_depth = 16

(* stream items per [Stream_chunk] frame when the request names none *)
let stream_chunk = 512

let getenv_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let default_addr () =
  match Option.bind (Sys.getenv_opt "XNFDB_PORT") int_of_string_opt with
  | Some port when port > 0 ->
    Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  | _ ->
    Unix.ADDR_UNIX
      (Option.value (Sys.getenv_opt "XNFDB_SOCKET") ~default:"/tmp/xnfdb.sock")

let default_config ?addr () =
  {
    addr = (match addr with Some a -> a | None -> default_addr ());
    max_sessions = getenv_int "XNFDB_MAX_SESSIONS" 1024;
  }

(* -- sessions ------------------------------------------------------------ *)

type session = {
  sid : int;
  fd : Unix.file_descr;
  sdb : Db.t;
  mutable inbuf : string;  (* unparsed incoming bytes *)
  pending : string Queue.t;  (* complete payloads awaiting dispatch *)
  outbox : string Chan.t;  (* encoded response frames (worker → loop) *)
  mutable wbuf : string;  (* frame currently being written *)
  mutable woff : int;
  inflight : bool Atomic.t;  (* a request is running on the pool *)
  closing : bool Atomic.t;  (* graceful: flush outbox, then close *)
  mutable dead : bool;  (* peer gone: finalize as soon as possible *)
  (* per-session counters (racy reads from stats are benign) *)
  mutable s_frames_in : int;
  mutable s_frames_out : int;
  mutable s_bytes_in : int;
  mutable s_bytes_out : int;
  mutable s_requests : int;
  mutable s_snap_reads : int;  (* reads served lock-free off a snapshot *)
  mutable s_snap_falls : int;  (* snapshot attempts that fell back to the lock *)
  mutable s_gc_commits : int;  (* COMMITs routed through group commit *)
  mutable s_gc_max_batch : int;  (* largest drain one of them rode in *)
  (* the delta check-out's base: the (text, chunk) key and item list of
     this session's last extraction pushed up to [Stream_end] — what the
     client holds too.  Only the worker serving the session's one
     in-flight request touches it. *)
  mutable base : ((string * int) * H.item list) option;
}

type t = {
  config : config;
  db : Db.t;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  lock : Rwlock.t;
  sessions_mu : Mutex.t;  (* guards [sessions] (stats runs on workers) *)
  mutable sessions : session list;
  (* deferred teardown rollbacks in flight on pool workers; only the
     event-loop thread touches this list, and [serve] awaits every
     handle before it returns *)
  mutable cleanup : Pool.handle list;
  next_sid : int Atomic.t;
  (* process-wide counters *)
  c_opened : int Atomic.t;
  c_closed : int Atomic.t;
  c_peak : int Atomic.t;
  c_frames_in : int Atomic.t;
  c_frames_out : int Atomic.t;
  c_bytes_in : int Atomic.t;
  c_bytes_out : int Atomic.t;
  c_queries : int Atomic.t;
  c_extracts : int Atomic.t;
  c_stmts : int Atomic.t;
  c_errors : int Atomic.t;
  c_rejected : int Atomic.t;
  c_memo_hits : int Atomic.t;
  c_snap_reads : int Atomic.t;
  c_snap_fallbacks : int Atomic.t;
  (* group-commit queue shared by every session's COMMIT *)
  gc : Engine.Group_commit.t;
  (* snapshot gate: DDL must not run while a lock-free reader is
     mid-flight (it may drop the very tables the reader's frozen arrays
     and plans reference), and snapshot readers do not hold the rwlock.
     DDL flips [snap_blocked] (new snapshot reads fall back to the
     lock, where they queue behind the DDL writer) and waits for
     [snap_active] to drain. *)
  snap_mu : Mutex.t;
  snap_cond : Condition.t;
  mutable snap_active : int;
  mutable snap_blocked : bool;
}

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
  snap_reads : int;
  snap_fallbacks : int;
  gc_batches : int;
  gc_commits : int;
  gc_max_batch : int;
  read_hold_us : int;
  write_wait_us : int;
}

let sockaddr t = t.bound

let addr_to_string = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr host) port

(* -- creation ------------------------------------------------------------ *)

let create ?config (db : Db.t) : t =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  (* a dying client must surface as EPIPE on write, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain =
    match config.addr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match config.addr with
  | Unix.ADDR_UNIX path ->
    if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ ->
    Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
  Unix.bind listen_fd config.addr;
  Unix.listen listen_fd 128;
  Unix.set_nonblock listen_fd;
  let bound = Unix.getsockname listen_fd in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* boot epoch: whatever was loaded before the daemon started is the
     first committed state snapshot pins can see *)
  Snapshot.publish_catalog (Db.catalog db);
  {
    config;
    db;
    listen_fd;
    bound;
    wake_r;
    wake_w;
    stop_flag = Atomic.make false;
    lock = Rwlock.create ();
    sessions_mu = Mutex.create ();
    sessions = [];
    cleanup = [];
    next_sid = Atomic.make 1;
    c_opened = Atomic.make 0;
    c_closed = Atomic.make 0;
    c_peak = Atomic.make 0;
    c_frames_in = Atomic.make 0;
    c_frames_out = Atomic.make 0;
    c_bytes_in = Atomic.make 0;
    c_bytes_out = Atomic.make 0;
    c_queries = Atomic.make 0;
    c_extracts = Atomic.make 0;
    c_stmts = Atomic.make 0;
    c_errors = Atomic.make 0;
    c_rejected = Atomic.make 0;
    c_memo_hits = Atomic.make 0;
    c_snap_reads = Atomic.make 0;
    c_snap_fallbacks = Atomic.make 0;
    gc = Engine.Group_commit.create ();
    snap_mu = Mutex.create ();
    snap_cond = Condition.create ();
    snap_active = 0;
    snap_blocked = false;
  }

(** Wake the event loop out of [select] (worker → loop, signal-safe). *)
let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1) with
  | Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EBADF | Unix.EPIPE), _, _) ->
    (* EPIPE: the loop already closed the read end on its way out *)
    ()

let stop t =
  Atomic.set t.stop_flag true;
  wake t

(* -- observability ------------------------------------------------------- *)

let counters t : counters =
  let gc_batches, gc_commits, gc_max_batch = Engine.Group_commit.stats t.gc in
  {
    active_sessions = Atomic.get t.c_opened - Atomic.get t.c_closed;
    peak_sessions = Atomic.get t.c_peak;
    sessions_opened = Atomic.get t.c_opened;
    frames_in = Atomic.get t.c_frames_in;
    frames_out = Atomic.get t.c_frames_out;
    bytes_in = Atomic.get t.c_bytes_in;
    bytes_out = Atomic.get t.c_bytes_out;
    queries = Atomic.get t.c_queries;
    extracts = Atomic.get t.c_extracts;
    stmts = Atomic.get t.c_stmts;
    errors = Atomic.get t.c_errors;
    memo_hits = Atomic.get t.c_memo_hits;
    snap_reads = Atomic.get t.c_snap_reads;
    snap_fallbacks = Atomic.get t.c_snap_fallbacks;
    gc_batches;
    gc_commits;
    gc_max_batch;
    read_hold_us = Atomic.get t.lock.Rwlock.hold_us;
    write_wait_us = Atomic.get t.lock.Rwlock.wait_us;
  }

(** EXPLAIN-style text block: process-wide totals, then one line per
    live session — the payload of the STATS protocol command. *)
let stats_text t : string =
  let c = counters t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== server ==\n";
  Buffer.add_string buf
    (Printf.sprintf "  addr: %s%s\n" (addr_to_string t.bound)
       (if Atomic.get t.stop_flag then " (draining)" else ""));
  Buffer.add_string buf
    (Printf.sprintf "  sessions: %d active, %d opened, peak %d, max %d, %d rejected\n"
       c.active_sessions c.sessions_opened c.peak_sessions
       t.config.max_sessions (Atomic.get t.c_rejected));
  Buffer.add_string buf
    (Printf.sprintf "  frames: %d in / %d out, bytes: %d in / %d out\n"
       c.frames_in c.frames_out c.bytes_in c.bytes_out);
  Buffer.add_string buf
    (Printf.sprintf "  requests: %d queries, %d extracts, %d stmts, %d errors\n"
       c.queries c.extracts c.stmts c.errors);
  Buffer.add_string buf
    (Printf.sprintf
       "  frame memo: %d extractions shipped unchanged chunks as same-run \
        frames\n"
       c.memo_hits);
  Buffer.add_string buf
    (Printf.sprintf
       "  snapshot: %d lock-free reads, %d fallbacks; epochs %d pinned / \
        %d released (%d stale); undo window %d bytes\n"
       c.snap_reads c.snap_fallbacks (Snapshot.pinned ())
       (Snapshot.released ()) (Snapshot.fallbacks ())
       (Snapshot.undo_bytes_all (Db.catalog t.db)));
  Buffer.add_string buf
    (Printf.sprintf
       "  group commit: %d batches / %d commits, max batch %d\n"
       c.gc_batches c.gc_commits c.gc_max_batch);
  Buffer.add_string buf
    (Printf.sprintf "  lock: readers held %.1f ms, writers waited %.1f ms\n"
       (float_of_int c.read_hold_us /. 1e3)
       (float_of_int c.write_wait_us /. 1e3));
  Buffer.add_string buf
    (Printf.sprintf "  outbox depth %d frames, stream chunk %d items\n"
       outbox_depth stream_chunk);
  Buffer.add_string buf "== sessions ==\n";
  Mutex.lock t.sessions_mu;
  let sessions = t.sessions in
  Mutex.unlock t.sessions_mu;
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  [%d] %d reqs, frames %d/%d, bytes %d/%d, queue %d, snap \
            %d/%d, gc %d (max %d), txn %s%s\n"
           s.sid s.s_requests s.s_frames_in s.s_frames_out s.s_bytes_in
           s.s_bytes_out (Chan.length s.outbox) s.s_snap_reads s.s_snap_falls
           s.s_gc_commits s.s_gc_max_batch
           (if Txn.is_active (Db.txn s.sdb) then "open" else "none")
           (if Atomic.get s.inflight then ", busy" else "")))
    (List.sort (fun a b -> compare a.sid b.sid) sessions);
  Buffer.contents buf

(* -- snapshot read dispatch ---------------------------------------------- *)

let snap_enter t =
  Mutex.protect t.snap_mu (fun () ->
      if t.snap_blocked then false
      else begin
        t.snap_active <- t.snap_active + 1;
        true
      end)

let snap_exit t =
  Mutex.protect t.snap_mu (fun () ->
      t.snap_active <- t.snap_active - 1;
      if t.snap_active = 0 then Condition.broadcast t.snap_cond)

(* DDL barrier: refuse new lock-free readers, wait out those in flight.
   The caller holds the writer lock; snapshot readers never take it, so
   the wait always terminates (a reader falling back to the lock does so
   only after [snap_exit]). *)
let snap_exclude t f =
  Mutex.lock t.snap_mu;
  t.snap_blocked <- true;
  while t.snap_active > 0 do
    Condition.wait t.snap_cond t.snap_mu
  done;
  Mutex.unlock t.snap_mu;
  Fun.protect f
    ~finally:(fun () ->
      Mutex.protect t.snap_mu (fun () -> t.snap_blocked <- false))

(* Every table fully published?  Stable under the read lock (versions
   only move under the writer lock), so a clean check certifies the
   locked fast path sees no uncommitted rows from someone's open txn. *)
let catalog_clean t =
  List.for_all
    (fun tb -> Base_table.version tb = Base_table.committed_version tb)
    (Catalog.tables (Db.catalog t.db))

(** Dispatch one read (query or extraction).  [locked] runs under the
    reader lock; [snap] runs against a pinned epoch with no lock held.
    A session inside its own transaction takes the blocking lock, so it
    sees its own uncommitted writes.  Otherwise a free lock over a
    fully-committed catalog serves [locked] under a non-blocking read
    acquisition (result cache and IVM both stay valid); a
    busy lock — or another session's uncommitted rows — serves
    committed pre-images lock-free; a stale undo window or pending DDL
    falls back to the blocking lock, which serves only a clean catalog:
    while another session's rows stay uncommitted the read retries (50
    times, 1 ms apart), then fails with a typed error, never a dirty
    read.  Either
    way the computed result is
    returned unencoded: the caller encodes it after the lock or pin is
    released. *)
let serve_read t sess ~locked ~snap =
  let rec go retries =
    match
      Rwlock.try_read t.lock (fun () ->
          if catalog_clean t then Some (locked ()) else None)
    with
    | Some (Some r) -> r
    | Some None | None -> (
      let attempt =
        if not (snap_enter t) then None
        else
          Fun.protect
            ~finally:(fun () -> snap_exit t)
            (fun () ->
              let s = Snapshot.pin (Db.catalog t.db) in
              Fun.protect
                ~finally:(fun () -> Snapshot.release s)
                (fun () ->
                  match snap s with
                  | r -> Some r
                  | exception Snapshot.Stale -> None))
      in
      match attempt with
      | Some r ->
        sess.s_snap_reads <- sess.s_snap_reads + 1;
        Atomic.incr t.c_snap_reads;
        r
      | None -> (
        sess.s_snap_falls <- sess.s_snap_falls + 1;
        Atomic.incr t.c_snap_fallbacks;
        (* another session's open transaction may have written: wait a
           little for it to end (or for pending DDL to let the snapshot
           path in again) rather than serve its rows *)
        match
          Rwlock.read t.lock (fun () ->
              if catalog_clean t then Some (locked ()) else None)
        with
        | Some r -> r
        | None when retries > 0 ->
          Unix.sleepf 0.001;
          go (retries - 1)
        | None -> Errors.execution_error "no committed snapshot; retry"))
  in
  if Txn.is_active (Db.txn sess.sdb) then Rwlock.read t.lock locked
  else go 50

(* -- request execution (pool workers) ------------------------------------ *)

(** DDL through one session must invalidate every session's prepared
    plans (they reference dropped/created objects).  Runs only while the
    exclusive writer lock is held, so no reader is mid-compilation. *)
let broadcast_invalidate t =
  Db.invalidate_plans t.db;
  Mutex.lock t.sessions_mu;
  let sessions = t.sessions in
  Mutex.unlock t.sessions_mu;
  List.iter (fun s -> Db.invalidate_plans s.sdb) sessions

(* The first [n] tokens of a statement as the parser reads them, past
   any whitespace or [--] comment; shorter when [Eof] comes first, empty
   when the text does not lex. *)
let lead_tokens sql n =
  let st = Sqlkit.Lexer.make sql in
  let rec go k =
    if k = 0 then []
    else
      match (Sqlkit.Lexer.next_token st).token with
      | Sqlkit.Token.Eof -> [ Sqlkit.Token.Eof ]
      | tok -> tok :: go (k - 1)
  in
  try go n with Errors.Db_error _ -> []

let is_ddl sql =
  match lead_tokens sql 1 with
  | [ Sqlkit.Token.Ident ("create" | "drop") ] -> true
  | _ -> false

let is_commit sql =
  match lead_tokens sql 3 with
  | [ Ident "commit"; Eof ] | [ Ident "commit"; Punct ";"; Eof ] -> true
  | _ -> false

(* [Some (n, rest, base_rest)] when the first [n = min chunk (length
   items)] of [items] are physically the first [n] of [base]: their
   bytes are the ones the client already holds at these positions. *)
let same_prefix chunk items base =
  let rec go k items base =
    if k = chunk then Some (k, items, base)
    else
      match (items, base) with
      | [], _ -> Some (k, [], base)
      | i :: items, b :: base when i == b -> go (k + 1) items base
      | _ -> None
  in
  go 0 items base

let rec drop k items =
  match items with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> items

(** Answer one request, handing each encoded frame to [push] as soon as
    it is encoded.  Locks and snapshot pins cover only the computation
    of the result; every frame is encoded — and pushed, which may block
    on a full outbox — after they are released, so a writer waits at
    most for a reader's compute, never for its encoding or its client.
    This rests on published results being immutable: IVM patches build
    new item lists and value arrays, and heap updates replace a slot's
    tuple rather than mutate it. *)
let respond t (sess : session) (req : Wire.request) ~(push : string -> unit) :
    unit =
  let send r = push (Wire.encode_response r) in
  match req with
  | Wire.Hello { client = _; version } ->
    if version <> Wire.version then
      send
        (Wire.Error
           {
             kind = "protocol";
             msg =
               Printf.sprintf "protocol version %d, server speaks %d" version
                 Wire.version;
           })
    else
      send
        (Wire.Hello_ok
           { server = "xnfdb"; version = Wire.version; session_id = sess.sid })
  | Wire.Query { sql; analyze } when analyze ->
    Atomic.incr t.c_queries;
    (* attribution owns its own executor ctx, so the lock-free snapshot
       path can't thread a pinned-epoch ctx through it — take the plain
       read lock instead *)
    let report = Rwlock.read t.lock (fun () -> Db.explain_analyze sess.sdb sql) in
    send (Wire.Done report)
  | Wire.Query { sql; analyze = _ } ->
    Atomic.incr t.c_queries;
    (* rows are materialized under the lock: batches may alias executor
       or colstore buffers that the next query reuses *)
    let run ctx =
      let schema, batches = Db.query_batches ?ctx sess.sdb sql in
      (schema, List.map (fun b -> Batch.list_to_rows [ b ]) batches)
    in
    let schema, batches =
      serve_read t sess
        ~locked:(fun () -> run None)
        ~snap:(fun s ->
          run
            (Some
               (Executor.Exec.make_ctx ~result_cache:false
                  ~snapshot:(Snapshot.rows s) ())))
    in
    send (Wire.Row_header schema);
    let total =
      List.fold_left
        (fun n rows ->
          send (Wire.Row_batch rows);
          n + List.length rows)
        0 batches
    in
    send (Wire.Row_end { rows = total })
  | Wire.Extract { text; chunk = _; analyze = true; base = _ } ->
    Atomic.incr t.c_extracts;
    (* leaves the base alone: the reply carries live timings, not a
       stream *)
    let report =
      Rwlock.read t.lock (fun () ->
          let text =
            if Xnf.Xnf_parser.is_xnf_text text then text
            else Xnf.Xnf_compile.view_text sess.sdb text
          in
          Xnf.Xnf_compile.explain_analyze sess.sdb text)
    in
    send (Wire.Done report)
  | Wire.Extract { text; chunk; analyze = _; base = has_base } ->
    Atomic.incr t.c_extracts;
    let chunk = if chunk > 0 then chunk else stream_chunk in
    let key = (text, chunk) in
    (* cleared before the reply starts: one that fails leaves no base *)
    let base =
      match sess.base with
      | Some (k, items) when has_base && k = key -> Some items
      | _ -> None
    in
    sess.base <- None;
    let run ?ctx () =
      if Xnf.Xnf_parser.is_xnf_text text then
        Xnf.Xnf_compile.run ?ctx sess.sdb text
      else Xnf.Xnf_compile.run_view ?ctx sess.sdb text
    in
    (* a snapshot-served stream is computed afresh (no result cache), so
       nothing in it can be physically the base's *)
    let stream, base =
      serve_read t sess
        ~locked:(fun () -> (run (), base))
        ~snap:(fun s ->
          let ctx =
            Executor.Exec.make_ctx ~result_cache:false
              ~snapshot:(Snapshot.rows s) ()
          in
          (run ~ctx (), None))
    in
    send (Wire.Stream_header stream.H.header);
    (* chunk by chunk, walking the base in step: a run of chunks the
       client holds already ships as one [Stream_same] *)
    let sames = ref 0 in
    let flush same =
      if same > 0 then begin
        incr sames;
        send (Wire.Stream_same { items = same })
      end
    in
    let rec ship n same items base =
      match items with
      | [] ->
        flush same;
        n
      | _ -> (
        match same_prefix chunk items base with
        | Some (k, rest, base) -> ship (n + k) (same + k) rest base
        | None ->
          flush same;
          let f, k, rest = Wire.encode_chunk ~chunk items in
          push f;
          ship (n + k) 0 rest (drop k base))
    in
    let n = ship 0 0 stream.H.items (Option.value base ~default:[]) in
    (* counted before the last frame: a client that has read it sees the
       count *)
    if !sames > 0 then Atomic.incr t.c_memo_hits;
    send (Wire.Stream_end { items = n });
    sess.base <- Some (key, stream.H.items)
  | Wire.Stmt { sql } ->
    Atomic.incr t.c_stmts;
    let execute () =
      match Db.exec sess.sdb sql with
      | Db.Rows (schema, rows) ->
        [
          Wire.Row_header schema;
          Wire.Row_batch rows;
          Wire.Row_end { rows = List.length rows };
        ]
      | Db.Affected n -> [ Wire.Affected n ]
      | Db.Done msg ->
        if is_ddl sql then broadcast_invalidate t;
        [ Wire.Done msg ]
    in
    let replies =
      if is_commit sql then begin
        (* concurrent sessions' COMMITs drain in one exclusive section:
           one lock acquisition, one publication burst *)
        let replies = ref [] in
        let batch =
          Engine.Group_commit.submit t.gc
            ~exclusive:(fun f -> Rwlock.write t.lock f)
            (fun () -> replies := execute ())
        in
        sess.s_gc_commits <- sess.s_gc_commits + 1;
        if batch > sess.s_gc_max_batch then sess.s_gc_max_batch <- batch;
        !replies
      end
      else if is_ddl sql then
        (* DDL additionally waits out in-flight lock-free readers *)
        Rwlock.write t.lock (fun () -> snap_exclude t execute)
      else Rwlock.write t.lock execute
    in
    List.iter send replies
  | Wire.Stats -> send (Wire.Stats_reply (stats_text t))
  | Wire.Bye ->
    Atomic.set sess.closing true;
    send Wire.Bye_ok

(** Run one request on a pool worker: decode, execute, push the encoded
    frames into the session outbox (blocking on a full outbox — the
    backpressure path).  Never raises: errors become error frames; a
    torn-down session surfaces as [Chan.Closed] and is simply dropped. *)
let handle_request t (sess : session) (payload : string) : unit =
  Fun.protect
    ~finally:(fun () ->
      Atomic.set sess.inflight false;
      wake t)
    (fun () ->
      sess.s_requests <- sess.s_requests + 1;
      (* wake per push, not merely per request: the loop may be parked
         in [select] without this fd in the write set (the outbox was
         empty when it built the sets), and a streamed response that
         fills the bounded outbox would otherwise deadlock with the
         loop until its timeout — per-frame latency, not throughput *)
      let push_frame f =
        Chan.push sess.outbox f;
        wake t
      in
      let push r = push_frame (Wire.encode_response r) in
      try
        match Wire.decode_request payload with
        | req -> (
          match respond t sess req ~push:push_frame with
          | () -> ()
          | exception Errors.Db_error (k, msg) ->
            Atomic.incr t.c_errors;
            push (Wire.Error { kind = Errors.kind_to_string k; msg }))
        | exception Wire.Malformed msg ->
          (* answer, then hang up: a peer that frames garbage cannot be
             trusted to stay in sync *)
          Atomic.incr t.c_errors;
          push (Wire.Error { kind = "malformed"; msg });
          Atomic.set sess.closing true
      with
      | Chan.Closed -> ()
      | e ->
        Atomic.incr t.c_errors;
        (try
           push
             (Wire.Error { kind = "internal"; msg = Printexc.to_string e })
         with Chan.Closed -> ()))

(* -- the event loop ------------------------------------------------------ *)

let read_buf_len = 65536

(** Parse every complete frame out of [sess.inbuf] into [sess.pending].
    @raise Wire.Malformed on an out-of-range length prefix. *)
let rec extract_frames t sess =
  let s = sess.inbuf in
  let len = String.length s in
  if len >= 4 then begin
    let n = Int32.to_int (String.get_int32_be s 0) in
    if n < 1 || n > Wire.max_frame then
      raise
        (Wire.Malformed (Printf.sprintf "frame length %d out of range" n));
    if len >= 4 + n then begin
      Queue.add (String.sub s 4 n) sess.pending;
      sess.inbuf <- String.sub s (4 + n) (len - 4 - n);
      sess.s_frames_in <- sess.s_frames_in + 1;
      Atomic.incr t.c_frames_in;
      extract_frames t sess
    end
  end

let mark_dead sess =
  if not sess.dead then begin
    sess.dead <- true;
    (* unblock any worker mid-push; it sees [Chan.Closed] and abandons
       the rest of its response *)
    Chan.close sess.outbox
  end

let handle_readable t sess (buf : Bytes.t) =
  match Unix.read sess.fd buf 0 read_buf_len with
  | 0 -> mark_dead sess
  | n -> (
    sess.inbuf <- sess.inbuf ^ Bytes.sub_string buf 0 n;
    sess.s_bytes_in <- sess.s_bytes_in + n;
    ignore (Atomic.fetch_and_add t.c_bytes_in n);
    match extract_frames t sess with
    | () -> ()
    | exception Wire.Malformed msg ->
      (* a framing error cannot be answered in-band reliably, but we
         still try: error frame, then drain and close *)
      Atomic.incr t.c_errors;
      (try
         Chan.push sess.outbox
           (Wire.encode_response (Wire.Error { kind = "malformed"; msg }))
       with Chan.Closed -> ());
      Queue.clear sess.pending;
      Atomic.set sess.closing true)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> mark_dead sess

(** Move outbox frames through the socket without ever blocking. *)
let handle_writable t sess =
  let progress = ref true in
  while !progress && not sess.dead do
    progress := false;
    if sess.woff >= String.length sess.wbuf then (
      match Chan.try_pop sess.outbox with
      | Some f ->
        sess.wbuf <- f;
        sess.woff <- 0;
        sess.s_frames_out <- sess.s_frames_out + 1;
        Atomic.incr t.c_frames_out
      | None -> ());
    let remaining = String.length sess.wbuf - sess.woff in
    if remaining > 0 then begin
      match Unix.write_substring sess.fd sess.wbuf sess.woff remaining with
      | n ->
        sess.woff <- sess.woff + n;
        sess.s_bytes_out <- sess.s_bytes_out + n;
        ignore (Atomic.fetch_and_add t.c_bytes_out n);
        if n > 0 then progress := true
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> mark_dead sess
    end
  done

let wants_write sess =
  (not sess.dead)
  && (sess.woff < String.length sess.wbuf || Chan.length sess.outbox > 0)

(** A gracefully-closing session is finished once everything is flushed
    and no request is still running. *)
let close_ripe sess =
  Atomic.get sess.closing
  && (not (Atomic.get sess.inflight))
  && Queue.is_empty sess.pending
  && Chan.length sess.outbox = 0
  && sess.woff >= String.length sess.wbuf

let finalize t sess =
  mark_dead sess;
  (* no worker can be running this session here (inflight = false), so
     only other sessions' readers can race the undo — serialize behind
     the writer lock on a pool worker, never on the loop thread (a loop
     blocked on the lock could not drain the outbox a reader is stuck
     pushing into).  SIGINT commits nothing. *)
  if Txn.is_active (Db.txn sess.sdb) then
    t.cleanup <-
      Pool.launch ~n:1 (fun _ ->
          Rwlock.write t.lock (fun () ->
              if Txn.is_active (Db.txn sess.sdb) then
                Txn.rollback (Db.txn sess.sdb)))
      :: t.cleanup;
  sess.base <- None;
  (try Unix.close sess.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.sessions_mu;
  t.sessions <- List.filter (fun s -> s.sid <> sess.sid) t.sessions;
  Mutex.unlock t.sessions_mu;
  Atomic.incr t.c_closed

let accept_all t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _peer ->
      if List.length t.sessions >= t.config.max_sessions then begin
        (* best-effort error frame, then refuse *)
        Atomic.incr t.c_rejected;
        (try
           let f =
             Wire.encode_response
               (Wire.Error { kind = "busy"; msg = "max sessions reached" })
           in
           ignore (Unix.write_substring fd f 0 (String.length f))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        (match t.bound with
        | Unix.ADDR_INET _ -> (
          try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ())
        | _ -> ());
        let sess =
          {
            sid = Atomic.fetch_and_add t.next_sid 1;
            fd;
            sdb = Db.session t.db;
            inbuf = "";
            pending = Queue.create ();
            outbox = Chan.create ~capacity:outbox_depth;
            wbuf = "";
            woff = 0;
            inflight = Atomic.make false;
            closing = Atomic.make false;
            dead = false;
            s_frames_in = 0;
            s_frames_out = 0;
            s_bytes_in = 0;
            s_bytes_out = 0;
            s_requests = 0;
            s_snap_reads = 0;
            s_snap_falls = 0;
            s_gc_commits = 0;
            s_gc_max_batch = 0;
            base = None;
          }
        in
        Mutex.lock t.sessions_mu;
        t.sessions <- sess :: t.sessions;
        let active = List.length t.sessions in
        Mutex.unlock t.sessions_mu;
        Atomic.incr t.c_opened;
        let rec bump () =
          let p = Atomic.get t.c_peak in
          if active > p && not (Atomic.compare_and_set t.c_peak p active) then
            bump ()
        in
        bump ()
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let dispatch_ready t =
  List.iter
    (fun sess ->
      if
        (not sess.dead)
        && (not (Atomic.get sess.inflight))
        && (not (Atomic.get sess.closing))
        && not (Queue.is_empty sess.pending)
      then begin
        let payload = Queue.pop sess.pending in
        Atomic.set sess.inflight true;
        ignore (Pool.launch ~n:1 (fun _ -> handle_request t sess payload))
      end)
    t.sessions

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | n when n = 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

(** Run the daemon.  Blocks until {!stop}: then stops accepting, lets
    in-flight requests finish, flushes what can be flushed, and rolls
    back every open transaction. *)
let serve t =
  (* warm the pool up front so the first burst of sessions is not
     serialized behind lazy worker spawning *)
  Pool.await (Pool.launch ~n:(Pool.default_domains ()) (fun _ -> ()));
  let rbuf = Bytes.create read_buf_len in
  let accepting = ref true in
  let stop_accepting () =
    if !accepting then begin
      accepting := false;
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      match t.bound with
      | Unix.ADDR_UNIX path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | _ -> ()
    end
  in
  let running () = (not (Atomic.get t.stop_flag)) || t.sessions <> [] in
  while running () do
    if Atomic.get t.stop_flag then begin
      stop_accepting ();
      (* drain: no new requests; close every session as soon as its
         in-flight work and outbox are done *)
      List.iter
        (fun s ->
          Queue.clear s.pending;
          Atomic.set s.closing true)
        t.sessions
    end;
    let rds =
      t.wake_r
      :: (if !accepting then [ t.listen_fd ] else [])
      @ List.filter_map
          (fun s -> if s.dead then None else Some s.fd)
          t.sessions
    in
    let wrs = List.filter_map (fun s -> if wants_write s then Some s.fd else None) t.sessions in
    (match Unix.select rds wrs [] 0.1 with
    | readable, writable, _ ->
      if List.mem t.wake_r readable then drain_wake t;
      if !accepting && List.mem t.listen_fd readable then accept_all t;
      List.iter
        (fun s ->
          if (not s.dead) && List.mem s.fd readable then
            handle_readable t s rbuf)
        t.sessions;
      List.iter
        (fun s -> if (not s.dead) && List.mem s.fd writable then handle_writable t s)
        t.sessions
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* opportunistic flush: frames may have landed in outboxes while we
       were away regardless of select's verdict *)
    List.iter (fun s -> if wants_write s then handle_writable t s) t.sessions;
    dispatch_ready t;
    (* reap *)
    let ripe =
      List.filter
        (fun s ->
          (s.dead && not (Atomic.get s.inflight)) || close_ripe s)
        t.sessions
    in
    List.iter (finalize t) ripe
  done;
  stop_accepting ();
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (* every deferred teardown rollback must land before we hand the
     database back *)
  List.iter Pool.await t.cleanup;
  t.cleanup <- []
