(** Group commit: concurrent sessions' COMMITs queue up and one leader
    drains the whole queue inside a single exclusive (writer-lock)
    critical section, amortizing the lock acquisition, the shared-cache
    invalidation, and the snapshot publication across every commit that
    arrived while the previous holder was busy.

    The protocol is the classic leader/follower queue: a submitter
    enqueues its commit thunk; if nobody is leading it elects itself,
    takes the exclusive section once, and runs {e every} queued job
    (including those that raced in while it waited for the lock).
    Followers block until their job is marked done and re-elect
    themselves if the leader exits before reaching them.  Per-job
    exceptions (e.g. "no transaction in progress") are caught by the
    leader and re-raised on the submitting session's thread. *)

type stats = {
  mutable batches : int; (* exclusive sections taken *)
  mutable committed : int; (* jobs drained across all batches *)
  mutable max_batch : int; (* largest single drain *)
}

type job = {
  action : unit -> unit;
  mutable done_ : bool;
  mutable err : exn option;
  mutable batch : int; (* size of the drain this job rode in *)
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable queue : job list; (* newest first *)
  mutable leading : bool;
  stats : stats;
}

let create () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    queue = [];
    leading = false;
    stats = { batches = 0; committed = 0; max_batch = 0 };
  }

let stats t = (t.stats.batches, t.stats.committed, t.stats.max_batch)

(** Submit [action] (one session's commit work) and block until it has
    run inside an exclusive section.  [exclusive f] must run [f] while
    holding the process writer lock (and may bundle shared-cache
    invalidation around it).  Returns the batch size the job was drained
    with; re-raises the job's own exception, if any. *)
let submit t ~exclusive action =
  Mutex.lock t.mu;
  let j = { action; done_ = false; err = None; batch = 0 } in
  t.queue <- j :: t.queue;
  let rec wait_done () =
    if j.done_ then ()
    else if not t.leading then begin
      t.leading <- true;
      Mutex.unlock t.mu;
      (* Everything that queued while we (or the writer ahead of us)
         held things up is drained in one critical section. *)
      (try
         exclusive (fun () ->
             Mutex.lock t.mu;
             let batch = List.rev t.queue in
             t.queue <- [];
             let n = List.length batch in
             t.stats.batches <- t.stats.batches + 1;
             t.stats.committed <- t.stats.committed + n;
             if n > t.stats.max_batch then t.stats.max_batch <- n;
             Mutex.unlock t.mu;
             List.iter
               (fun j ->
                 j.batch <- n;
                 try j.action () with e -> j.err <- Some e)
               batch;
             Mutex.lock t.mu;
             List.iter (fun j -> j.done_ <- true) batch;
             Condition.broadcast t.cond;
             Mutex.unlock t.mu)
       with e ->
         (* [exclusive] itself failed before running the batch; step
            down so waiters re-elect, then surface the failure here. *)
         Mutex.lock t.mu;
         t.leading <- false;
         Condition.broadcast t.cond;
         Mutex.unlock t.mu;
         raise e);
      Mutex.lock t.mu;
      t.leading <- false;
      (* jobs enqueued after our drain need a new leader *)
      Condition.broadcast t.cond;
      wait_done ()
    end
    else begin
      Condition.wait t.cond t.mu;
      wait_done ()
    end
  in
  wait_done ();
  let err = j.err and batch = j.batch in
  Mutex.unlock t.mu;
  (match err with Some e -> raise e | None -> ());
  batch
