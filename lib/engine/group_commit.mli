(** Group commit: a leader/follower queue that drains every concurrently
    submitted commit inside one exclusive (writer-lock) critical
    section, amortizing lock acquisition, cache invalidation, and
    snapshot publication across the batch. *)

type t

val create : unit -> t

val submit : t -> exclusive:((unit -> unit) -> unit) -> (unit -> unit) -> int
(** [submit t ~exclusive action] queues [action] and blocks until a
    leader has run it inside [exclusive] (which must hold the process
    writer lock around its argument).  Returns the batch size the job
    was drained with; re-raises the job's own exception. *)

val stats : t -> int * int * int
(** [(batches, jobs_committed, max_batch)] since creation. *)
