(** Shared domain pool: persistent worker domains behind parallel
    table-queue execution.  Workers are spawned lazily, up to the
    parallelism a query asks for, and reused across queries. *)

val default_domains : unit -> int
(** [XNFDB_DOMAINS], or [Domain.recommended_domain_count ()]: the
    worker count the daemon warms up at start, and the fallback for a
    parallel entry point called without [~domains]. *)

val in_worker : unit -> bool
(** Is the current domain a pool worker?  ({!run} from a worker executes
    inline, so nested parallelism cannot deadlock the pool.) *)

type handle

val launch : n:int -> (int -> unit) -> handle
(** Enqueue [n] tasks on pool workers and return immediately (the
    caller does not participate — e.g. it consumes a {!Chan} the tasks
    produce into). *)

val await : handle -> unit
(** Block until every task of the handle finished; re-raises the first
    task exception. *)

val run : domains:int -> (int -> unit) -> unit
(** [run ~domains f] executes [f 0 .. f (domains-1)] to completion, the
    caller running [f 0] itself.  Inline when [domains <= 1] or when
    already on a pool worker. *)

val for_morsels : domains:int -> morsels:int -> (int -> unit) -> unit
(** Dynamic (morsel-style) scheduling: participants pull indexes
    [0 .. morsels-1] from a shared counter; fast workers take more. *)
