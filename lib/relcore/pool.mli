(** Shared domain pool: persistent worker domains that run the daemon's
    requests.  Workers are spawned lazily, up to the number of tasks
    asked for, and reused for the life of the process. *)

val default_domains : unit -> int
(** [XNFDB_DOMAINS], or [Domain.recommended_domain_count ()]: the
    worker count the daemon warms up at start. *)

type handle

val launch : n:int -> (int -> unit) -> handle
(** Enqueue [n] tasks on pool workers and return immediately (the
    caller does not participate — e.g. it consumes a {!Chan} the tasks
    produce into). *)

val await : handle -> unit
(** Block until every task of the handle finished; re-raises the first
    task exception. *)
