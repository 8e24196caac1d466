(** Process-wide, mutex-guarded LRU cache for materialized results
    (shared-subexpression batch lists, assembled CO-view streams).

    Payloads are [exn] — the universal-type trick — so layers above the
    executor can cache their own types here without dependency cycles;
    each caller matches only on its own constructor.  Keys of batch
    lists embed a version fragment ({!Optimizer.Plan.version_key}) so
    DML invalidates them by key drift; CO streams are keyed by structure
    and carry their versions in the payload.

    Budget: [XNFDB_RESULT_CACHE_MB] megabytes (default 64; 0 disables). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

val enabled : unit -> bool
(** True when the byte budget is positive. *)

val set_budget_mb : int option -> unit
(** Test hook: override (or [None] to restore) the env-derived budget. *)

val find : string -> exn option
(** Counts a hit or miss; refreshes the entry's LRU stamp. *)

val store : string -> bytes:int -> exn -> unit
(** Insert and evict least-recently-used entries over budget.  Entries
    larger than the whole budget are not stored. *)

val remove : string -> unit
(** Drop one entry, if present. *)

val clear : unit -> unit
(** Drop every entry (DDL, tests).  Stats survive; see {!reset_stats}. *)

val reset_stats : unit -> unit
val stats : unit -> stats

val batch_list_bytes : Relcore.Batch.t list -> int
(** Rough heap footprint of a materialized table queue. *)
