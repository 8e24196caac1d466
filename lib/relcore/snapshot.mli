(** MVCC-lite snapshot epochs: commit-consistent pins over the per-table
    committed-version counters, materialized lazily from the heaps'
    retained delta (undo) logs.  Readers never take the process rwlock;
    writers never wait for readers.  When the bounded undo window cannot
    reconstruct a pinned version, {!rows} raises {!Stale} and the caller
    falls back to a locked read. *)

exception Stale

val publish_mu : Mutex.t
(** The global publication lock {!publish} and {!pin} serialize on. *)

val publish : Base_table.t list -> unit
(** Mark each table's current version as committed, atomically with
    respect to {!pin}. *)

val bump_and_publish : Base_table.t list -> unit
(** Advance every table's version {e and} publish it in one critical
    section — the txn-boundary invalidation point.  Concurrent pins and
    version-vector captures see the whole commit or none of it. *)

val publish_catalog : Catalog.t -> unit
(** {!publish} every table of the catalog (bulk-load / server boot). *)

type t
(** A pinned snapshot epoch. *)

val pin : Catalog.t -> t
(** Capture the committed-version vector of every table — a
    commit-consistent cut. *)

val epoch : t -> int
(** Process-unique pin id. *)

val release : t -> unit
(** Epoch accounting; frozen row arrays are reclaimed by the GC. *)

val rows : t -> Base_table.t -> Tuple.t option array
(** Slot-indexed rows of the table at the pinned epoch ([None] =
    tombstone), computed once per (pin, table) and cached.
    @raise Stale when the undo window cannot answer for the pin. *)

val undo_bytes_all : Catalog.t -> int
(** Total approximate bytes retained across every table's undo window. *)

val pinned : unit -> int
val released : unit -> int
val fallbacks : unit -> int
(** Process counters: epochs pinned, released, and stale fallbacks. *)
