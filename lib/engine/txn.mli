(** Transactions over the storage layer: an in-memory undo log (the
    substrate the paper keeps "totally unchanged" underneath XNF). *)

open Relcore

type undo =
  | U_insert of Base_table.t * Heap.rid (* undo: delete the row *)
  | U_update of Base_table.t * Heap.rid * Tuple.t (* undo: restore old row *)
  | U_delete of Base_table.t * Tuple.t (* undo: reinsert the row *)

type t

val create : unit -> t
val is_active : t -> bool

val begin_txn : t -> unit
(** Raises when a transaction is already in progress. *)

val record : t -> undo -> unit
(** Record an undo entry (no-op outside a transaction).  Call it right
    after the write it undoes: the txn's first entry per table locates
    the pre-txn delta-log mark from the entries that write appended. *)

val commit : t -> unit
val rollback : t -> unit

val atomically : t -> (unit -> 'a) -> 'a
(** Begin, run, commit; roll back and re-raise on any exception. *)
