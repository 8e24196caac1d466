(** Table statistics for the cost model.  Per-column distinct-value
    counts (NDV) read an index's maintained distinct-key count when the
    column is the whole key of an index, and otherwise a full scan
    cached until the table's version counter moves (any DML
    invalidates, including UPDATEs that keep the row count).  Scan
    cache entries die with their table. *)

open Relcore

val column_ndv : Base_table.t -> int -> int
(** Distinct values in a column, NULL counted once.  O(1) when an index
    has exactly this column as its key; otherwise O(rows) on the first
    call after any DML to the table. *)

val eq_const_selectivity : Base_table.t -> int -> float

val eq_join_selectivity : Base_table.t -> int -> Base_table.t -> int -> float
(** The classic 1 / max(ndv_left, ndv_right). *)

val column_range : Base_table.t -> int -> (Value.t * Value.t) option
(** Zone-derived [lo, hi] of a numeric column over live rows (possibly
    conservative).  [None] when [XNFDB_COLSTORE] is off or the column
    has no numeric bounds. *)

val null_fraction : Base_table.t -> int -> float option
(** Fraction of live rows with NULL in the column, from zone null
    counts.  [None] when [XNFDB_COLSTORE] is off or the table is
    empty. *)

val cached_tables : unit -> int
(** Tables that currently hold scan-cache entries (live ones only). *)
