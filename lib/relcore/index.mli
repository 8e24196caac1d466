(** Hash index over a base table: key (sub-tuple of the indexed
    columns) to the rids holding that key.  Postings are growable int
    arrays; probing with {!iter} allocates nothing. *)

type posting = { mutable rids : Heap.rid array; mutable n : int }
(** Rids live in [rids.(0 .. n-1)], sorted ascending; [iter]/[lookup]
    present them descending.  The layout is a pure function of the row
    set (no insertion history), so snapshot readers can reproduce the
    probe order from a frozen slot array alone. *)

type t = {
  name : string;
  key_columns : int array; (* positions within the table schema *)
  unique : bool;
  entries : posting Tuple.Tbl.t;
}

val create : name:string -> key_columns:int array -> unique:bool -> t

val clear : t -> unit
(** Drop every posting. *)

val key_of : t -> Tuple.t -> Tuple.t

val iter : t -> Tuple.t -> (Heap.rid -> unit) -> unit
(** Apply to every rid under [key], descending rid, without allocating —
    the probe primitive for index joins. *)

val lookup : t -> Tuple.t -> Heap.rid list
(** Descending-rid list (allocates; prefer {!iter} on hot paths). *)

val mem : t -> Tuple.t -> bool
(** Any rid under this key?  Allocation-free unique-violation probe. *)

val mem_tuple : t -> Tuple.t -> bool

val insert : t -> Heap.rid -> Tuple.t -> unit
(** Raises on unique violation. *)

val remove : t -> Heap.rid -> Tuple.t -> unit

val cardinality : t -> int
(** Number of distinct keys. *)
