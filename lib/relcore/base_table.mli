(** A base table: schema + heap storage + secondary indexes + optional
    primary key. *)

type t = {
  name : string;
  tid : int; (* process-unique table id; names can collide across databases *)
  schema : Schema.t;
  heap : Heap.t;
  colstore : Colstore.t; (* columnar mirror, maintained on every DML *)
  mutable indexes : Index.t list;
  primary_key : int array option;
}

val create : ?primary_key:string list -> name:string -> Schema.t -> t
(** A primary key implies a unique index named ["<table>_pkey"]. *)

val name : t -> string

val tid : t -> int
(** Process-unique table id — the stable cache-key component (table
    names can collide across databases in one process). *)

val schema : t -> Schema.t
val cardinality : t -> int

val version : t -> int
(** The heap's monotonic mutation counter (see {!Heap.version});
    version-keyed caches compare it to detect any DML since fill. *)

val bump_version : t -> unit
(** Advance {!version} without changing contents (txn commit/rollback
    hook). *)

val committed_version : t -> int
(** Last published (committed) version — the snapshot boundary MVCC-lite
    readers pin (see {!Heap.committed_version}). *)

val mark_committed : t -> unit
(** Publish the current {!version} as committed (see
    {!Heap.mark_committed}; call through [Snapshot.publish] so the
    publication is atomic across tables). *)

val frozen_at : t -> int -> Tuple.t option array option
(** Consistent pre-image of the slot array as of version [v] (see
    {!Heap.frozen_at}); [None] when the undo window no longer reaches
    back to [v]. *)

val undo_bytes : t -> int
(** Approximate bytes retained by the delta log / undo window. *)

val deltas_since : t -> int -> (int * Heap.delta_op) list option
(** Row deltas logged after version [v] (see {!Heap.deltas_since});
    [None] once the bounded per-table delta log overflowed past [v]. *)

val delta_mark : t -> int
val delta_rewind : t -> int -> unit

val index_on : t -> int array -> Index.t option
(** The index whose key is exactly the given column positions. *)

val create_index :
  t -> idx_name:string -> columns:string list -> unique:bool -> Index.t
(** Backfills from existing rows; raises on duplicate index name or, for
    unique indexes, on duplicate keys. *)

val insert : t -> Value.t array -> Heap.rid
(** Validates against the schema and every unique index before changing
    state. *)

val get : t -> Heap.rid -> Tuple.t option
val get_exn : t -> Heap.rid -> Tuple.t
val update : t -> Heap.rid -> Value.t array -> unit
val delete : t -> Heap.rid -> unit

val iter : (Heap.rid -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> Heap.rid -> Tuple.t -> 'a) -> 'a -> t -> 'a
val scan : t -> unit -> (Heap.rid * Tuple.t) option

val scan_into :
  ?filter:(Tuple.t -> bool) ->
  t ->
  from:int ->
  Tuple.t array ->
  start:int ->
  max:int ->
  int * int
(** Batched scan into a caller-supplied row array (see
    {!Heap.scan_into}): returns [(next_slot, n_filled)].  [filter]
    drops failing rows before they reach the output array. *)

val slot_count : t -> int
(** Slots ever allocated (live rows may be fewer; tombstones are
    skipped). *)

val to_list : t -> (Heap.rid * Tuple.t) list

val truncate : t -> unit
