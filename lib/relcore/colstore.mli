(** Columnar chunk mirror of the slotted heap: each chunk holds
    per-column unboxed arrays with null bitmaps (dictionary codes for
    strings).  Positional with heap slots, so chunk-ascending scans
    visit rows in heap-scan order and the row store remains a
    byte-identical fallback.  Zone maps, the live bitmap and per-chunk
    live counts form the block index: a chunk pruned by zones or
    join-filter ranges is never read.  Maintenance runs inside the same
    {!Base_table} mutations that bump {!Heap.version}, so version-keyed
    caches invalidate any snapshot of zone-derived data automatically. *)

type t

val enabled : unit -> bool
(** The [XNFDB_COLSTORE] knob (default on; "0"/"false"/"off"/"no"
    disable).  Gates {e use} of the columnar path only — maintenance is
    always on, so the knob can be flipped mid-process. *)

val create : Schema.t -> t
(** Chunk size comes from [XNFDB_CHUNK_ROWS] (default 1024, min 16). *)

val chunk_rows : t -> int
val n_chunks : t -> int
(** Chunks covering every slot ever used (mirrors {!Heap.capacity}). *)

val live_in_chunk : t -> int -> int

val clear : t -> unit
(** Reset to empty, keeping the string dictionary.  Drops all chunk
    arrays. *)

(** {1 Maintenance} — called by {!Base_table} on every DML. *)

val insert : t -> Heap.rid -> Tuple.t -> unit
val delete : t -> Heap.rid -> Tuple.t -> unit
(** The tuple is the old row (needed to retire its zone contribution). *)

val update : t -> Heap.rid -> old:Tuple.t -> Tuple.t -> unit

(** {1 Predicate atoms}

    An [atom] is one conjunct of a scan predicate restricted to
    column-vs-constant shape.  {!compile} turns a conjunction into
    chunk kernels; it fails (returns [None]) when any atom needs
    semantics the unboxed loops cannot reproduce exactly — the caller
    keeps such conjuncts in its residual row predicate. *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type atom =
  | A_cmp of int * cmp * Value.t
  | A_is_null of int
  | A_not_null of int

type catom

val compile_atom : t -> atom -> catom option
val compile : t -> atom list -> catom array option

val prune_chunk : t -> catom array -> int -> bool
(** Conservative: [true] means the zone maps certify no row of the
    chunk can pass the conjunction.  Reads only zones and live counts. *)

val select_chunk : t -> catom array -> int -> int array -> int
(** [select_chunk t katoms chunk sel] fills [sel] with the slot ids of
    live rows passing every atom, ascending, and returns the count.
    [sel] must have room for {!chunk_rows} entries. *)

(** {1 Direct column access} (join-key extraction) *)

val int_key_col : t -> int -> bool
(** Whether column [ci] is [Tint] — extractable via {!key_chunk}. *)

val str_key_col : t -> int -> bool
(** Whether column [ci] is [Tstr] — {!key_chunk} then yields dictionary
    codes (equality only; see {!dict_string}). *)

val key_chunk : t -> int -> int -> int array * Bytes.t * int
(** [key_chunk t ci chunk] is [(data, nulls, base)]: the chunk's own
    ints (or dictionary codes) and null bitmap of column [ci], indexed
    chunk-locally — cell of slot [s] is [data.(s - base)].  Only for a
    chunk with live rows; only the cells of live slots (those
    {!select_chunk} yields) are meaningful. *)

val bit_get : Bytes.t -> int -> bool
(** Test bit [i] of a bitmap returned by {!key_chunk}. *)

(** {1 Dictionary} *)

val dict_find : t -> string -> int option
val dict_size : t -> int
val dict_string : t -> int -> string

(** {1 Column statistics} (planner selectivity) *)

val col_range : t -> int -> (Value.t * Value.t) option
(** Aggregated zone bounds of a numeric column over live rows; possibly
    conservative (never narrower than the data).  [None] for strings,
    bools, and all-null/empty columns. *)

val col_null_count : t -> int -> int
(** Live rows holding NULL in the column. *)

val col_tight : t -> int -> bool
(** Whether every chunk's bounds are exact (no un-retired widening). *)

(** {1 Process-wide counters} (surfaced by [explain]) *)

type counters = {
  mutable chunks_scanned : int;
  mutable chunks_skipped : int;
  mutable rows_materialized : int;
}

val totals : counters

val add_totals : scanned:int -> skipped:int -> materialized:int -> unit
