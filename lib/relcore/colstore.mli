(** Two-tier columnar chunk mirror of the slotted heap: hot chunks are
    per-column unboxed arrays with null bitmaps; cold chunks are
    encoded blocks (frame-of-reference/bit-packed ints, RLE, packed
    null bitmaps, dictionary codes for strings) in an unlinked
    mmap-backed spill file, evicted under the [XNFDB_COLSTORE_MB]
    budget with a clock sweep.  Positional with heap slots, so
    chunk-ascending scans visit rows in heap-scan order and the row
    store remains a byte-identical fallback.  Zone maps, the live
    bitmap and per-chunk live counts always stay resident and double as
    the block index: a chunk pruned by zones or join-filter ranges is
    never decoded or faulted in.  Maintenance runs inside the same
    {!Base_table} mutations that bump {!Heap.version}, so version-keyed
    caches invalidate any snapshot of zone-derived data automatically. *)

type t

val enabled : unit -> bool
(** The [XNFDB_COLSTORE] knob (default on; "0"/"false"/"off"/"no"
    disable).  Gates {e use} of the columnar path only — maintenance is
    always on, so the knob can be flipped mid-process. *)

val budget_bytes : unit -> int
(** The [XNFDB_COLSTORE_MB] knob as bytes: the per-table hot-tier
    budget.  0 (the default) disables spilling — every chunk stays
    hot. *)

val create : Schema.t -> t
(** Chunk size comes from [XNFDB_CHUNK_ROWS] (default 1024, min 16). *)

val chunk_rows : t -> int
val n_chunks : t -> int
(** Chunks covering every slot ever used (mirrors {!Heap.capacity}). *)

val live_in_chunk : t -> int -> int

val clear : t -> unit
(** Reset to empty, keeping the string dictionary.  Drops all chunk
    arrays and closes the spill file (its storage is reclaimed — the
    file is unlinked at creation). *)

val release : t -> unit
(** Drop tier state and close the spill file for good (DDL drop).
    Idempotent; also registered as a GC finaliser so unreferenced
    stores cannot leak a spill mapping. *)

(** {1 Maintenance} — called by {!Base_table} on every DML. *)

val insert : t -> Heap.rid -> Tuple.t -> unit
val delete : t -> Heap.rid -> Tuple.t -> unit
(** The tuple is the old row (needed to retire its zone contribution).
    Deletes touch only resident state — a cold chunk stays cold. *)

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
    chunk can pass the conjunction.  Reads only resident state — never
    faults a cold chunk in. *)

(** {1 Scan-side fault accounting}

    Read paths never bump process-wide counters directly (parallel
    workers would race); they accumulate into a caller-owned
    [scan_stats] that the executor folds into its context and
    {!add_totals}. *)

type scan_stats = { mutable faulted : int; mutable fbytes : int }

val scan_stats : unit -> scan_stats

val select_chunk : ?stats:scan_stats -> t -> catom array -> int -> int array -> int
(** [select_chunk t katoms chunk sel] fills [sel] with the slot ids of
    live rows passing every atom, ascending, and returns the count.
    [sel] must have room for {!chunk_rows} entries.  Cold chunks are
    evaluated directly on their encoded sections (constant/FOR compare,
    RLE run skipping) and stay cold; each referenced column's section
    copy is counted in [stats]. *)

val pin : t -> int -> unit
(** Exclude chunk [c] from eviction while a scan holds its arrays or
    sections.  Counted; pair every {!pin} with an {!unpin}. *)

val unpin : t -> int -> unit

(** {1 Direct column access} (join-key extraction) *)

val int_key_col : t -> int -> bool
(** Whether column [ci] is [Tint] — extractable via {!key_chunk}. *)

val str_key_col : t -> int -> bool
(** Whether column [ci] is [Tstr] — {!key_chunk} then yields dictionary
    codes (equality only; see {!dict_string}). *)

type reader
(** Per-scan decode scratch for {!key_chunk}, reused across cold chunks
    so key extraction allocates nothing per chunk. *)

val reader : t -> reader

val key_chunk : ?stats:scan_stats -> t -> reader -> int -> int -> int array * Bytes.t * int
(** [key_chunk t r ci chunk] is [(data, nulls, base)]: the ints (or
    dictionary codes) and null bitmap of column [ci] in [chunk],
    indexed chunk-locally — cell of slot [s] is [data.(s - base)].  Hot
    chunks return their backing arrays; cold chunks decode into [r]
    (invalidated by the next call on [r]) and count the section copy in
    [stats].  Only slots where {!is_live} holds are meaningful. *)

val bit_get : Bytes.t -> int -> bool
(** Test bit [i] of a bitmap returned by {!key_chunk}. *)

val is_live : t -> Heap.rid -> bool

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

(** {1 Tier gauges} *)

val resident_bytes : t -> int
(** Bytes held by materialized hot chunks of this store. *)

val spilled_bytes : t -> int
(** Encoded bytes currently in this store's spill file. *)

val cold_chunks : t -> int
val hot_chunk_bytes : t -> int
(** Hot bytes per materialized chunk (a schema constant). *)

val cold_fraction : t -> float
(** Fraction of used chunks currently cold — the planner's cold-access
    signal.  0 whenever spilling is off. *)

val global_resident_bytes : unit -> int
val global_spilled_bytes : unit -> int
(** Process-wide tier gauges across every live store (EXPLAIN's spill line). *)

(** {1 Encodings} (exposed for property tests) *)

module Encoding : sig
  val encode_ints : ?raw:bool -> int array -> null:(int -> bool) -> live:(int -> bool) -> Bytes.t
  (** Encode one chunk-column of ints.  [raw] forces the uncompressed
      layout (the test oracle for decoding raw blocks); otherwise the smallest of raw64 / frame-of-reference /
      RLE is chosen.  Dead and NULL cells are don't-care (normalized to
      the nearest preceding live value). *)

  val decode_ints : Bytes.t -> n:int -> int array * Bytes.t
  (** [(values, null_bitmap)] for all [n] positions; cells that were
      dead or NULL at encode time hold the encoder's filler value. *)

  val encode_floats : float array -> null:(int -> bool) -> live:(int -> bool) -> Bytes.t
  (** Floats are stored as IEEE bit patterns (raw64 or RLE — no FOR),
      so NaN payloads and [-0.0] round-trip bit-exactly. *)

  val decode_floats : Bytes.t -> n:int -> float array * Bytes.t

  val data_tag : Bytes.t -> int
  (** 0 raw64, 1 frame-of-reference, 2 RLE. *)
end

(** {1 Process-wide counters} (surfaced by [explain]) *)

type counters = {
  mutable chunks_scanned : int;
  mutable chunks_skipped : int;
  mutable rows_materialized : int;
  mutable chunks_encoded : int;
  mutable chunks_decoded : int;
  mutable chunks_faulted : int;
  mutable chunks_evicted : int;
  mutable bytes_spilled : int;
  mutable bytes_faulted : int;
}

val totals : counters

val add_totals :
  ?faulted:int -> ?fbytes:int -> scanned:int -> skipped:int -> materialized:int -> unit -> unit
