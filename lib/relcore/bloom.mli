(** Build-side join filters for sideways information passing: a blocked
    Bloom filter over int keys (64-byte blocks in unboxed [Bytes]),
    an exact key range [lo, hi], and an exact small-key-set fast path.

    A filter is populated from the build side of a hash join and pushed
    into the probe scan.  [mem] answering [false] means the key is
    {e definitely} absent from the build side, so the probe row cannot
    join and may be skipped before materialization; [true] may be a
    false positive, which the hash-table lookup itself resolves —
    filtering is therefore output-preserving by construction. *)

type t

val create : expected:int -> t
(** An empty filter sized for [expected] distinct keys (~12 bits/key,
    rounded up to a power-of-two block count). *)

val add : t -> int -> unit

val mem : t -> int -> bool
(** [false] is definitive; [true] may be a false positive.  An empty
    filter answers [false] for every key. *)

val nkeys : t -> int
(** Number of [add]s folded in; 0 iff empty. *)

val range : t -> (int * int) option
(** Exact [lo, hi] over every added key; [None] when empty. *)

val is_exact : t -> bool
(** Whether the small-set fast path is still live, making [mem] exact
    (no false positives at all). *)

(** {1 Adaptive disabling} *)

val adaptive_sample : int
(** Probe rows to observe before judging a filter's usefulness. *)

val drop_threshold : float
(** Observed pass-rate above which the per-row test is disabled. *)

(** {1 Process-wide counters} (surfaced by [explain]) *)

type counters = {
  mutable filters_built : int;
  mutable chunks_skipped : int;  (** probe chunks zone-pruned by the key range *)
  mutable rows_skipped : int;  (** probe rows dropped before materialization *)
  mutable filters_dropped : int;  (** filters adaptively disabled at runtime *)
}

val totals : counters

val add_totals :
  built:int -> chunks:int -> rows:int -> dropped:int -> unit
