(** Slotted in-memory row store.

    Rows live in stable slots identified by a row id ([rid]); deletion
    tombstones the slot and the slot is recycled by later inserts. *)

type rid = int

type delta_op = D_ins of rid * Tuple.t | D_del of rid * Tuple.t
(** One logged row change.  An update logs [D_del old; D_ins new] at the
    same version, keyed by the same slot. *)

type t

val create : unit -> t

val cardinality : t -> int
(** Live rows. *)

val capacity : t -> int
(** Slots ever allocated (live + tombstoned). *)

val clear : t -> unit
(** Drop every row and reset slot allocation, so refilling scans in
    insertion order exactly like a fresh heap.  Clears and floors the
    delta log: snapshots from before the clear are not replayable. *)

val version : t -> int
(** Monotonic mutation counter: bumped by every insert/update/delete (and
    by {!touch}), so [(heap, version)] identifies a snapshot of the
    contents.  Versions never repeat — undoing a change still advances. *)

val touch : t -> unit
(** Advance {!version} without changing contents (used by the txn layer
    so commit and rollback both invalidate version-keyed caches).
    Logs no delta: a version gap with no logged rows means "unchanged". *)

val committed_version : t -> int
(** Last version published by {!mark_committed} — the snapshot boundary
    MVCC-lite readers pin.  Equals {!version} exactly when no
    transaction holds unpublished writes. *)

val mark_committed : t -> unit
(** Publish the current {!version} as committed.  Callers serialize
    publication across tables (see [Snapshot.publish]) so a pinned
    version vector is a commit-consistent cut. *)

val frozen_at : t -> int -> Tuple.t option array option
(** Consistent copy of the slot array as of version [v], with post-[v]
    changes patched back to their pre-images from the retained delta
    log; [None] when the log can no longer answer for [v] (overflow or
    rollback hole) and the caller must fall back to a locked read.
    Safe to call while writers mutate the heap: capture is atomic under
    the internal heap mutex. *)

val undo_bytes : t -> int
(** Approximate bytes retained by the delta log (the undo window). *)

val deltas_since : t -> int -> (int * delta_op) list option
(** Row deltas logged after version [v], oldest first: [Some []] when
    nothing changed since, [None] when the log cannot answer for [v] —
    either the bounded log (capacity [XNFDB_DELTA_LOG], default 4096)
    overflowed past [v], or [v] was taken inside a transaction whose
    entries a {!delta_rewind} later discarded.  The caller must fall
    back to recomputation. *)

val delta_mark : t -> int
(** Current delta-log position, for {!delta_rewind}. *)

val delta_rewind : t -> int -> unit
(** Truncate the delta log back to a {!delta_mark} position — used by
    the txn layer to discard a rolled-back transaction's deltas after
    the undo ops appended their (net-zero) compensations.  Snapshots at
    or before the mark stay maintainable; the discarded version range
    is remembered so {!deltas_since} refuses snapshots taken inside the
    rolled-back transaction (they saw uncommitted state the log no
    longer records).  If the log overflowed after the mark was taken
    the position is stale (possibly negative): the rewind then
    conservatively discards whatever is still logged and widens the
    refusal hole over it, so affected readers fall back. *)

val insert : t -> Tuple.t -> rid
val get : t -> rid -> Tuple.t option
val get_exn : t -> rid -> Tuple.t
val update : t -> rid -> Tuple.t -> unit
val delete : t -> rid -> unit

val iter : (rid -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> rid -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> (rid * Tuple.t) list

val scan : t -> unit -> (rid * Tuple.t) option
(** Demand-driven cursor; skips tombstones and tolerates appends behind
    its position. *)

val scan_into :
  ?filter:(Tuple.t -> bool) ->
  t ->
  from:int ->
  Tuple.t array ->
  start:int ->
  max:int ->
  int * int
(** Batched scan: fill [out.(start .. start+max)] with live tuples
    beginning at slot [from], with no per-row allocation.  Returns
    [(next_slot, n_filled)]; skips tombstones like {!scan}.  [filter]
    (a push-down predicate such as a sideways join filter) sees every
    visited live tuple and drops failing rows before the output. *)
