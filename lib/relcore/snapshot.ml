(** MVCC-lite snapshot epochs over the per-table version counters and
    retained delta (undo) logs.

    A {e publish} marks each touched table's current version as
    committed; a {e pin} captures the committed-version vector of every
    table in a catalog.  Both run under one global mutex, so a pinned
    vector is always a commit-consistent cut: it can never observe half
    of a multi-table commit.

    Readers materialize a table's rows at the pinned version lazily via
    {!rows}: a consistent copy of the slot array with post-pin changes
    patched back to their pre-images out of the heap's delta log
    ({!Heap.frozen_at}).  Writers never block on readers and readers
    never take the process rwlock.  When the bounded log can no longer
    answer for a pinned version (overflow past it, or a rollback hole),
    {!rows} raises {!Stale} and the caller falls back to a locked read
    — snapshot reads are an optimization, never load-bearing for
    correctness. *)

exception Stale

(* One global publication lock: commits publish their touched tables and
   pins capture version vectors under it, making every pin a
   commit-consistent cut across tables. *)
let publish_mu = Mutex.create ()

let epochs_pinned = Atomic.make 0
let epochs_released = Atomic.make 0
let stale_fallbacks = Atomic.make 0
let epoch_ctr = Atomic.make 0

let publish tables =
  Mutex.protect publish_mu (fun () ->
      List.iter Base_table.mark_committed tables)

(** Bump every table's version and publish the results in one critical
    section (the txn-boundary primitive): a concurrent {!pin} — or any
    version-vector capture under {!publish_mu} — sees all of the txn's
    tables moved, or none. *)
let bump_and_publish tables =
  Mutex.protect publish_mu (fun () ->
      List.iter
        (fun t ->
          Base_table.bump_version t;
          Base_table.mark_committed t)
        tables)

let publish_catalog cat = publish (Catalog.tables cat)

type t = {
  epoch : int; (* process-unique pin id, for stats / diagnostics *)
  versions : (int, int) Hashtbl.t; (* tid -> pinned committed version *)
  frozen : (int, Tuple.t option array) Hashtbl.t; (* tid -> pre-image *)
  fmu : Mutex.t; (* guards the lazy freeze: a pin may be read from any domain *)
}

let pin cat =
  Mutex.protect publish_mu (fun () ->
      let tables = Catalog.tables cat in
      let versions = Hashtbl.create (max 8 (List.length tables)) in
      List.iter
        (fun t ->
          Hashtbl.replace versions (Base_table.tid t)
            (Base_table.committed_version t))
        tables;
      Atomic.incr epochs_pinned;
      {
        epoch = Atomic.fetch_and_add epoch_ctr 1;
        versions;
        frozen = Hashtbl.create 8;
        fmu = Mutex.create ();
      })

let epoch s = s.epoch

(* Epoch accounting only: frozen arrays are plain GC'd values and the
   undo window is bounded by the delta-log capacity, not by open pins. *)
let release _s = Atomic.incr epochs_released

(** Rows of [table] at the pinned epoch, as a slot-indexed array
    ([None] = tombstone).  Computed once per (pin, table) and cached;
    raises {!Stale} when the undo window cannot reconstruct the pinned
    version (caller falls back to a locked read). *)
let rows s table =
  let tid = Base_table.tid table in
  Mutex.protect s.fmu (fun () ->
      match Hashtbl.find_opt s.frozen tid with
      | Some arr -> arr
      | None ->
        let v =
          match Hashtbl.find_opt s.versions tid with
          | Some v -> v
          | None ->
            (* table created after the pin: unanswerable *)
            Atomic.incr stale_fallbacks;
            raise Stale
        in
        (match Base_table.frozen_at table v with
        | Some arr ->
          Hashtbl.add s.frozen tid arr;
          arr
        | None ->
          Atomic.incr stale_fallbacks;
          raise Stale))

(** Total bytes retained across every table's undo window. *)
let undo_bytes_all cat =
  List.fold_left
    (fun acc t -> acc + Base_table.undo_bytes t)
    0 (Catalog.tables cat)

let pinned () = Atomic.get epochs_pinned
let released () = Atomic.get epochs_released
let fallbacks () = Atomic.get stale_fallbacks
