(** The query evaluation system: demand-driven pipelined interpretation
    of QEPs ("table queue evaluation", paper Sect. 3.1), executed a
    {e batch} at a time.  The one-tuple API ({!cursor}, {!to_seq}) is a
    thin adapter over the batched pipeline. *)

open Relcore
module Plan = Optimizer.Plan

(** Execution context shared across the (possibly many) plans of one
    multi-output query: the CSE cache, the inner-materialization cache,
    and instrumentation counters. *)
type ctx = {
  shared : (int, Batch.t list) Hashtbl.t;
  mutable materialized : (Plan.t * Batch.t list) list;
      (* join inners materialized once per physical plan object *)
  batch_capacity : int; (* rows per batch for this query's table queues *)
  result_cache : bool; (* promote CSE materializations to Result_cache *)
  snapshot : (Base_table.t -> Tuple.t option array) option;
      (* MVCC-lite frozen view: all base-table access reads through it *)
  mutable rows_scanned : int; (* base-table tuples fetched *)
  mutable subqueries_run : int; (* correlated subplan executions *)
  mutable batches_emitted : int; (* batches delivered at plan roots *)
  mutable materializations : int; (* shared/inner drain runs (cache misses) *)
  mutable chunks_scanned : int; (* colstore chunks whose rows were visited *)
  mutable chunks_skipped : int; (* colstore chunks zone-pruned wholesale *)
  mutable rows_materialized : int; (* heap tuples fetched by columnar scans *)
  mutable jf_built : int; (* sideways join filters built *)
  mutable jf_chunks_skipped : int; (* probe chunks pruned by join-filter range *)
  mutable jf_rows_skipped : int; (* probe rows dropped by a join filter *)
  mutable jf_dropped : int; (* join filters adaptively disabled *)
  mutable analyze : Opstats.t option; (* EXPLAIN ANALYZE accumulator *)
}

exception Cached_batches of Batch.t list
(** {!Result_cache} payload constructor for materialized table queues
    (the executor's slice of the universal-type cache). *)

val make_ctx :
  ?batch_capacity:int ->
  ?result_cache:bool ->
  ?snapshot:(Base_table.t -> Tuple.t option array) ->
  unit ->
  ctx
(** [batch_capacity] defaults to [Batch.default_capacity ()] (the
    [XNFDB_BATCH_SIZE] knob), snapshotted at context creation so one
    query sees one stable batch size.  [result_cache] (default
    [Result_cache.enabled ()]) controls cross-query promotion of
    uncorrelated CSE materializations.

    [snapshot] makes the context an MVCC-lite reader: base-table scans
    and index-join probes read the given frozen slot-array view (see
    {!Relcore.Snapshot.rows}) instead of the live heap.  Columnar access
    paths and the cross-query result cache — both of which track live
    state — are bypassed.  Pass [result_cache:false] alongside so CSE
    promotion stays off.  Any access may raise {!Relcore.Snapshot.Stale}
    once the undo window has been outrun. *)

type iter = unit -> Tuple.t option
type batch_iter = unit -> Batch.t option

val drain_batches : batch_iter -> Batch.t list

val scan_victims : ctx -> Base_table.t -> Plan.ppred -> (Heap.rid * Tuple.t) list
(** UPDATE/DELETE victim finding through the executor's batch layer:
    every live row satisfying the predicate, descending by rid (the
    order mutation application historically used, which unique-violation
    timing observably depends on).  Uses the columnar path — zone-map
    chunk pruning included — when a conjunct compiles to a chunk kernel,
    and batched selection vectors otherwise. *)

val open_batches : ?ctx:ctx -> Plan.compiled -> batch_iter
(** Open a compiled plan as a demand-driven batch cursor (the table
    queue itself); counts delivered batches in [ctx.batches_emitted]. *)

val run_batches : ?ctx:ctx -> Plan.compiled -> Batch.t list
val run : ?ctx:ctx -> Plan.compiled -> Tuple.t list

val to_seq : batch_iter -> Tuple.t Seq.t
(** One-tuple-at-a-time adapter over a batch cursor. *)

val cursor : ?ctx:ctx -> Plan.compiled -> iter
(** Demand-driven one-tuple cursor (compat shim over {!open_batches}). *)
