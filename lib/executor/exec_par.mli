(** Morsel-parallel execution on OCaml 5 domains: a driver that runs
    {!Exec}'s own pipelines over slot-range morsels of their driving
    table and concatenates the outputs in morsel order, so results are
    bit-identical to {!Exec}.  Join tables are built once on the calling
    domain; blocking operators run serially over their input drained in
    parallel.  Plans with correlated subplan probes or a LIMIT run in
    {!Exec} as they are. *)

open Relcore
module Plan = Optimizer.Plan

val parallelizable : Plan.t -> bool
(** Will {!run_batches} fan this plan out?  A cheap syntactic check for
    schedulers; a mispredict only affects scheduling, never results. *)

val run_batches :
  ?ctx:Exec.ctx ->
  ?domains:int ->
  ?morsel_rows:int ->
  ?threshold:int ->
  Plan.compiled ->
  Batch.t list
(** Drain a compiled plan across the shared domain pool.  [domains]
    defaults to [Pool.default_domains ()]; [morsel_rows] forces the
    morsel size in slots (default: ~8 morsels per domain, in whole
    colstore chunks when the colstore may serve the scan);
    [threshold] (default [Cost.parallel_threshold_rows]) is the
    source-row count below which a pipeline runs inline.  Row order is
    identical to {!Exec.run_batches}. *)

val run :
  ?ctx:Exec.ctx ->
  ?domains:int ->
  ?morsel_rows:int ->
  ?threshold:int ->
  Plan.compiled ->
  Tuple.t list
