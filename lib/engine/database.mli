(** The database engine facade: parse → QGM → rewrite → plan → execute,
    plus DDL/DML and transactions — the "integrated DBMS" of the paper
    (Sect. 3) that the XNF extension plugs into. *)

open Relcore
module Ast = Sqlkit.Ast
module Plan = Optimizer.Plan

type t

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Done of string

val create : unit -> t

val session : t -> t
(** A session-scoped handle onto the same database: shares the catalog
    (tables, views, indexes, columnar mirrors) but has its own transaction
    and its own prepared-plan/plugin caches — what each server
    connection gets.  DDL executed through one session invalidates only
    that session's plan caches; the server layer broadcasts the
    invalidation to its other sessions. *)

val catalog : t -> Catalog.t
val txn : t -> Txn.t

val atomically : t -> (unit -> 'a) -> 'a
(** Run [f] as one atomic transaction against this database. *)

(** {2 Caches}

    Two levels.  (1) A per-database {e prepared-plan cache}: normalized
    query text × ablation flags → compiled plan, so repeat queries skip
    parse → QGM → rewrite → join ordering (invalidated by any DDL).
    (2) The process-wide {!Executor.Result_cache} of materialized
    results, keyed by plan fingerprint × per-table version counters
    ([XNFDB_RESULT_CACHE_MB] budget; DML invalidates by version
    drift). *)

val normalize_query_text : string -> string
(** Whitespace-collapsed, trimmed cache-key form of query text (string
    literals kept verbatim). *)

val invalidate_plans : t -> unit
(** Drop every prepared plan and plugin-cached compilation (DDL hook). *)

val plugin_cache_find : t -> string -> exn option
val plugin_cache_store : t -> string -> exn -> unit
(** Compiled-object cache slot for layers above the engine (the XNF
    compiler); cleared together with the plan cache on DDL, and counted
    in the same plan hit/miss statistics.  Callers namespace their keys
    and match their own exception constructor. *)

type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  plan_entries : int; (* prepared plans + plugin-cached compilations *)
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  result_entries : int;
  result_bytes : int;
}

val cache_stats : t -> cache_stats
(** Plan-cache counters are per-database; result-cache counters are the
    process-wide {!Executor.Result_cache.stats}. *)

(** {2 Query pipeline} *)

val compile_ast : ?rewrite:bool -> ?share:bool -> t -> Ast.query -> Plan.compiled
(** [rewrite] and [share] are the benchmark ablation switches. *)

val compile_query :
  ?rewrite:bool -> ?share:bool -> ?cache:bool -> t -> string -> Plan.compiled
(** Goes through the prepared-plan cache; [cache] (default [true])
    bypasses it when [false]. *)

val query_batches :
  ?rewrite:bool -> ?share:bool -> ?ctx:Executor.Exec.ctx -> ?cache:bool ->
  t -> string -> Schema.t * Batch.t list
(** Run a SELECT and return schema + result batches — the table queue
    itself, without flattening to a row list. *)

val query :
  ?rewrite:bool -> ?share:bool -> ?ctx:Executor.Exec.ctx -> ?cache:bool ->
  t -> string -> Schema.t * Tuple.t list

val query_rows :
  ?rewrite:bool -> ?share:bool -> ?ctx:Executor.Exec.ctx -> ?cache:bool ->
  t -> string -> Tuple.t list

val explain : t -> string -> string
(** Rewritten QGM, rule firings, the chosen plan, and per-statement
    cache/colstore/join-filter counters (deltas over this statement's
    window, not process totals). *)

val explain_analyze : t -> string -> string
(** Compile (through the prepared-plan cache), execute with
    per-operator attribution armed, and report estimated vs actual rows,
    inclusive wall time and q-error for every operator — flagging the
    worst estimator — plus this statement's counter deltas. *)

val mark_statement : t -> unit
(** Open a new per-statement counter window (snapshot the monotone
    cache/colstore/join-filter counters).  [explain]/[explain_analyze]
    call it themselves; layers with their own front ends (the XNF
    compiler) call it before rendering counter deltas. *)

val counter_sections : t -> string
(** Render the current statement window's cache/colstore/join-filter
    sections (deltas since {!mark_statement}; entry counts and byte
    totals are gauges). *)

(** {2 Statements} *)

val component_dml_translator :
  (Catalog.t -> view:string -> component:string -> Ast.stmt -> Ast.stmt option)
  option
  ref
(** Hook translating DML on a [view.component] target into DML on the
    base table; registered by [Xnf.Updatability] at link time. *)

val exec_stmt : t -> Ast.stmt -> result

val exec : t -> string -> result
(** Execute one statement given as text.  [EXPLAIN <query>] and
    [EXPLAIN ANALYZE <query>] prefixes are peeled here (front-end
    affordance, not grammar). *)

val split_script : string -> string list
(** Split a script on top-level ';' (string literals and [--] comments
    respected). *)

val exec_script : t -> string -> result list
(** Run a batch of ';'-separated statements. *)

val find_table : t -> string -> Base_table.t

val render : Schema.t -> Tuple.t list -> string
(** Aligned text table for display. *)
