(** The XNF compilation and extraction pipeline (paper Fig. 2 / Fig. 7):
    parse, XNF semantics, XNF semantic rewrite, shared NF rule rewrite,
    plan optimization with cross-output CSE, set-oriented execution into
    the heterogeneous stream. *)

open Relcore
module Plan = Optimizer.Plan
module Db = Engine.Database

type compiled = {
  db : Db.t;
  ast : Xnf_ast.query;
  op : Xnf_semantic.xnf_op;
  rewritten : Xnf_rewrite.result;
  plans : (string * Plan.compiled) list; (* nodes first, derivation order *)
  header : Hetstream.header;
  rewrite_stats : Starq.Engine.stats;
  recursive : bool;
}

val compile_ast :
  ?share:bool -> ?nf_rewrite:bool -> Db.t -> Xnf_ast.query -> compiled
(** [share] enables common-subexpression sharing (the Table-1 ablation);
    [nf_rewrite] runs the shared NF rule engine. *)

exception Cached_compiled of compiled
(** Plugin-cache payload constructor for compiled XNF queries (stored in
    [Db.plugin_cache_*], invalidated with the plan cache on DDL). *)

val compile :
  ?share:bool -> ?nf_rewrite:bool -> ?cache:bool -> Db.t -> string -> compiled
(** Goes through the database's compiled-query cache keyed by normalized
    text × flags; [cache] (default [true]) bypasses it when [false]. *)

val assemble : compiled -> (string -> Batch.t list) -> Hetstream.t
(** Assemble the stream from per-output table queues (batch lists,
    consumed without flattening): id assignment (object sharing) and
    connection resolution. *)

exception Cached_stream of Hetstream.t
(** A bare-stream {!Executor.Result_cache} payload, for callers that
    cache extractions themselves under {!stream_cache_key}; the
    library's own entries are {!Xnf_ivm}'s. *)

val stream_cache_key : compiled -> string option
(** A versioned key for a whole extraction: the CO's {!Xnf_ivm.key}
    plus the current version of every table its plans read (looked up
    fresh on each call, so DML moves it).  [None] for recursive COs. *)

val extract : ?ctx:Executor.Exec.ctx -> ?cache:bool -> compiled -> Hetstream.t
(** Sequential extraction; dispatches to the fixpoint evaluator for
    recursive COs (which honours a snapshot [ctx] and [cache] the same
    way).  [cache] (default: the [XNFDB_RESULT_CACHE_MB] knob)
    consults the cross-query result cache — a warm repeat returns the
    previously assembled stream without touching the executor, and a
    read after a value-only check-in patches it ({!Xnf_ivm}).  Passing
    a snapshot-bearing [ctx] (see {!Executor.Exec.make_ctx}) forces the
    cache off: its entries follow live versions, not the reader's
    pinned epoch. *)

val run :
  ?share:bool ->
  ?nf_rewrite:bool ->
  ?cache:bool ->
  ?ctx:Executor.Exec.ctx ->
  Db.t ->
  string ->
  Hetstream.t
(** Compile and extract in one call; [cache] governs both the
    compiled-query cache and the result cache.  [ctx] is handed to
    {!extract} (a snapshot-bearing ctx turns the result cache off; the
    compiled-query cache stays on — plans are version-independent). *)

val view_text : Db.t -> string -> string
(** The stored text of an XNF view (errors on SQL views / unknown
    names) — lets analysis paths re-enter with query text. *)

val run_view :
  ?share:bool ->
  ?nf_rewrite:bool ->
  ?cache:bool ->
  ?ctx:Executor.Exec.ctx ->
  Db.t ->
  string ->
  Hetstream.t
(** Compile and extract a stored XNF view by name. *)

val expand_component : Catalog.t -> view:string -> component:string -> Starq.Qgm.box
(** [view.component] table-reference expansion (model closure); also
    registered with {!Starq.Build.xnf_component_expander} at link time.
    Rejects cyclic view chains. *)

val explain : Db.t -> string -> string
(** The XNF operator, the rewritten graphs and the plans with their
    sharing structure. *)

val explain_analyze : Db.t -> string -> string
(** Execute the extraction under an instrumented context and report
    per-operator estimated vs actual rows, q-error and inclusive wall
    time, one section per output plan.  Bypasses the result cache so the
    plans actually run. *)
