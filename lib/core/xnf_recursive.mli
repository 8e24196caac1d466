(** Fixpoint evaluation of recursive COs (paper Sect. 2): semi-naive
    iteration along the cycle's relationships until no new tuples
    qualify.  Also correct for acyclic graphs (used as a differential
    reference in the tests).

    Streams go through {!Xnf_ivm}, keyed by the skeleton's structural
    key; the versions are those of the base tables the fixpoint reads
    (never its delta tables). *)

val extract :
  ?snapshot:(Relcore.Base_table.t -> Relcore.Tuple.t option array) ->
  ?cache:bool ->
  Engine.Database.t ->
  Xnf_semantic.xnf_op ->
  Hetstream.t
(** [cache] (default: the [XNFDB_RESULT_CACHE_MB] knob) serves the
    stream through {!Xnf_ivm}; [false] always runs the fixpoint.  [snapshot] (see
    {!Executor.Exec.make_ctx}) reads base tables at the pinned epoch;
    it never reads or fills the cache. *)

val plans : Xnf_semantic.xnf_op -> (string * Optimizer.Plan.compiled) list
(** The fixpoint's seed plan per root, then its step plan per relationship. *)
