(** Fixpoint evaluation of recursive COs (paper Sect. 2): semi-naive
    iteration along the cycle's relationships until no new tuples
    qualify.  Also correct for acyclic graphs (used as a differential
    reference in the tests).

    Streams are cached in {!Executor.Result_cache} under the skeleton's
    structural key and the version of every base table the fixpoint
    reads (never its delta tables).  A version miss patches the last
    stream when every change since it is a value-only update of columns
    the CO reads only as values, moving the updated rows' tuple ids to
    their new values; any other change reruns the fixpoint.  Hits,
    patches and fixpoint runs are counted in {!Xnf_ivm.stats}. *)

val extract :
  ?snapshot:(Relcore.Base_table.t -> Relcore.Tuple.t option array) ->
  ?cache:bool ->
  Engine.Database.t ->
  Xnf_semantic.xnf_op ->
  Hetstream.t
(** [cache] (default: the [XNFDB_RESULT_CACHE_MB] knob) serves the
    stream from the result cache or from a patch of the last one;
    [false] always runs the fixpoint.  [snapshot] (see
    {!Executor.Exec.make_ctx}) reads base tables at the pinned epoch;
    it never reads or fills the cache. *)

val plans : Xnf_semantic.xnf_op -> (string * Optimizer.Plan.compiled) list
(** The fixpoint's seed plan per root, then its step plan per relationship. *)
