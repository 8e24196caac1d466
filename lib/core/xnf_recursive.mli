(** Fixpoint evaluation of recursive COs (paper Sect. 2): semi-naive
    iteration along the cycle's relationships until no new tuples
    qualify.  Also correct for acyclic graphs (used as a differential
    reference in the tests). *)

val extract : Engine.Database.t -> Xnf_semantic.xnf_op -> Hetstream.t

val plans : Xnf_semantic.xnf_op -> (string * Optimizer.Plan.compiled) list
(** The fixpoint's seed plan per root, then its step plan per relationship. *)
