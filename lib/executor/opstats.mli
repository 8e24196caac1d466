(** Per-operator execution statistics for EXPLAIN ANALYZE: stable
    preorder ids over one or more plans, inclusive wall time, output
    rows/batches, and the q-error report against the planner's own row
    estimates ({!Optimizer.Plan.estimate}).

    Recording discipline: the executor mutates ops directly, on the
    domain that runs the query. *)

module Plan = Optimizer.Plan

type op = {
  id : int;
  node : Plan.t;
  depth : int;
  section : int;
  est : float option;  (** planner's estimated output rows, if costed *)
  mutable opens : int;
  mutable rows : int;  (** actual output rows (selection applied) *)
  mutable batches : int;
  mutable wall : float;  (** inclusive wall seconds *)
}

type t = {
  sections : (string * Plan.t) array;
  ops : op array;
  mutable total_wall : float;
}

val now : unit -> float
(** Wall clock used for all attribution ([Unix.gettimeofday]). *)

val create : (string * Plan.compiled) list -> t
(** Number every node (children in EXPLAIN order, including predicate
    subplans) of each named plan, with the planner's estimate for it. *)

val create1 : Plan.compiled -> t
(** {!create} with one anonymous section. *)

val count : t -> int

val id_of : t -> Plan.t -> int
(** Physical-identity lookup; [-1] when the node is not numbered. *)

val note_open : t -> int -> float -> unit
val add_batch : t -> int -> dt:float -> rows:int -> unit
val add_time : t -> int -> float -> unit

val q_error : op -> float option
(** max(est/act, act/est), both floored at one row; [None] unestimated. *)

val worst_estimate : t -> op option
(** The opened, estimated op with the worst q-error, when that error
    exceeds 2x. *)

val render : t -> string
(** The EXPLAIN ANALYZE tree: every operator line annotated with
    est/act/q-error/time (an unestimated op shows [est=?] and no q-error),
    the worst estimate flagged. *)
