(** Per-operator execution statistics for EXPLAIN ANALYZE: stable
    preorder ids over one or more plans, inclusive wall time, output
    rows/batches, a plan-level row estimator and the q-error report.

    Recording discipline: the executor mutates ops directly (one
    domain); each morsel worker records into its own {!like} copy, which
    {!merge} folds in single-threaded after the fan-out. *)

module Plan = Optimizer.Plan

type op = {
  id : int;
  node : Plan.t;
  depth : int;
  section : int;
  est : float;  (** estimated output rows *)
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

val est_rows : Plan.t -> float
(** Plan-level output-row estimate (textbook constants, aligned with
    [Cost]'s). *)

val create : (string * Plan.t) list -> t
(** Number every node (children in EXPLAIN order, including predicate
    subplans) of each named root. *)

val create1 : Plan.t -> t
(** {!create} with one anonymous section. *)

val count : t -> int

val id_of : t -> Plan.t -> int
(** Physical-identity lookup; [-1] when the node is not numbered. *)

val note_open : t -> int -> float -> unit
val add_batch : t -> int -> dt:float -> rows:int -> unit
val add_time : t -> int -> float -> unit
val add_rows : t -> int -> int -> unit

val like : t -> t
(** A zeroed accumulator over the same numbered operators. *)

val merge : into:t -> t -> unit
(** Add a {!like} copy's opens, rows, batches and time in; the caller
    must be single-threaded. *)

val q_error : op -> float
(** max(est/act, act/est), both floored at one row. *)

val worst_estimate : t -> op option
(** The opened op with the worst q-error, when that error exceeds 2x. *)

val render : t -> string
(** The EXPLAIN ANALYZE tree: every operator line annotated with
    est/act/q-error/time, the worst estimator flagged. *)
