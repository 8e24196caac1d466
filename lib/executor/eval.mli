(** Scalar and predicate evaluation with SQL three-valued logic. *)

open Relcore
module Ast = Sqlkit.Ast
module Plan = Optimizer.Plan

type frames = Tuple.t list
(** Correlation frames: enclosing tuples, innermost first. *)

val frame_get : frames -> int -> int -> Value.t

val arith : Ast.binop -> Value.t -> Value.t -> Value.t
(** Null-propagating arithmetic; [+] concatenates strings. *)

val negate : Value.t -> Value.t

val apply_fn : string -> Value.t list -> Value.t
(** Scalar function dispatch (UPPER, LOWER, LENGTH, SUBSTR, TRIM, ABS,
    COALESCE); null-propagating except COALESCE. *)

val scalar : frames -> Tuple.t -> Plan.scalar -> Value.t

val compile_scalar_fn : Plan.scalar -> frames -> Tuple.t -> Value.t
(** Compile a scalar once into a closure so per-row evaluation pays no
    AST dispatch — the amortization batch-at-a-time execution buys. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] and [_]. *)

val compare3 : Ast.cmpop -> Value.t -> Value.t -> bool option
(** Three-valued comparison: [None] when either side is null. *)

val and3 : bool option -> bool option -> bool option
val or3 : bool option -> bool option -> bool option
val not3 : bool option -> bool option

val compile_pred_pure : Plan.ppred -> (frames -> Tuple.t -> bool option) option
(** Compile a predicate with no subplan probes into a closure; [None]
    when it contains [P_exists]/[P_in] (those need the executor). *)

(** {2 Batch entry points} *)

val select_batch :
  frames -> Batch.t -> (frames -> Tuple.t -> bool option) -> unit
(** Refine the batch's selection vector in place, keeping rows where the
    test yields [Some true] (SQL semantics: unknown drops the row). *)

val compile_project : Plan.scalar array -> frames -> Batch.t -> Batch.t
(** Compile a projection once; apply the result per batch. *)
