(** Aggregate accumulators for hash aggregation. *)

open Relcore
module Ast = Sqlkit.Ast

type t

val create : Ast.agg_fn -> t
val add : t -> Value.t -> unit

val result : t -> Value.t

val empty_result : Ast.agg_fn -> Value.t
(** Result over an empty input: COUNT is 0, the others NULL. *)
