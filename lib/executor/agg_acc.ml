(** Aggregate accumulators for hash aggregation. *)

open Relcore
module Ast = Sqlkit.Ast

type t = {
  fn : Ast.agg_fn;
  mutable count : int; (* non-null inputs seen *)
  mutable total : int; (* all inputs seen, for COUNT star *)
  mutable sum_i : int;
  mutable sum_f : float;
  mutable is_float : bool;
  mutable best : Value.t; (* MIN/MAX running value *)
}

let create fn =
  {
    fn;
    count = 0;
    total = 0;
    sum_i = 0;
    sum_f = 0.0;
    is_float = false;
    best = Value.Null;
  }

let add acc (v : Value.t) =
  acc.total <- acc.total + 1;
  if not (Value.is_null v) then begin
    acc.count <- acc.count + 1;
    match acc.fn with
    | Ast.Count_star | Ast.Count -> ()
    | Ast.Sum | Ast.Avg -> begin
      match v with
      | Value.Int i ->
        acc.sum_i <- acc.sum_i + i;
        acc.sum_f <- acc.sum_f +. float_of_int i
      | Value.Float f ->
        acc.is_float <- true;
        acc.sum_f <- acc.sum_f +. f
      | _ -> Errors.type_error "SUM/AVG on %s" (Value.to_string v)
    end
    | Ast.Min ->
      if Value.is_null acc.best || Value.compare v acc.best < 0 then acc.best <- v
    | Ast.Max ->
      if Value.is_null acc.best || Value.compare v acc.best > 0 then acc.best <- v
  end

let result acc : Value.t =
  match acc.fn with
  | Ast.Count_star -> Value.Int acc.total
  | Ast.Count -> Value.Int acc.count
  | Ast.Sum ->
    if acc.count = 0 then Value.Null
    else if acc.is_float then Value.Float acc.sum_f
    else Value.Int acc.sum_i
  | Ast.Avg ->
    if acc.count = 0 then Value.Null
    else Value.Float (acc.sum_f /. float_of_int acc.count)
  | Ast.Min | Ast.Max -> acc.best

(** Result over an empty input (global aggregates). *)
let empty_result fn : Value.t =
  match fn with
  | Ast.Count_star | Ast.Count -> Value.Int 0
  | Ast.Sum | Ast.Avg | Ast.Min | Ast.Max -> Value.Null
