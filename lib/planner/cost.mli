(** Cardinality and selectivity estimation (System-R style): exact base
    cardinalities, NDV statistics for equalities, fixed heuristics
    elsewhere. *)

module Qgm = Starq.Qgm

val tuple_cost : float
(** Cost of evaluating one tuple inside a batch loop — the normalized
    unit (1.0) the other constants are expressed in. *)

val batch_overhead : float
(** Fixed cost of moving one batch across an operator boundary. *)

val stream_cost : float -> float
(** [stream_cost rows] is the cost of streaming that many tuples through
    one operator hop under batch-at-a-time execution: a per-tuple term
    plus a per-batch term for however many [Relcore.Batch] units the
    rows occupy. *)

val base_column_of :
  (int -> Qgm.box option) -> Qgm.bexpr -> (Relcore.Base_table.t * int) option
(** Trace a bare column reference to a base-table column through
    identity projections. *)

val range_const_selectivity :
  (int -> Qgm.box option) ->
  Sqlkit.Ast.cmpop ->
  Qgm.bexpr ->
  Qgm.bexpr ->
  float option
(** Interpolated selectivity of a column-vs-constant range comparison
    over the zone-derived column bounds ((k - lo) / (hi - lo), clamped);
    [None] when the shape or the statistics don't apply. *)

val pred_selectivity : ?resolve:(int -> Qgm.box option) -> Qgm.bpred -> float
(** With [resolve] (quantifier id -> input box), equality predicates
    consult per-column NDV statistics, range predicates against
    constants interpolate over zone-map bounds, and NULL tests use zone
    null counts.  Conjunctions group column-vs-constant comparisons per
    base column and combine each group by interval intersection over the
    zone span (an equality dominating its group) instead of multiplying
    them as if independent. *)

val join_filter_pass_est :
  (int -> Qgm.box option) ->
  probe:Qgm.bexpr ->
  build:Qgm.bexpr ->
  build_card:float ->
  float
(** Estimated fraction of probe rows whose join key passes a build-side
    join filter (range + Bloom): zone-range overlap capped by NDV
    containment, with [build_card] bounding the build-side NDV.
    A fixed 0.5 when statistics are unavailable. *)

val box_cardinality : Qgm.box -> float
(** Estimated output cardinality of a box. *)

val join_cardinality :
  ?resolve:(int -> Qgm.box option) -> float list -> Qgm.bpred list -> float
