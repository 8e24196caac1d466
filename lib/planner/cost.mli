(** Cardinality and selectivity estimation (System-R style): exact base
    cardinalities, NDV statistics for equalities, fixed heuristics
    elsewhere. *)

module Qgm = Starq.Qgm

val eq_selectivity : float
val range_selectivity : float
val default_selectivity : float

(** Host calibration of the cost constants (see [xnfdb calibrate]).
    Constants are ratios over the per-tuple scan cost; a persisted
    profile is activated by [XNFDB_COST_PROFILE]; unset or empty, the
    hand-set defaults hold bit for bit. *)
module Calibrate : sig
  type profile = {
    batch_overhead : float;
    cold_chunk_penalty : float;
    parallel_overhead : float;
    parallel_threshold_rows : int;
    jf_drop_threshold : float;
    jf_adaptive_sample : int;
    host_cores : int;
    tuple_ns : float;
  }

  val defaults : profile
  (** The hand-set constants, bit for bit. *)

  val measure : unit -> profile
  (** Run the micro-probe suite (scan, batch dispatch, hash
      build/probe, Bloom test, decode fault, domain fan-out) on this
      host; takes well under a second. *)

  val render : profile -> string
  (** The persisted [key value] text form. *)

  val save : string -> profile -> unit

  val load : string -> (profile, string) result
  (** Missing keys keep their defaults; unknown keys are ignored. *)

  val profile_path : unit -> string option
  (** The [XNFDB_COST_PROFILE] knob. *)

  val active : unit -> profile
  (** The profile in force: the file named by [XNFDB_COST_PROFILE] when
      it loads, else {!defaults}.  Memoized on the knob's value, so
      flipping it mid-process takes effect immediately. *)
end

val tuple_cost : float
(** Cost of evaluating one tuple inside a batch loop — the normalized
    unit (always 1.0; calibration reshapes the other constants around
    it). *)

val batch_overhead : unit -> float
(** Fixed cost of moving one batch across an operator boundary
    (calibrated). *)

val stream_cost : float -> float
(** [stream_cost rows] is the cost of streaming that many tuples through
    one operator hop under batch-at-a-time execution: a per-tuple term
    plus a per-batch term for however many [Relcore.Batch] units the
    rows occupy. *)

val cold_chunk_penalty : unit -> float
(** Extra per-row cost of scanning a spilled (cold) colstore chunk
    relative to a hot one (calibrated). *)

val scan_access_factor : Relcore.Base_table.t -> float
(** Multiplier on the cost of scanning the table's rows:
    [1 + cold_chunk_penalty * cold_fraction].  1.0 when the colstore or
    spilling is off, so default plans are unchanged. *)

val parallel_threshold_rows : unit -> int
(** Input-row count below which a fragment runs serially (scheduling a
    parallel fan-out would cost more than it saves; calibrated). *)

val parallel_overhead : unit -> float
(** Fixed cost of one parallel fan-out (pool dispatch, channel setup,
    deterministic re-merge; calibrated). *)

val jf_adaptive_sample : unit -> int
(** Probe rows the executor observes before judging a join filter's
    usefulness (calibrated). *)

val jf_drop_threshold : unit -> float
(** Observed pass-rate above which the per-row join-filter test is
    disabled (calibrated from the Bloom-test vs hash-probe cost
    ratio). *)

val choose_dop : ?threshold:int -> domains:int -> rows:int -> unit -> int
(** Degree of parallelism for a fragment: 1 under [threshold] rows,
    otherwise at most one worker per threshold-sized chunk, capped at
    [domains]. *)

val parallel_stream_cost : domains:int -> float -> float
(** {!stream_cost} with per-tuple work divided across the chosen degree
    of parallelism; per-batch merge overhead and the fan-out fixed cost
    are not divided. *)

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
    {!default_selectivity} when statistics are unavailable. *)

val box_cardinality : Qgm.box -> float
(** Estimated output cardinality of a box. *)

val join_cardinality :
  ?resolve:(int -> Qgm.box option) -> float list -> Qgm.bpred list -> float
