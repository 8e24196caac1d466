(** Plan optimization: QGM → QEP (the "Plan Optimization and Plan
    Refinement" stage of Fig. 2).  Join orders from {!Join_order};
    access methods: index > hash > nested loop; boxes with
    multiple consumers and no correlated references become [Shared]
    (CSE) nodes — the mechanism behind XNF's cross-output sharing. *)

open Relcore
module Qgm = Starq.Qgm

type layout = (int * (int * int)) list
(** qid -> (offset, width) within the current tuple. *)

type ctx = {
  consumers : (int, (Qgm.box * Qgm.quant) list) Hashtbl.t;
  outer : layout list; (* correlation frames, innermost first *)
  share : bool;
  est : (Plan.t * float) list ref; (* row estimate per emitted node *)
}

val resolver : layout list -> int -> int -> Plan.scalar
(** Resolve a quantifier column against the frame stack: frame 0 is the
    current tuple, deeper frames become correlated parameters. *)

val compile_scalar : (int -> int -> Plan.scalar) -> Qgm.bexpr -> Plan.scalar
val compile_pred : ctx -> layout list -> Qgm.bpred -> Plan.ppred

val schema_of_box : Qgm.box -> Schema.t

val compile : ?share:bool -> Qgm.graph -> Plan.compiled

val compile_many :
  ?share:bool -> (string * Qgm.box) list -> (string * Plan.compiled) list
(** Compile several graphs that may physically share boxes (XNF
    multi-table queries): consumers are computed across all roots so
    shared derivations become [Shared] nodes materialized once per
    execution context. *)
