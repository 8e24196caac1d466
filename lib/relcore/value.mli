(** Runtime values of the relational engine.

    SQL three-valued logic is handled at the predicate-evaluation layer;
    here [Null] is just a distinguished value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used for sorting and index organisation (not SQL
    comparison): Null < Bool < numerics (Int and Float mix) < Str.
    Int-vs-Float comparison is exact — no [float_of_int] rounding at
    magnitudes >= 2^53 — so the mixed numeric order is transitive. *)

val int_key_of_float : float -> int option
(** The int that carries this float's key under {!compare}/{!hash}, if
    one exists: integral floats in the native int range.  Floats outside
    that range compare equal to no int. *)

val equal : t -> t -> bool

val sql_eq : t -> t -> bool option
(** SQL equality: [None] (unknown) when either side is null. *)

val sql_compare : t -> t -> int option
(** SQL comparison: [None] when either side is null. *)

val hash : t -> int
(** Consistent with {!equal}: equal values (including [Int 3] vs
    [Float 3.0]) hash equal. *)

val to_string : t -> string

val to_literal : t -> string
(** SQL-literal rendering: strings quoted and escaped. *)

val pp : Format.formatter -> t -> unit

(** Checked projections; raise {!Errors.Db_error} on mismatch. *)

val as_int : t -> int
val as_float : t -> float
val as_string : t -> string
