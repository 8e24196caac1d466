(** Table schemas: ordered, named, typed columns.  Column names are
    case-insensitive (normalised to lowercase). *)

type column = {
  name : string;
  dtype : Dtype.t;
  nullable : bool;
}

type t

val normalize : string -> string

val column : ?nullable:bool -> string -> Dtype.t -> column
(** [nullable] defaults to [true]. *)

val make : column list -> t
(** Raises on duplicate column names. *)

val arity : t -> int
val columns : t -> column list
val column_at : t -> int -> column
val column_names : t -> string list

val find_opt : t -> string -> int option
val find : t -> string -> int
(** Raises {!Errors.Db_error} when the column does not exist. *)

val mem : t -> string -> bool

val concat : ?rename_dups_with:string -> t -> t -> t
(** Concatenate two schemas (join outputs); duplicate right-hand names
    are prefixed (default ["r_"]). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val validate_row : t -> Value.t array -> Value.t array
(** Validate a raw row against the schema, coercing where safe; raises
    on arity mismatch, type mismatch, or null in a NOT NULL column. *)
