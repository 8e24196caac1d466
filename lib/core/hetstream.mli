(** The heterogeneous result stream of an XNF query (paper Sect. 5):
    component rows and connection tuples, each with a system-generated
    identifier; connections carry the identifiers of their partners.
    Identity follows XNF value semantics — a component tuple used
    multiple times exists once (object sharing). *)

open Relcore

type tuple_id = int

type item =
  | Row of { comp : int; id : tuple_id; values : Tuple.t }
  | Conn of {
      rel : int;
      id : tuple_id;
      parent : tuple_id;
      children : tuple_id array;
      attrs : Tuple.t; (* relationship attributes, [||] when none *)
    }

type comp_info = {
  comp_no : int;
  comp_name : string;
  comp_kind : [ `Node | `Rel of rel_meta ];
  comp_schema : Schema.t;
  take_cols : string list option;
  in_take : bool;
}

and rel_meta = {
  rm_role : string;
  rm_parent : string;
  rm_children : string list;
}

type header = {
  components : comp_info array; (* indexed by comp_no *)
  root_components : string list;
}

type t = { header : header; items : item list }

val find_comp : header -> string -> comp_info

val header_key : header -> string
(** The header's layout (components, kinds, TAKE membership and column
    lists, roots) as a cache-key fragment. *)

val take_projection :
  Schema.t -> string list option -> Schema.t * (Tuple.t -> Tuple.t)
(** A node component's TAKE column list applied to its full rows: the
    shipped schema and the row projection ([None]: the rows as they
    are).  Raises {!Relcore.Errors.Db_error} on an unknown column. *)

val counts : t -> (string * int) list
val total_items : t -> int

val approx_bytes : t -> int
(** Rough heap footprint (result-cache size accounting). *)

(** {2 Wire format}

    The single bulk message from server to client (Sect. 5.1's "only one
    call instead of a call for each tuple"); also used by cache
    persistence.  The low-level reader/writer primitives are exposed for
    {!Cocache.Persist}. *)

val equal : t -> t -> bool
(** Structural equality via the wire format: item order, tags, ids and
    every value byte must agree (byte-identical streams). *)

val serialize : t -> string
val deserialize : string -> t

val write_int : Buffer.t -> int -> unit
val write_string : Buffer.t -> string -> unit
val write_value : Buffer.t -> Value.t -> unit

val write_values : Buffer.t -> Value.t array -> unit
(** The array's length, then each value. *)

val write_schema : Buffer.t -> Schema.t -> unit
val write_header : Buffer.t -> header -> unit
val write_item : Buffer.t -> item -> unit

type reader = { data : string; mutable pos : int }

val read_char : reader -> char
val read_int : reader -> int
val read_string : reader -> string
val read_value : reader -> Value.t

val read_values : reader -> int -> Value.t array
(** [read_values r n]: [n] values into a fresh array.  A count that is
    negative or exceeds the bytes left raises {!Relcore.Errors.Db_error}
    before anything is allocated. *)

val read_schema : reader -> Schema.t
val read_header : reader -> header
val read_item : reader -> item
