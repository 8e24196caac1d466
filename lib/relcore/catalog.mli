(** System catalog: the namespace of base tables and named view texts.
    Views are stored as source text (SQL or XNF) and recompiled on use. *)

type view_def = {
  view_name : string;
  language : [ `Sql | `Xnf ];
  text : string;
}

type t

val create : unit -> t

val add_table : t -> Base_table.t -> unit
(** Raises when the name (table or view) is taken. *)

val find_table_opt : t -> string -> Base_table.t option
val find_table : t -> string -> Base_table.t
val mem_table : t -> string -> bool
val drop_table : t -> string -> unit

val add_view : t -> view_def -> unit
val find_view_opt : t -> string -> view_def option
val drop_view : t -> string -> unit

val tables : t -> Base_table.t list
(** Sorted by name. *)

val views : t -> view_def list
