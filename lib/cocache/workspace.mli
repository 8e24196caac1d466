(** The XNF cache: client-side main-memory representation of an
    extracted CO (paper Sect. 5, Fig. 7).

    Built in one pass over the heterogeneous stream; connection tuples
    become pointers.  Update operators record pending operations for
    write-back (see {!Update}). *)

open Relcore
module H = Xnf.Hetstream

type pending_op =
  | P_insert of { comp : string; values : Tuple.t }
  | P_update of { comp : string; old_values : Tuple.t; new_values : Tuple.t }
  | P_delete of { comp : string; values : Tuple.t }
  | P_connect of { rel : string; parent : Tuple.t; child : Tuple.t }
  | P_disconnect of { rel : string; parent : Tuple.t; child : Tuple.t }

type component_store = {
  info : H.comp_info;
  mutable nodes : Conode.t list;
  mutable count : int;
}

module Int_tbl : Hashtbl.S with type key = int

type t = {
  header : H.header;
  stores : (string, component_store) Hashtbl.t;
  by_id : Conode.t Int_tbl.t;
  mutable next_local_id : int;
  mutable pending : pending_op list; (* reverse order *)
  mutable conn_count : int;
}

val find_store : t -> string -> component_store
val schema : t -> string -> Schema.t
val rel_meta : t -> string -> H.rel_meta

val of_stream : H.t -> t
(** One pass over the stream's items, then one over its connections:
    every node list and every node's [out_conns]/[in_conns] are in
    arrival order, and a partner named before its row arrives (or never
    shipped) is a value-less stub. *)

val nodes : t -> string -> Conode.t list
(** Live nodes of a component, arrival order. *)

val node_count : t -> string -> int
val connection_count : t -> int
val find_by_id : t -> int -> Conode.t option

val is_stub : t -> Conode.t -> bool
(** A value-less stub: partner of a shipped connection whose component
    was not in TAKE. *)

val get : t -> Conode.t -> string -> Value.t
(** Column access by name; rejects stubs with a clear error. *)

val size : t -> int
val node_component_names : t -> string list
val rel_component_names : t -> string list

(** {2 Update operators} (paper Sect. 2) *)

val insert : t -> string -> Value.t list -> Conode.t
val update : t -> Conode.t -> (string * Value.t) list -> unit
(** Copy on write: the node gets a fresh values array, so the stream it
    was loaded from (which a result cache may hold) never changes. *)

val delete : t -> Conode.t -> unit

val connect : t -> rel:string -> Conode.t -> Conode.t -> Conode.conn
(** Binary relationships only. *)

val disconnect : t -> rel:string -> Conode.t -> Conode.t -> unit

val pending_ops : t -> pending_op list
(** In application order. *)

val clear_pending : t -> unit
