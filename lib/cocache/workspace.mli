(** The XNF cache: client-side main-memory representation of an
    extracted CO (paper Sect. 5, Fig. 7).

    Built in three flat passes over the heterogeneous stream; connection
    tuples become a CSR index over the stream's own items (see
    {!Conode}).  Update operators record pending operations for
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
  mutable nodes : Conode.t array;
      (** The first [count] slots hold the component's nodes (deleted
          ones too) in arrival order; client inserts append. *)
  mutable count : int;
}

module Int_tbl = Conode.Int_tbl

type t = {
  header : H.header;
  stores : (string, component_store) Hashtbl.t;
  adj : Conode.adj;
      (** The connections, and the nodes by id: a server numbers rows
          and connections from 1, so [adj.index] is dense.  Use
          {!find_by_id}. *)
  mutable next_local_id : int;
  mutable pending : pending_op list; (* reverse order *)
  mutable conn_count : int;
}

val find_store : t -> string -> component_store
val schema : t -> string -> Schema.t
val rel_meta : t -> string -> H.rel_meta

val of_stream : H.t -> t
(** Three passes over the stream's items (check the ids, count degrees,
    build), with no closure or table entry per item and no record per
    connection: the connections become a CSR index over the stream's own
    [Conn] items, each node's rows in arrival order, and partners are
    found through [adj.index].  The stream is never written.  One node per
    stream id (object sharing): a partner named before its row arrives
    is that row's node, a value-less stub until the row fills its values
    in place, and stays a stub if the row never ships (its component is
    not in TAKE).  Every node list is in order of each node's first
    mention.  Ids past [4 * items + 1024] (rows outside TAKE take ids
    too) are found through [adj.off_index]; no array is sized from an
    id.  Raises {!Relcore.Errors.Db_error} on a negative id, two rows
    under one id, a row whose id was named as a partner in another
    component, or an item naming a component number of the wrong
    kind. *)

val nodes : t -> string -> Conode.t list
(** Live nodes of a component, arrival order. *)

val node_count : t -> string -> int
val connection_count : t -> int
val find_by_id : t -> int -> Conode.t option
(** A stream id's node (deleted ones too), or a client insert's by its
    negative id. *)

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
(** Marks the node deleted and drops its connections from its partners'
    item arrays (each partner gets its own on its first edit; the shared
    index and the stream are never written); {!connection_count} loses
    each of them once. *)

val connect : t -> rel:string -> Conode.t -> Conode.t -> Conode.conn
(** Binary relationships only: a fresh connection item with a negative
    id. *)

val disconnect : t -> rel:string -> Conode.t -> Conode.t -> unit

val pending_ops : t -> pending_op list
(** In application order. *)

val clear_pending : t -> unit
