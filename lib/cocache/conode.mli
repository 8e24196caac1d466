(** Nodes of the client-side CO cache (pointer navigation, paper
    Sect. 5.1).

    A loaded workspace keeps its connections as a CSR (compressed sparse
    row) index over the stream's own connection items: per node slot, a
    range of [out_items] (connections where the node is the parent) and
    a range of [in_items] (where it is a child, once per partner slot),
    each in the stream's arrival order.  Partner ids resolve to nodes
    through the workspace's dense id index.  No record is made per
    connection on load: {!conn} is a view that the connection getters
    build on demand.

    The update operators never write into the shared arrays or items: a
    node's first edit gives it its own item arrays ({!own}), and a
    client-made connection is a fresh item with a negative id. *)

open Relcore
module H = Xnf.Hetstream
module Int_tbl : Hashtbl.S with type key = int

type dirty = Clean | Inserted | Updated | Deleted

type t = {
  id : int; (* system-generated tuple identifier *)
  comp : string; (* component (node table) name *)
  mutable values : Tuple.t;
  mutable dirty : dirty;
  adj : adj; (* the workspace's adjacency *)
  mutable edges : edges;
}

and edges =
  | Shared  (** the node's rows of [adj]'s CSR index *)
  | Own of own  (** the node's own item arrays, after its first edit *)

and own = {
  mutable outs : H.item array;
  mutable ins : H.item array; (* once per partner slot, like [in_items] *)
}

(** A workspace's adjacency.  Built by {!Workspace.of_stream}; the
    arrays are never written after the load. *)
and adj = {
  comp_names : string array; (* by component number *)
  roles : string array; (* by component number; "" for node components *)
  dense : int; (* ids [0, dense) are found in [index] *)
  index : t array; (* stream id -> node, {!absent} where none *)
  off_index : t Int_tbl.t;
      (* by id, the nodes [index] does not cover: client-side inserts
         (negative ids) and stream ids past the dense range *)
  far : int Int_tbl.t;
      (* [k] for the [k]th distinct stream id past the dense range *)
  out_off : int array;
      (* slot [s]'s out-items are [out_items.(out_off.(s) .. out_off.(s+1) - 1)];
         the slot of id [i < dense] is [i], of the [k]th far id [dense + k] *)
  out_items : H.item array; (* the stream's [Conn] items *)
  in_off : int array;
  in_items : H.item array;
  mutable last_rel : last_rel;
      (* the relationship name navigation resolved last, and its number *)
}

and last_rel = { name : string; no : int }

(** A connection, as a view built on demand from its item.  Two views
    are the same connection when their [conn_id]s are equal. *)
type conn = {
  conn_id : int;
  rel : string;
  role : string;
  parent : t;
  children : t array;
  attrs : Relcore.Tuple.t; (* relationship attributes, [||] when none *)
}

val absent : t
(** Placeholder for the slots of an array that is filled later; no
    workspace hands it out. *)

val find : adj -> int -> t option
(** The node under an id (stream id or client insert). *)

val view : adj -> H.item -> conn
(** The view of a connection item. *)

val conns_out : t -> rel:string -> conn list
(** Connections under [rel] where the node is the parent, arrival order. *)

val conns_in : t -> rel:string -> conn list
(** Once per partner slot the node fills. *)

val out_conns : t -> conn array
(** All connections where the node is the parent, arrival order. *)

val in_conns : t -> conn array
(** All connections where the node is a child, once per partner slot. *)

val children : t -> rel:string -> t list
(** Children via [rel], all partner positions, arrival order. *)

val parents : t -> rel:string -> t list

val out_items : t -> H.item array
(** The node's out-items; a fresh copy while the node is [Shared], its
    own array after an edit.  Do not write into it. *)

val in_items : t -> H.item array

val own : t -> own
(** The node's own item arrays, copied from the shared index on the
    first call.  For the update operators. *)

val out_rels : t -> string list
val in_rels : t -> string list

val is_deleted : t -> bool
val to_string : t -> string
