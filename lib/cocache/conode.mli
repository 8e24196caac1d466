(** Nodes of the client-side CO cache; connections are plain record
    references (pointer navigation, paper Sect. 5.1).  A node's
    connections sit in two arrays, each in the stream's arrival order;
    {!Workspace.of_stream} sizes them exactly, and the update operators
    replace them with fresh arrays. *)

open Relcore

type dirty = Clean | Inserted | Updated | Deleted

type t = {
  id : int; (* system-generated tuple identifier *)
  comp : string; (* component (node table) name *)
  mutable values : Tuple.t;
  mutable out_conns : conn array; (* connections where this node is parent *)
  mutable in_conns : conn array;
      (* connections where this node is a child, once per partner slot *)
  mutable dirty : dirty;
}

and conn = {
  conn_id : int;
  rel : string;
  role : string;
  parent : t;
  children : t array;
  attrs : Relcore.Tuple.t; (* relationship attributes, [||] when none *)
}

val make : id:int -> comp:string -> values:Tuple.t -> t

val conns_out : t -> rel:string -> conn list
(** Connections under [rel] where the node is the parent, arrival order. *)

val conns_in : t -> rel:string -> conn list

val children : t -> rel:string -> t list
(** Children via [rel], all partner positions, arrival order. *)

val parents : t -> rel:string -> t list

val out_rels : t -> string list
val in_rels : t -> string list

val is_deleted : t -> bool
val to_string : t -> string
