(** Nodes of the client-side CO cache; connections are plain record
    references (pointer navigation, paper Sect. 5.1). *)

open Relcore

type dirty = Clean | Inserted | Updated | Deleted

type t = {
  id : int; (* system-generated tuple identifier *)
  comp : string; (* component (node table) name *)
  mutable values : Tuple.t;
  mutable out_conns : conn list; (* connections where this node is parent *)
  mutable in_conns : conn list; (* connections where this node is a child *)
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
val conns_in : t -> rel:string -> conn list

val children : t -> rel:string -> t list
(** Children via [rel], all partner positions, arrival order. *)

val parents : t -> rel:string -> t list

val out_rels : t -> string list
val in_rels : t -> string list

val is_deleted : t -> bool
val to_string : t -> string
