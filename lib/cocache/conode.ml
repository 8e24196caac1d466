(** Nodes of the client-side CO cache.

    "The workspace is constructed from the output tuples of the XNF
    query by converting connections into pointers which allow traversing
    the structure in any direction" (paper Sect. 5.1).  Connections are
    plain OCaml record references — following one is a pointer chase,
    no table lookup. *)

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

let make ~id ~comp ~values =
  {
    id;
    comp;
    values;
    out_conns = [];
    in_conns = [];
    dirty = Clean;
  }

(** Connections of [node] under relationship [rel] where it is the
    parent, in arrival order. *)
let conns_out node ~rel = List.filter (fun c -> c.rel = rel) node.out_conns

let conns_in node ~rel = List.filter (fun c -> c.rel = rel) node.in_conns

(** Children of [node] via [rel] (all partner positions, arrival order). *)
let children node ~rel =
  List.concat_map (fun c -> Array.to_list c.children) (conns_out node ~rel)

(** Parents of [node] via [rel]. *)
let parents node ~rel = List.map (fun c -> c.parent) (conns_in node ~rel)

(** All distinct relationship names leaving (entering) this node. *)
let out_rels node =
  List.sort_uniq compare (List.map (fun c -> c.rel) node.out_conns)

let in_rels node =
  List.sort_uniq compare (List.map (fun c -> c.rel) node.in_conns)

let is_deleted node = node.dirty = Deleted

let to_string node =
  Printf.sprintf "%s#%d%s" node.comp node.id (Tuple.to_string node.values)
