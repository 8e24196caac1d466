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
  mutable out_conns : conn array; (* connections where this node is parent *)
  mutable in_conns : conn array; (* connections where this node is a child *)
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
  { id; comp; values; out_conns = [||]; in_conns = [||]; dirty = Clean }

(* The list getters below walk their array right to left and cons each
   match, so the result comes out in arrival order with no intermediate
   list. *)

let with_rel (a : conn array) ~rel =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    let c = a.(i) in
    if String.equal c.rel rel then acc := c :: !acc
  done;
  !acc

(** Connections of [node] under relationship [rel] where it is the
    parent, in arrival order. *)
let conns_out node ~rel = with_rel node.out_conns ~rel

let conns_in node ~rel = with_rel node.in_conns ~rel

(** Children of [node] via [rel] (all partner positions, arrival order). *)
let children node ~rel =
  let a = node.out_conns and acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    let c = a.(i) in
    if String.equal c.rel rel then
      for j = Array.length c.children - 1 downto 0 do
        acc := c.children.(j) :: !acc
      done
  done;
  !acc

(** Parents of [node] via [rel]. *)
let parents node ~rel =
  let a = node.in_conns and acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    let c = a.(i) in
    if String.equal c.rel rel then acc := c.parent :: !acc
  done;
  !acc

(** All distinct relationship names leaving (entering) this node. *)
let out_rels node =
  List.sort_uniq compare
    (Array.to_list (Array.map (fun c -> c.rel) node.out_conns))

let in_rels node =
  List.sort_uniq compare
    (Array.to_list (Array.map (fun c -> c.rel) node.in_conns))

let is_deleted node = node.dirty = Deleted

let to_string node =
  Printf.sprintf "%s#%d%s" node.comp node.id (Tuple.to_string node.values)
