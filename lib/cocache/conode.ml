(** Nodes of the client-side CO cache.

    "The workspace is constructed from the output tuples of the XNF
    query by converting connections into pointers which allow traversing
    the structure in any direction" (paper Sect. 5.1).  Here the
    pointers are a CSR index over the stream's own connection items: an
    n-ary connection is one row of a sparse incidence matrix, not a heap
    object per edge.  Following one is an array read and an id lookup
    in a dense array, no table probe. *)

open Relcore
module H = Xnf.Hetstream
module Int_tbl = Hashtbl.Make (Int)

type dirty = Clean | Inserted | Updated | Deleted

type t = {
  id : int; (* system-generated tuple identifier *)
  comp : string; (* component (node table) name *)
  mutable values : Tuple.t;
  mutable dirty : dirty;
  adj : adj; (* the workspace's adjacency *)
  mutable edges : edges;
}

and edges = Shared | Own of own

and own = { mutable outs : H.item array; mutable ins : H.item array }

and adj = {
  comp_names : string array;
  roles : string array;
  dense : int;
  index : t array;
  off_index : t Int_tbl.t;
  far : int Int_tbl.t;
  out_off : int array;
  out_items : H.item array;
  in_off : int array;
  in_items : H.item array;
  mutable last_rel : last_rel;
}

and last_rel = { name : string; no : int }

type conn = {
  conn_id : int;
  rel : string;
  role : string;
  parent : t;
  children : t array;
  attrs : Relcore.Tuple.t; (* relationship attributes, [||] when none *)
}

(* Placeholder for the slots of an array that is filled later; no
   workspace hands it out. *)
let no_nodes = Int_tbl.create 1
let no_slots = Int_tbl.create 1

let rec absent =
  { id = 0; comp = ""; values = [||]; dirty = Clean; adj = nowhere; edges = Shared }

and nowhere =
  {
    comp_names = [||];
    roles = [||];
    dense = 0;
    index = [||];
    off_index = no_nodes;
    far = no_slots;
    out_off = [||];
    out_items = [||];
    in_off = [||];
    in_items = [||];
    last_rel = { name = ""; no = -1 };
  }

(* A partner id's node; every id an item names has one. *)
let node_of a id =
  if id >= 0 && id < a.dense then a.index.(id)
  else Int_tbl.find a.off_index id

let find a id =
  if id >= 0 && id < a.dense then
    let n = a.index.(id) in
    if n != absent then Some n else None
  else Int_tbl.find_opt a.off_index id

(* A shared node's row in the CSR index. *)
let slot a n = if n.id < a.dense then n.id else a.dense + Int_tbl.find a.far n.id

(* The component number of [rel] from [c] on; -1 (no item has it) for
   an unknown name. *)
let rec rel_from names rel c =
  if c = Array.length names then -1
  else if String.equal (Array.unsafe_get names c) rel then c
  else rel_from names rel (c + 1)

(* Callers name a relationship by a string literal, so the last one
   resolved is found again by physical equality.  [last_rel] is one
   immutable pair, so a racing reader sees a consistent one. *)
let rel_no a rel =
  let m = a.last_rel in
  if m.name == rel then m.no
  else begin
    let no = rel_from a.comp_names rel 0 in
    a.last_rel <- { name = rel; no };
    no
  end

let not_conn () = invalid_arg "Conode: a row item in an adjacency"

let view a = function
  | H.Conn { rel; id; parent; children; attrs } ->
    {
      conn_id = id;
      rel = a.comp_names.(rel);
      role = a.roles.(rel);
      parent = node_of a parent;
      children = Array.map (node_of a) children;
      attrs;
    }
  | H.Row _ -> not_conn ()

(* The getters below take a node's item range as [items.(lo .. hi-1)]
   and walk it right to left, consing each match, so a list comes out
   in arrival order with no intermediate list.  [r] is a component
   number, resolved once per call. *)

let conns_of a r items lo hi =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    match items.(i) with
    | H.Conn c as item when c.rel = r -> acc := view a item :: !acc
    | _ -> ()
  done;
  !acc

let children_of a r items lo hi =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    match items.(i) with
    | H.Conn c when c.rel = r ->
      let cs = c.children in
      for j = Array.length cs - 1 downto 0 do
        acc := node_of a cs.(j) :: !acc
      done
    | _ -> ()
  done;
  !acc

let parents_of a r items lo hi =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    match items.(i) with
    | H.Conn c when c.rel = r -> acc := node_of a c.parent :: !acc
    | _ -> ()
  done;
  !acc

(** Connections of [node] under relationship [rel] where it is the
    parent, in arrival order. *)
let conns_out n ~rel =
  let a = n.adj in
  let r = rel_no a rel in
  match n.edges with
  | Shared ->
    let s = slot a n in
    conns_of a r a.out_items a.out_off.(s) a.out_off.(s + 1)
  | Own o -> conns_of a r o.outs 0 (Array.length o.outs)

let conns_in n ~rel =
  let a = n.adj in
  let r = rel_no a rel in
  match n.edges with
  | Shared ->
    let s = slot a n in
    conns_of a r a.in_items a.in_off.(s) a.in_off.(s + 1)
  | Own o -> conns_of a r o.ins 0 (Array.length o.ins)

(** Children of [node] via [rel] (all partner positions, arrival order). *)
let children n ~rel =
  let a = n.adj in
  let r = rel_no a rel in
  match n.edges with
  | Shared ->
    let s = slot a n in
    children_of a r a.out_items a.out_off.(s) a.out_off.(s + 1)
  | Own o -> children_of a r o.outs 0 (Array.length o.outs)

(** Parents of [node] via [rel], once per partner slot it fills. *)
let parents n ~rel =
  let a = n.adj in
  let r = rel_no a rel in
  match n.edges with
  | Shared ->
    let s = slot a n in
    parents_of a r a.in_items a.in_off.(s) a.in_off.(s + 1)
  | Own o -> parents_of a r o.ins 0 (Array.length o.ins)

let out_items n =
  match n.edges with
  | Shared ->
    let a = n.adj in
    let s = slot a n in
    Array.sub a.out_items a.out_off.(s) (a.out_off.(s + 1) - a.out_off.(s))
  | Own o -> o.outs

let in_items n =
  match n.edges with
  | Shared ->
    let a = n.adj in
    let s = slot a n in
    Array.sub a.in_items a.in_off.(s) (a.in_off.(s + 1) - a.in_off.(s))
  | Own o -> o.ins

let own n =
  match n.edges with
  | Own o -> o
  | Shared ->
    let o = { outs = out_items n; ins = in_items n } in
    n.edges <- Own o;
    o

let out_conns n = Array.map (view n.adj) (out_items n)
let in_conns n = Array.map (view n.adj) (in_items n)

(** All distinct relationship names leaving (entering) this node. *)
let rels_of a items =
  List.sort_uniq compare
    (Array.to_list
       (Array.map
          (function H.Conn c -> a.comp_names.(c.rel) | H.Row _ -> not_conn ())
          items))

let out_rels n = rels_of n.adj (out_items n)
let in_rels n = rels_of n.adj (in_items n)

let is_deleted node = node.dirty = Deleted

let to_string node =
  Printf.sprintf "%s#%d%s" node.comp node.id (Tuple.to_string node.values)
