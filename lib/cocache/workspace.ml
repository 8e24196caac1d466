(** The XNF cache: the client-side main-memory representation of an
    extracted CO (paper Sect. 5, Fig. 7).

    Built in one pass over the heterogeneous stream; connection tuples
    become pointers (see {!Conode}).  Update operators record pending
    operations for later write-back (see {!Update}). *)

open Relcore
module H = Xnf.Hetstream

(** Pending write-back operations, in application order. *)
type pending_op =
  | P_insert of { comp : string; values : Tuple.t }
  | P_update of { comp : string; old_values : Tuple.t; new_values : Tuple.t }
  | P_delete of { comp : string; values : Tuple.t }
  | P_connect of { rel : string; parent : Tuple.t; child : Tuple.t }
  | P_disconnect of { rel : string; parent : Tuple.t; child : Tuple.t }

type component_store = {
  info : H.comp_info;
  mutable nodes : Conode.t list; (* arrival order *)
  mutable count : int;
}

module Int_tbl = Hashtbl.Make (Int)

type t = {
  header : H.header;
  stores : (string, component_store) Hashtbl.t;
  by_id : Conode.t Int_tbl.t;
  mutable next_local_id : int; (* negative ids for client-side inserts *)
  mutable pending : pending_op list; (* reverse order *)
  mutable conn_count : int;
}

let find_store ws comp =
  match Hashtbl.find_opt ws.stores comp with
  | Some s -> s
  | None -> Errors.semantic_error "unknown CO component %S" comp

let schema ws comp = (find_store ws comp).info.H.comp_schema

let rel_meta ws rel =
  match (find_store ws rel).info.H.comp_kind with
  | `Rel m -> m
  | `Node -> Errors.semantic_error "%S is a node component, not a relationship" rel

(* Loading a stream: [add_node] and [resolve] prepend to a store's
   [nodes], which [of_stream] reverses once at the end. *)
let add_node ws store (node : Conode.t) =
  store.nodes <- node :: store.nodes;
  store.count <- store.count + 1;
  Int_tbl.replace ws.by_id node.Conode.id node

(* A connection's partner.  The partner row may legitimately be absent
   (its component not in TAKE): materialize a value-less stub so the
   topology stays navigable — the paper's piggy-backed connections
   carry ids, not values. *)
let resolve ws store tid =
  (* [find], not [find_opt]: no option allocated per partner *)
  match Int_tbl.find ws.by_id tid with
  | n -> n
  | exception Not_found ->
    let stub = Conode.make ~id:tid ~comp:store.info.H.comp_name ~values:[||] in
    add_node ws store stub;
    stub

(* Connection records are gathered in arrays of this many: one word per
   record instead of a list cell's three, and each array small enough
   to be allocated young (at most [Max_young_wosize] words). *)
let conn_block = 256

(** Build the workspace from a heterogeneous stream: rows become nodes,
    connections become pointers (in both directions).  One pass over
    the items makes the nodes and connection records; the records,
    walked newest first, are then consed onto their partners' lists,
    which leaves every list in arrival order. *)
let of_stream (stream : H.t) : t =
  let components = stream.H.header.H.components in
  let ws =
    {
      header = stream.H.header;
      stores = Hashtbl.create 16;
      (* sized for the rows: connections are not looked up by id *)
      by_id =
        Int_tbl.create
          (List.fold_left
             (fun n -> function H.Row _ -> n + 1 | H.Conn _ -> n)
             0 stream.H.items);
      next_local_id = -1;
      pending = [];
      conn_count = 0;
    }
  in
  Array.iter
    (fun (info : H.comp_info) ->
      Hashtbl.replace ws.stores info.H.comp_name
        { info; nodes = []; count = 0 })
    components;
  (* per component number: its store and, for a relationship, its name,
     role and the stores of its parent and child partner components *)
  let stores =
    Array.map
      (fun (info : H.comp_info) -> find_store ws info.H.comp_name)
      components
  in
  let rels =
    Array.map
      (fun (info : H.comp_info) ->
        match info.H.comp_kind with
        | `Rel m ->
          Some
            ( info.H.comp_name,
              m.H.rm_role,
              find_store ws m.H.rm_parent,
              Array.of_list (List.map (find_store ws) m.H.rm_children) )
        | `Node -> None)
      components
  in
  (* the block being filled ([filled] records so far) and the full
     ones, newest first *)
  let block = ref [||] and filled = ref 0 and full = ref [] in
  let keep conn =
    if !filled = Array.length !block then begin
      if !filled > 0 then full := !block :: !full;
      block := Array.make conn_block conn;
      filled := 0
    end;
    !block.(!filled) <- conn;
    incr filled
  in
  List.iter
    (fun item ->
      match item with
      | H.Row { comp; id; values } ->
        let store = stores.(comp) in
        add_node ws store (Conode.make ~id ~comp:store.info.H.comp_name ~values)
      | H.Conn { rel; id; parent; children; attrs } ->
        let rel_name, role, parent_store, child_stores =
          match rels.(rel) with
          | Some r -> r
          | None -> Errors.execution_error "connection from node component"
        in
        let p = resolve ws parent_store parent in
        let k = Array.length children in
        if k > Array.length child_stores then
          Errors.execution_error "connection arity mismatch";
        let cs = Array.make k p in
        for i = 0 to k - 1 do
          cs.(i) <- resolve ws child_stores.(i) children.(i)
        done;
        keep
          {
            Conode.conn_id = id;
            rel = rel_name;
            role;
            parent = p;
            children = cs;
            attrs;
          };
        ws.conn_count <- ws.conn_count + 1)
    stream.H.items;
  let link (conn : Conode.conn) =
    let p = conn.Conode.parent in
    p.Conode.out_conns <- conn :: p.Conode.out_conns;
    for i = 0 to Array.length conn.Conode.children - 1 do
      let c = conn.Conode.children.(i) in
      c.Conode.in_conns <- conn :: c.Conode.in_conns
    done
  in
  let link_block b n =
    for i = n - 1 downto 0 do
      link b.(i)
    done
  in
  link_block !block !filled;
  List.iter (fun b -> link_block b conn_block) !full;
  Hashtbl.iter (fun _ s -> s.nodes <- List.rev s.nodes) ws.stores;
  ws

(** Live nodes of a component (arrival order, deletions hidden). *)
let nodes ws comp =
  List.filter (fun n -> not (Conode.is_deleted n)) (find_store ws comp).nodes

let node_count ws comp = List.length (nodes ws comp)
let connection_count ws = ws.conn_count
let find_by_id ws id = Int_tbl.find_opt ws.by_id id

(** Is this a value-less stub (partner of a shipped connection whose
    component was not in TAKE)? *)
let is_stub ws (node : Conode.t) =
  Array.length node.Conode.values = 0
  && Schema.arity (schema ws node.Conode.comp) > 0

(** Column access by name. *)
let get ws (node : Conode.t) col : Value.t =
  let s = schema ws node.Conode.comp in
  if is_stub ws node then
    Errors.semantic_error
      "component %S was not shipped (not in TAKE); node %d has no values"
      node.Conode.comp node.Conode.id;
  node.Conode.values.(Schema.find s col)

(** Total number of live nodes. *)
let size ws =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      + List.length (List.filter (fun n -> not (Conode.is_deleted n)) s.nodes))
    ws.stores 0

let node_component_names ws =
  Array.to_list ws.header.H.components
  |> List.filter_map (fun (c : H.comp_info) ->
         match c.H.comp_kind with `Node -> Some c.H.comp_name | `Rel _ -> None)

let rel_component_names ws =
  Array.to_list ws.header.H.components
  |> List.filter_map (fun (c : H.comp_info) ->
         match c.H.comp_kind with `Rel _ -> Some c.H.comp_name | `Node -> None)

(* -- update operators (paper Sect. 2: insert/read/update/delete plus
   connect/disconnect) -------------------------------------------------- *)

let fresh_local_id ws =
  let id = ws.next_local_id in
  ws.next_local_id <- ws.next_local_id - 1;
  id

let insert ws comp (values : Value.t list) : Conode.t =
  let store = find_store ws comp in
  let row = Schema.validate_row store.info.H.comp_schema (Array.of_list values) in
  let node = Conode.make ~id:(fresh_local_id ws) ~comp ~values:row in
  node.Conode.dirty <- Conode.Inserted;
  store.nodes <- store.nodes @ [ node ];
  store.count <- store.count + 1;
  Int_tbl.replace ws.by_id node.Conode.id node;
  ws.pending <- P_insert { comp; values = row } :: ws.pending;
  node

let update ws (node : Conode.t) (sets : (string * Value.t) list) : unit =
  if Conode.is_deleted node then
    Errors.execution_error "update of a deleted node";
  let s = schema ws node.Conode.comp in
  (* copy on write: a node's values array is the stream row it was
     loaded from, which a result cache may still hold *)
  let old_values = node.Conode.values in
  let new_values = Array.copy old_values in
  List.iter (fun (col, v) -> new_values.(Schema.find s col) <- v) sets;
  ignore (Schema.validate_row s new_values);
  node.Conode.values <- new_values;
  if node.Conode.dirty = Conode.Clean then node.Conode.dirty <- Conode.Updated;
  ws.pending <-
    P_update { comp = node.Conode.comp; old_values; new_values } :: ws.pending

let delete ws (node : Conode.t) : unit =
  if Conode.is_deleted node then ()
  else begin
    node.Conode.dirty <- Conode.Deleted;
    (* drop its connections from partners *)
    List.iter
      (fun (c : Conode.conn) ->
        Array.iter
          (fun (ch : Conode.t) ->
            ch.Conode.in_conns <-
              List.filter (fun x -> x.Conode.conn_id <> c.Conode.conn_id)
                ch.Conode.in_conns)
          c.Conode.children)
      node.Conode.out_conns;
    List.iter
      (fun (c : Conode.conn) ->
        c.Conode.parent.Conode.out_conns <-
          List.filter (fun x -> x.Conode.conn_id <> c.Conode.conn_id)
            c.Conode.parent.Conode.out_conns)
      node.Conode.in_conns;
    ws.pending <-
      P_delete { comp = node.Conode.comp; values = Array.copy node.Conode.values }
      :: ws.pending
  end

(** Connect [parent] and [child] under binary relationship [rel]. *)
let connect ws ~rel (parent : Conode.t) (child : Conode.t) : Conode.conn =
  let meta = rel_meta ws rel in
  if meta.H.rm_parent <> parent.Conode.comp then
    Errors.semantic_error "%S expects parent component %S, got %S" rel
      meta.H.rm_parent parent.Conode.comp;
  (match meta.H.rm_children with
  | [ c ] when c = child.Conode.comp -> ()
  | [ _ ] ->
    Errors.semantic_error "%S expects child component %S, got %S" rel
      (List.hd meta.H.rm_children) child.Conode.comp
  | _ -> Errors.unsupported "connect on n-ary relationships");
  let conn =
    {
      Conode.conn_id = fresh_local_id ws;
      rel;
      role = meta.H.rm_role;
      parent;
      children = [| child |];
      attrs = [||];
    }
  in
  parent.Conode.out_conns <- parent.Conode.out_conns @ [ conn ];
  child.Conode.in_conns <- child.Conode.in_conns @ [ conn ];
  ws.conn_count <- ws.conn_count + 1;
  ws.pending <-
    P_connect
      {
        rel;
        parent = Array.copy parent.Conode.values;
        child = Array.copy child.Conode.values;
      }
    :: ws.pending;
  conn

let disconnect ws ~rel (parent : Conode.t) (child : Conode.t) : unit =
  let existing =
    List.filter
      (fun (c : Conode.conn) ->
        c.Conode.rel = rel
        && Array.exists (fun ch -> ch == child) c.Conode.children)
      parent.Conode.out_conns
  in
  if existing = [] then
    Errors.execution_error "no %S connection between these nodes" rel;
  let ids = List.map (fun c -> c.Conode.conn_id) existing in
  parent.Conode.out_conns <-
    List.filter
      (fun (c : Conode.conn) -> not (List.mem c.Conode.conn_id ids))
      parent.Conode.out_conns;
  child.Conode.in_conns <-
    List.filter
      (fun (c : Conode.conn) -> not (List.mem c.Conode.conn_id ids))
      child.Conode.in_conns;
  ws.conn_count <- ws.conn_count - List.length ids;
  ws.pending <-
    P_disconnect
      {
        rel;
        parent = Array.copy parent.Conode.values;
        child = Array.copy child.Conode.values;
      }
    :: ws.pending

let pending_ops ws = List.rev ws.pending
let clear_pending ws = ws.pending <- []
