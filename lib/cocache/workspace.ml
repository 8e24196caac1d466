(** The XNF cache: the client-side main-memory representation of an
    extracted CO (paper Sect. 5, Fig. 7).

    Built in three flat passes over the heterogeneous stream; connection
    tuples become pointers (see {!Conode}).  Update operators record pending
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
  mutable nodes : Conode.t array; (* the first [count] slots, arrival order *)
  mutable count : int;
}

module Int_tbl = Conode.Int_tbl

type t = {
  header : H.header;
  stores : (string, component_store) Hashtbl.t;
  adj : Conode.adj; (* connections, and nodes by id *)
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

let absent = Conode.absent

(* Append in amortized O(1); a loaded store is sized exactly and only
   client inserts grow it. *)
let push store node =
  if store.count = Array.length store.nodes then begin
    let grown = Array.make ((2 * store.count) + 8) absent in
    Array.blit store.nodes 0 grown 0 store.count;
    store.nodes <- grown
  end;
  store.nodes.(store.count) <- node;
  store.count <- store.count + 1

(* The position of component [name] in the header: the number an item
   names it by. *)
let comp_no (components : H.comp_info array) name =
  let rec go c =
    if c = Array.length components then
      Errors.semantic_error "unknown CO component %S" name
    else if String.equal components.(c).H.comp_name name then c
    else go (c + 1)
  in
  go 0

(* A relationship component's partner component numbers. *)
type rel_info = { r_parent : int; r_children : int array }

(* The dense range of stream ids for a stream of this many items.  The
   ids a server assigns run from 1 (one per assembled row and
   connection), so they fall in this range unless rows outside TAKE took
   ids too; the load indexes ids in range by position and the rest
   through a table, so no array is sized from an id. *)
let dense_limit n_items = (4 * n_items) + 1024

let malformed fmt = Errors.execution_error ("malformed stream: " ^^ fmt)

(* Filler for the item arrays' slots until the load writes them. *)
let no_item = H.Row { comp = -1; id = 0; values = [||] }

(** Build the workspace from a heterogeneous stream: rows become nodes,
    connections become a CSR index over the stream's own [Conn] items
    (in both directions).  Three passes over the items, none allocating
    per item beyond the nodes it returns: the first checks the items and
    gives every node id a slot (itself when in the dense range); the
    second counts each slot's out- and in-degree and each component's
    nodes, and checks that an id names one node; the third makes each
    node once and writes each connection item into its partners' rows
    in arrival order.  No connection data is copied: int columns would
    be large arrays, which OCaml allocates straight in the major heap,
    where they pace the major GC (DESIGN.md). *)
let of_stream (stream : H.t) : t =
  let components = stream.H.header.H.components in
  let n_comps = Array.length components in
  let stores = Hashtbl.create 16 in
  let comps =
    Array.map
      (fun (info : H.comp_info) ->
        let s = { info; nodes = [||]; count = 0 } in
        Hashtbl.replace stores info.H.comp_name s;
        s)
      components
  in
  let rels =
    Array.map
      (fun (info : H.comp_info) ->
        match info.H.comp_kind with
        | `Rel m ->
          Some
            {
              r_parent = comp_no components m.H.rm_parent;
              r_children =
                Array.of_list (List.map (comp_no components) m.H.rm_children);
            }
        | `Node -> None)
      components
  in
  let rel_of rel =
    if rel < 0 || rel >= n_comps then malformed "component number %d" rel;
    match rels.(rel) with
    | Some r -> r
    | None -> malformed "connection of node component %d" rel
  in
  (* pass 1: ids are non-negative; the largest one in the dense range,
     and each distinct id past it numbered in order of appearance *)
  let limit = dense_limit (List.length stream.H.items) in
  let top = ref 0 and far = Int_tbl.create 8 in
  let note id =
    if id < 0 then malformed "negative tuple id %d" id;
    if id <= limit then (if id > !top then top := id)
    else if not (Int_tbl.mem far id) then Int_tbl.add far id (Int_tbl.length far)
  in
  List.iter
    (fun item ->
      match item with
      | H.Row { comp; id; _ } ->
        if comp < 0 || comp >= n_comps || Option.is_some rels.(comp) then
          malformed "row of component number %d" comp;
        note id
      | H.Conn { rel; parent; children; _ } ->
        if Array.length children > Array.length (rel_of rel).r_children then
          malformed "connection arity mismatch";
        note parent;
        Array.iter note children)
    stream.H.items;
  let dense = !top + 1 in
  let slot id = if id < dense then id else dense + Int_tbl.find far id in
  (* pass 2: degrees and node counts.  Slot [s]'s out-degree is counted
     in [out_off.(s + 2)], so that after the prefix sums [out_off.(s + 1)]
     is where its items start; the third pass advances it past each item
     it writes, which leaves [out_off.(s)] where they start.  Likewise
     [in_off].  [owner.(slot)] is [c + 1] once a row of component [c]
     arrived under its id, [-(c + 1)] while the id is only a partner in a
     component-[c] slot, 0 before either. *)
  let len = dense + Int_tbl.length far in
  let out_off = Array.make (len + 2) 0 and in_off = Array.make (len + 2) 0 in
  let owner = Array.make len 0 and counts = Array.make n_comps 0 in
  let claim c k =
    if owner.(k) = 0 then begin
      owner.(k) <- -(c + 1);
      counts.(c) <- counts.(c) + 1
    end
  in
  let conns = ref 0 in
  List.iter
    (fun item ->
      match item with
      | H.Row { comp; id; _ } ->
        let k = slot id in
        let o = owner.(k) in
        if o > 0 then malformed "two rows under tuple id %d" id
        else if o = 0 then counts.(comp) <- counts.(comp) + 1
        else if o <> -(comp + 1) then
          malformed "row %d of %S was named as a %S partner" id
            components.(comp).H.comp_name
            components.(-o - 1).H.comp_name;
        owner.(k) <- comp + 1
      | H.Conn { rel; parent; children; _ } ->
        let r = rel_of rel in
        incr conns;
        let k = slot parent in
        out_off.(k + 2) <- out_off.(k + 2) + 1;
        claim r.r_parent k;
        for i = 0 to Array.length children - 1 do
          let k = slot children.(i) in
          in_off.(k + 2) <- in_off.(k + 2) + 1;
          claim r.r_children.(i) k
        done)
    stream.H.items;
  for s = 2 to len + 1 do
    out_off.(s) <- out_off.(s) + out_off.(s - 1);
    in_off.(s) <- in_off.(s) + in_off.(s - 1)
  done;
  Array.iteri (fun c s -> s.nodes <- Array.make counts.(c) absent) comps;
  (* pass 3: nodes, and each connection item into its partners' rows *)
  let index = Array.make dense absent in
  let far_nodes = Array.make (len - dense) absent in
  let adj =
    {
      Conode.comp_names = Array.map (fun (c : H.comp_info) -> c.H.comp_name) components;
      roles =
        Array.map
          (fun (c : H.comp_info) ->
            match c.H.comp_kind with `Rel m -> m.H.rm_role | `Node -> "")
          components;
      dense;
      index;
      off_index = Int_tbl.create 8;
      far;
      out_off;
      out_items = Array.make out_off.(len + 1) no_item;
      in_off;
      in_items = Array.make in_off.(len + 1) no_item;
      last_rel = { Conode.name = ""; no = -1 };
    }
  in
  (* The node in slot [k] (id [id]), made in component [c] at its first
     mention.  Made for a partner, it is a value-less stub until its row
     arrives; its row may never ship (component not in TAKE), and the
     stub keeps the topology navigable: connections carry ids, not
     values. *)
  let node_at c id k =
    let n = if k < dense then index.(k) else far_nodes.(k - dense) in
    if n != absent then n
    else begin
      let store = comps.(c) in
      let n =
        {
          Conode.id;
          comp = store.info.H.comp_name;
          values = [||];
          dirty = Conode.Clean;
          adj;
          edges = Conode.Shared;
        }
      in
      if k < dense then index.(k) <- n else far_nodes.(k - dense) <- n;
      push store n;
      n
    end
  in
  List.iter
    (fun item ->
      match item with
      | H.Row { comp; id; values } ->
        (* a partner named before its row is that row's node *)
        (node_at comp id (slot id)).Conode.values <- values
      | H.Conn { rel; parent; children; _ } ->
        let r = rel_of rel in
        let k = slot parent in
        ignore (node_at r.r_parent parent k);
        let p = out_off.(k + 1) in
        adj.Conode.out_items.(p) <- item;
        out_off.(k + 1) <- p + 1;
        for i = 0 to Array.length children - 1 do
          let id = children.(i) in
          let k = slot id in
          ignore (node_at r.r_children.(i) id k);
          let p = in_off.(k + 1) in
          adj.Conode.in_items.(p) <- item;
          in_off.(k + 1) <- p + 1
        done)
    stream.H.items;
  Int_tbl.iter
    (fun id k -> Int_tbl.replace adj.Conode.off_index id far_nodes.(k))
    far;
  {
    header = stream.H.header;
    stores;
    adj;
    next_local_id = -1;
    pending = [];
    conn_count = !conns;
  }

let live_count store =
  let n = ref 0 in
  for i = 0 to store.count - 1 do
    if not (Conode.is_deleted store.nodes.(i)) then incr n
  done;
  !n

(** Live nodes of a component (arrival order, deletions hidden). *)
let nodes ws comp =
  let store = find_store ws comp and acc = ref [] in
  for i = store.count - 1 downto 0 do
    let n = store.nodes.(i) in
    if not (Conode.is_deleted n) then acc := n :: !acc
  done;
  !acc

let node_count ws comp = live_count (find_store ws comp)
let connection_count ws = ws.conn_count

let find_by_id ws id = Conode.find ws.adj id

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
  let comps = ws.header.H.components and n = ref 0 in
  for c = 0 to Array.length comps - 1 do
    n := !n + live_count (Hashtbl.find ws.stores comps.(c).H.comp_name)
  done;
  !n

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
  let node =
    {
      Conode.id = fresh_local_id ws;
      comp;
      values = row;
      dirty = Conode.Inserted;
      adj = ws.adj;
      edges = Conode.Own { outs = [||]; ins = [||] };
    }
  in
  push store node;
  Int_tbl.replace ws.adj.Conode.off_index node.Conode.id node;
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

(* [a] without the item [c]; [a] itself when it does not hold [c].  The
   edits below only ever replace a node's own arrays: the shared index
   and the stream's items are never written. *)
let without (c : H.item) (a : H.item array) =
  let n = Array.fold_left (fun n x -> if x == c then n else n + 1) 0 a in
  if n = Array.length a then a
  else begin
    let b = Array.make n no_item and j = ref 0 in
    Array.iter
      (fun x ->
        if x != c then begin
          b.(!j) <- x;
          incr j
        end)
      a;
    b
  end

let partner ws id = Option.get (Conode.find ws.adj id)

(* Drop [c] from the items of each of its partners except [keep]. *)
let unlink ?(keep = absent) ws (c : H.item) =
  match c with
  | H.Conn { parent; children; _ } ->
    let p = partner ws parent in
    if p != keep then begin
      let o = Conode.own p in
      o.Conode.outs <- without c o.Conode.outs
    end;
    Array.iter
      (fun id ->
        let ch = partner ws id in
        if ch != keep then begin
          let o = Conode.own ch in
          o.Conode.ins <- without c o.Conode.ins
        end)
      children
  | H.Row _ -> ()

let delete ws (node : Conode.t) : unit =
  if Conode.is_deleted node then ()
  else begin
    node.Conode.dirty <- Conode.Deleted;
    (* drop its connections from partners, counting each once: a
       self-loop is in both arrays, and a connection naming the node in
       several partner slots fills that many adjacent in-slots *)
    let o = Conode.own node in
    let outs = o.Conode.outs and ins = o.Conode.ins in
    Array.iter (unlink ~keep:node ws) outs;
    let gone = ref (Array.length outs) in
    Array.iteri
      (fun i c ->
        match c with
        | H.Conn { parent; _ }
          when parent <> node.Conode.id && (i = 0 || ins.(i - 1) != c) ->
          unlink ~keep:node ws c;
          incr gone
        | _ -> ())
      ins;
    ws.conn_count <- ws.conn_count - !gone;
    ws.pending <-
      P_delete { comp = node.Conode.comp; values = Array.copy node.Conode.values }
      :: ws.pending
  end

(** Connect [parent] and [child] under binary relationship [rel]: a
    fresh connection item with a negative id, in both nodes' own
    arrays. *)
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
  let item =
    H.Conn
      {
        rel = comp_no ws.header.H.components rel;
        id = fresh_local_id ws;
        parent = parent.Conode.id;
        children = [| child.Conode.id |];
        attrs = [||];
      }
  in
  let po = Conode.own parent in
  po.Conode.outs <- Array.append po.Conode.outs [| item |];
  let co = Conode.own child in
  co.Conode.ins <- Array.append co.Conode.ins [| item |];
  ws.conn_count <- ws.conn_count + 1;
  ws.pending <-
    P_connect
      {
        rel;
        parent = Array.copy parent.Conode.values;
        child = Array.copy child.Conode.values;
      }
    :: ws.pending;
  Conode.view ws.adj item

let disconnect ws ~rel (parent : Conode.t) (child : Conode.t) : unit =
  let r = if Hashtbl.mem ws.stores rel then comp_no ws.header.H.components rel else -1 in
  let existing =
    List.filter
      (function
        | H.Conn c -> c.rel = r && Array.mem child.Conode.id c.children
        | H.Row _ -> false)
      (Array.to_list (Conode.out_items parent))
  in
  if existing = [] then
    Errors.execution_error "no %S connection between these nodes" rel;
  List.iter (unlink ws) existing;
  ws.conn_count <- ws.conn_count - List.length existing;
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
