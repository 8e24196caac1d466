(** A base table: schema + heap storage + secondary indexes + optional
    primary key. *)

type t = {
  name : string;
  tid : int; (* process-unique table id; names can collide across databases *)
  schema : Schema.t;
  heap : Heap.t;
  colstore : Colstore.t; (* columnar mirror of the heap's slots *)
  mutable indexes : Index.t list;
  primary_key : int array option; (* column positions *)
}

let next_tid = Atomic.make 0

let create ?primary_key ~name schema =
  let pk_positions =
    Option.map
      (fun cols -> Array.of_list (List.map (Schema.find schema) cols))
      primary_key
  in
  let t =
    {
      name;
      tid = Atomic.fetch_and_add next_tid 1;
      schema;
      heap = Heap.create ();
      colstore = Colstore.create schema;
      indexes = [];
      primary_key = pk_positions;
    }
  in
  (match pk_positions with
  | Some key_columns ->
    t.indexes <-
      [ Index.create ~name:(name ^ "_pkey") ~key_columns ~unique:true ]
  | None -> ());
  t

let name t = t.name
let tid t = t.tid
let schema t = t.schema
let cardinality t = Heap.cardinality t.heap
let version t = Heap.version t.heap
let bump_version t = Heap.touch t.heap
let committed_version t = Heap.committed_version t.heap
let mark_committed t = Heap.mark_committed t.heap
let frozen_at t v = Heap.frozen_at t.heap v
let undo_bytes t = Heap.undo_bytes t.heap
let deltas_since t v = Heap.deltas_since t.heap v
let delta_mark t = Heap.delta_mark t.heap
let delta_rewind t mark = Heap.delta_rewind t.heap mark

(** Find an index whose key is exactly the given column positions (in
    order). *)
let index_on t positions =
  List.find_opt (fun i -> i.Index.key_columns = positions) t.indexes

let create_index t ~idx_name ~columns ~unique =
  let key_columns = Array.of_list (List.map (Schema.find t.schema) columns) in
  if List.exists (fun i -> String.equal i.Index.name idx_name) t.indexes then
    Errors.catalog_error "index %S already exists" idx_name;
  let idx = Index.create ~name:idx_name ~key_columns ~unique in
  Heap.iter (fun rid tuple -> Index.insert idx rid tuple) t.heap;
  t.indexes <- t.indexes @ [ idx ];
  idx

let insert t row =
  let tuple = Schema.validate_row t.schema row in
  (* Check uniques before touching any state so a violation leaves the
     table unchanged. *)
  List.iter
    (fun idx ->
      if idx.Index.unique && Index.mem_tuple idx tuple then
        Errors.constraint_error "unique index %S violated in table %S"
          idx.Index.name t.name)
    t.indexes;
  let rid = Heap.insert t.heap tuple in
  Colstore.insert t.colstore rid tuple;
  List.iter (fun idx -> Index.insert idx rid tuple) t.indexes;
  rid

let get t rid = Heap.get t.heap rid
let get_exn t rid = Heap.get_exn t.heap rid

let update t rid row =
  let tuple = Schema.validate_row t.schema row in
  let old_tuple = Heap.get_exn t.heap rid in
  List.iter
    (fun idx ->
      let new_key = Index.key_of idx tuple in
      if idx.Index.unique && not (Tuple.equal new_key (Index.key_of idx old_tuple))
      then
        if Index.mem idx new_key then
          Errors.constraint_error "unique index %S violated in table %S"
            idx.Index.name t.name)
    t.indexes;
  List.iter (fun idx -> Index.remove idx rid old_tuple) t.indexes;
  Heap.update t.heap rid tuple;
  Colstore.update t.colstore rid ~old:old_tuple tuple;
  List.iter (fun idx -> Index.insert idx rid tuple) t.indexes

let delete t rid =
  let old_tuple = Heap.get_exn t.heap rid in
  List.iter (fun idx -> Index.remove idx rid old_tuple) t.indexes;
  Heap.delete t.heap rid;
  Colstore.delete t.colstore rid old_tuple

let iter f t = Heap.iter f t.heap
let fold f acc t = Heap.fold f acc t.heap
let scan t = Heap.scan t.heap
let scan_into ?filter t ~from out ~start ~max =
  Heap.scan_into ?filter t.heap ~from out ~start ~max

(** Slots ever allocated (live rows may be fewer; tombstones are
    skipped). *)
let slot_count t = Heap.capacity t.heap

let to_list t = Heap.to_list t.heap

(** Remove every row and reset slot allocation: a refilled table scans
    in insertion order exactly like a fresh one, which the fixpoint
    evaluators' reused delta tables rely on for deterministic discovery
    order. *)
let truncate t =
  Heap.clear t.heap;
  Colstore.clear t.colstore;
  List.iter Index.clear t.indexes
