(** Table statistics for the cost model.

    Per-column distinct-value counts (NDV) come from one of two places.
    A column that is the whole key of an index reads that index's
    distinct-key count ({!Index.cardinality}), which DML maintains at
    O(1) per row and which counts NULL as one key, as the scan does.
    Any other column is counted by a full scan, cached until the
    table's version counter moves (any DML, including an UPDATE that
    keeps the row count).  Cache entries are held weakly by their
    table: a dropped table, a discarded database or a recursive CO's
    per-compile delta tables take their entries with them. *)

open Relcore

type entry = { at_version : int; ndv : int }

(* keyed by the table itself, weakly, so an entry dies with its table;
   physical equality, hashed by the process-unique tid *)
module Tables = Ephemeron.K1.Make (struct
  type t = Base_table.t

  let equal = ( == )
  let hash t = Hashtbl.hash (Base_table.tid t)
end)

(* per table: column -> entry *)
let cache : (int, entry) Hashtbl.t Tables.t = Tables.create 16

(* the cache is process-global and plan compilation runs from
   concurrent server sessions (snapshot readers plan outside the big
   lock), so every access goes through this mutex *)
let cache_mu = Mutex.create ()

let scan_ndv (table : Base_table.t) (col : int) : int =
  let version = Base_table.version table in
  let cols, hit =
    Mutex.protect cache_mu (fun () ->
        let cols =
          match Tables.find_opt cache table with
          | Some cols -> cols
          | None ->
            let cols = Hashtbl.create 4 in
            Tables.replace cache table cols;
            cols
        in
        match Hashtbl.find_opt cols col with
        | Some e when e.at_version = version -> (cols, Some e.ndv)
        | _ -> (cols, None))
  in
  match hit with
  | Some ndv -> ndv
  | None ->
    let card = Base_table.cardinality table in
    let seen = Hashtbl.create (max 16 card) in
    Base_table.iter
      (fun _rid tuple -> Hashtbl.replace seen (Value.hash tuple.(col), tuple.(col)) ())
      table;
    let ndv = Hashtbl.length seen in
    Mutex.protect cache_mu (fun () ->
        Hashtbl.replace cols col { at_version = version; ndv });
    ndv

(** Number of distinct values in column [col] of [table]: the key count
    of an index on exactly that column, else the cached scan. *)
let column_ndv (table : Base_table.t) (col : int) : int =
  match Base_table.index_on table [| col |] with
  | Some idx -> Index.cardinality idx
  | None -> scan_ndv table col

(** Tables with live scan-cache entries. *)
let cached_tables () =
  Mutex.protect cache_mu (fun () -> (Tables.stats_alive cache).num_bindings)

(** Selectivity of an equality against a constant on this column. *)
let eq_const_selectivity table col =
  let ndv = max 1 (column_ndv table col) in
  1.0 /. float_of_int ndv

(** Selectivity of an equi-join between two base columns: the classic
    1 / max(ndv_left, ndv_right). *)
let eq_join_selectivity t1 c1 t2 c2 =
  let n1 = max 1 (column_ndv t1 c1) and n2 = max 1 (column_ndv t2 c2) in
  1.0 /. float_of_int (max n1 n2)

(** Zone-derived [lo, hi] of a numeric column over live rows, possibly
    conservative (never narrower than the data).  Reads the columnar
    store's aggregated chunk zone maps — O(chunks), no table scan — so
    it needs no version cache.  [None] when the colstore knob is off or
    the column is non-numeric / all-NULL / empty. *)
let column_range (table : Base_table.t) (col : int) :
    (Value.t * Value.t) option =
  if not (Colstore.enabled ()) then None
  else Colstore.col_range table.Base_table.colstore col

(** Fraction of live rows holding NULL in the column, from zone null
    counts.  [None] when the colstore knob is off or the table is
    empty. *)
let null_fraction (table : Base_table.t) (col : int) : float option =
  if not (Colstore.enabled ()) then None
  else
    let card = Base_table.cardinality table in
    if card <= 0 then None
    else
      Some
        (float_of_int (Colstore.col_null_count table.Base_table.colstore col)
        /. float_of_int card)

