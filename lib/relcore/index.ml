(** Hash index over a base table.

    Maps a key (the sub-tuple of the indexed columns) to the set of rids
    holding that key.  Supports unique and non-unique variants.

    Postings are growable int arrays rather than lists: probing with
    {!iter} allocates nothing, which matters on the index-join hot path
    where every outer row probes.  Postings are kept rid-sorted
    ascending, so the index layout is a pure function of the current row
    set — MVCC-lite snapshot readers can reproduce the exact probe order
    from a frozen slot array alone, with no insertion history.  {!iter}
    and {!lookup} walk descending rid; for append-only tables that is
    the same newest-first order the historical cons-list produced, so
    result orderings (and CO-view byte identity) are unchanged there. *)

type posting = { mutable rids : Heap.rid array; mutable n : int }

type t = {
  name : string;
  key_columns : int array; (* positions within the table schema *)
  unique : bool;
  entries : posting Tuple.Tbl.t;
}

let create ~name ~key_columns ~unique =
  { name; key_columns; unique; entries = Tuple.Tbl.create 64 }

let clear idx = Tuple.Tbl.reset idx.entries

let key_of idx tuple = Tuple.key tuple idx.key_columns

(** Descending rid (newest-first for append-only tables). *)
let iter idx key f =
  match Tuple.Tbl.find_opt idx.entries key with
  | None -> ()
  | Some p ->
    for i = p.n - 1 downto 0 do
      f p.rids.(i)
    done

let lookup idx key =
  match Tuple.Tbl.find_opt idx.entries key with
  | None -> []
  | Some p ->
    let acc = ref [] in
    for i = 0 to p.n - 1 do
      acc := p.rids.(i) :: !acc
    done;
    !acc

let mem idx key =
  match Tuple.Tbl.find_opt idx.entries key with
  | Some p -> p.n > 0
  | None -> false

let mem_tuple idx tuple = mem idx (key_of idx tuple)

let insert idx rid tuple =
  let key = key_of idx tuple in
  match Tuple.Tbl.find_opt idx.entries key with
  | Some p ->
    if idx.unique && p.n > 0 then
      Errors.constraint_error "unique index %S violated by key %s" idx.name
        (Tuple.to_string key);
    if p.n = Array.length p.rids then begin
      let bigger = Array.make (2 * p.n) 0 in
      Array.blit p.rids 0 bigger 0 p.n;
      p.rids <- bigger
    end;
    (* sorted insertion keeps the posting rid-ascending; fresh rids are
       almost always the largest seen, so the common case is an O(1)
       append and the shift only pays on slot recycling *)
    let i = ref p.n in
    while !i > 0 && p.rids.(!i - 1) > rid do
      p.rids.(!i) <- p.rids.(!i - 1);
      decr i
    done;
    p.rids.(!i) <- rid;
    p.n <- p.n + 1
  | None ->
    let rids = Array.make 2 0 in
    rids.(0) <- rid;
    Tuple.Tbl.add idx.entries key { rids; n = 1 }

let remove idx rid tuple =
  let key = key_of idx tuple in
  match Tuple.Tbl.find_opt idx.entries key with
  | None -> ()
  | Some p ->
    let k = ref 0 in
    for i = 0 to p.n - 1 do
      if p.rids.(i) <> rid then begin
        p.rids.(!k) <- p.rids.(i);
        incr k
      end
    done;
    p.n <- !k;
    if p.n = 0 then Tuple.Tbl.remove idx.entries key

let cardinality idx = Tuple.Tbl.length idx.entries
