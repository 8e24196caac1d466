(** Columnar chunk mirror of the slotted heap.

    Each base table maintains, alongside the row heap, a column-major
    copy of the same slots.  The copy is chunked: slot [rid] of the
    heap is row [rid mod chunk_rows] of chunk [rid / chunk_rows], so a
    chunk-ascending scan visits rows in exactly the heap-scan order and
    the row store stays a byte-identical fallback and equivalence
    oracle.

    A chunk holds unboxed arrays ([int array] / [float array] / [Bytes]
    for bools, dictionary codes for strings) plus a per-column null
    bitmap.  Alongside the chunks sit the block index — zone maps, the
    live bitmap and per-chunk live counts — so chunk pruning, by
    predicate zones or join-filter key ranges, decides before a
    chunk's arrays are read.

    Zone maps are widened on insert and only invalidated (never
    shrunk) on delete/update, so they are always conservative: pruning
    a chunk can only lose an opportunity, never a row.  All maintenance
    happens inside the same {!Base_table} mutations that bump
    {!Heap.version}, so every version-keyed cache (plan statistics,
    CO-view results) that snapshots zone-derived data is invalidated by
    the same counter. *)

(* ------------------------------------------------------------------ *)
(* Knobs                                                               *)
(* ------------------------------------------------------------------ *)
(* XNFDB_COLSTORE gates *use* of the columnar path (executor scans, key
   extraction, planner statistics); maintenance is always on so the
   knob can be flipped mid-process and both paths stay coherent. *)
let enabled () =
  match Sys.getenv_opt "XNFDB_COLSTORE" with
  | Some ("0" | "false" | "off" | "no") -> false
  | Some _ | None -> true

let default_chunk_rows = 1024

let chunk_rows_env () =
  match Sys.getenv_opt "XNFDB_CHUNK_ROWS" with
  | Some s -> (try max 16 (int_of_string (String.trim s)) with _ -> default_chunk_rows)
  | None -> default_chunk_rows

(* ------------------------------------------------------------------ *)
(* Process-wide counters (surfaced by [explain])                       *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable chunks_scanned : int;
  mutable chunks_skipped : int;
  mutable rows_materialized : int;
}

let totals = { chunks_scanned = 0; chunks_skipped = 0; rows_materialized = 0 }

let add_totals ~scanned ~skipped ~materialized =
  totals.chunks_scanned <- totals.chunks_scanned + scanned;
  totals.chunks_skipped <- totals.chunks_skipped + skipped;
  totals.rows_materialized <- totals.rows_materialized + materialized

(* ------------------------------------------------------------------ *)
(* Bitmaps                                                             *)
(* ------------------------------------------------------------------ *)

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

let bitmap_bytes slots = (slots + 7) lsr 3

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

type cdata =
  | D_int of int array (* Tint values; Tstr dictionary codes *)
  | D_float of float array
  | D_bool of Bytes.t

(* One column of one chunk: [chunk_rows] unboxed cells plus a
   chunk-local null bitmap. *)
type hcol = { hdata : cdata; hnulls : Bytes.t }


(* Per-column, per-chunk zone map.  [z_lo_*]/[z_hi_*] are meaningful
   only when [z_nonnull > 0]; the int pair serves Tint (values), Tstr
   (dictionary codes — numeric code order, sound for equality pruning
   only) and Tbool (0/1).  Float bounds follow [Float.compare] order,
   so a stored NaN drags [z_lo_f] down to NaN and keeps pruning sound.
   [z_tight] records whether the bounds are exact or merely
   conservative (false after a delete/update removed a value while the
   chunk stayed non-empty). *)
type zone = {
  mutable z_nonnull : int;
  mutable z_lo_i : int;
  mutable z_hi_i : int;
  mutable z_lo_f : float;
  mutable z_hi_f : float;
  mutable z_tight : bool;
}

type col = {
  dtype : Dtype.t;
  mutable zones : zone array; (* one per chunk *)
}

(* A chunk is its columns' arrays.  [[||]] is the unallocated sentinel:
   a chunk no DML has touched yet owns no arrays (its live count is 0,
   so scans skip it before ever indexing the arrays). *)
type t = {
  chunk_rows : int;
  cols : col array;
  mutable chunks : hcol array array; (* one per allocated chunk *)
  mutable live : Bytes.t; (* bit set = slot holds a live row *)
  mutable live_per_chunk : int array;
  mutable cap : int; (* allocated slots (a multiple of chunk_rows) *)
  mutable hi : int; (* slots ever used; mirrors Heap.capacity *)
  dict : (string, int) Hashtbl.t; (* per-table string dictionary *)
  mutable dict_rev : string array;
  mutable dict_n : int;
}

let fresh_zone () =
  {
    z_nonnull = 0;
    z_lo_i = max_int;
    z_hi_i = min_int;
    z_lo_f = infinity;
    z_hi_f = neg_infinity;
    z_tight = true;
  }

let create schema =
  let chunk_rows = chunk_rows_env () in
  let cap = chunk_rows in
  let mk_col (c : Schema.column) = { dtype = c.Schema.dtype; zones = [| fresh_zone () |] } in
  {
    chunk_rows;
    cols = Array.map mk_col (Array.of_list (Schema.columns schema));
    chunks = [| [||] |];
    live = Bytes.make (bitmap_bytes cap) '\000';
    live_per_chunk = [| 0 |];
    cap;
    hi = 0;
    dict = Hashtbl.create 64;
    dict_rev = Array.make 16 "";
    dict_n = 0;
  }

let chunk_rows t = t.chunk_rows
let n_chunks t = (t.hi + t.chunk_rows - 1) / t.chunk_rows
let live_in_chunk t c = t.live_per_chunk.(c)

(** Reset to empty, keeping the string dictionary (codes stay valid for
    re-inserted strings).  Chunk arrays are dropped. *)
let clear t =
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  Array.fill t.live_per_chunk 0 (Array.length t.live_per_chunk) 0;
  t.hi <- 0;
  Array.iter
    (fun col -> Array.iteri (fun i _ -> col.zones.(i) <- fresh_zone ()) col.zones)
    t.cols;
  Array.fill t.chunks 0 (Array.length t.chunks) [||]

(* ------------------------------------------------------------------ *)
(* Growth                                                              *)
(* ------------------------------------------------------------------ *)

let grow_bitmap old new_cap =
  let b = Bytes.make (bitmap_bytes new_cap) '\000' in
  Bytes.blit old 0 b 0 (Bytes.length old);
  b

(* Chunk data arrays are per-chunk and allocated on first touch, so
   growth only extends the index structures (live bitmap, per-chunk
   counters, zones, chunk slots) — never copies cell data and never
   allocates arrays for slots no DML has reached. *)
let ensure t rid =
  if rid >= t.cap then begin
    let new_cap =
      let c = ref (max t.cap t.chunk_rows) in
      while rid >= !c do
        c := !c * 2
      done;
      (* round up to a whole number of chunks *)
      (!c + t.chunk_rows - 1) / t.chunk_rows * t.chunk_rows
    in
    let nchunks = new_cap / t.chunk_rows in
    Array.iter
      (fun col ->
        col.zones <-
          Array.init nchunks (fun i ->
              if i < Array.length col.zones then col.zones.(i) else fresh_zone ()))
      t.cols;
    t.live <- grow_bitmap t.live new_cap;
    t.live_per_chunk <-
      Array.init nchunks (fun i ->
          if i < Array.length t.live_per_chunk then t.live_per_chunk.(i) else 0);
    t.chunks <-
      Array.init nchunks (fun i -> if i < Array.length t.chunks then t.chunks.(i) else [||]);
    t.cap <- new_cap
  end

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

let dict_add t s =
  match Hashtbl.find_opt t.dict s with
  | Some c -> c
  | None ->
    let c = t.dict_n in
    if c >= Array.length t.dict_rev then begin
      let b = Array.make (max 16 (2 * Array.length t.dict_rev)) "" in
      Array.blit t.dict_rev 0 b 0 t.dict_n;
      t.dict_rev <- b
    end;
    t.dict_rev.(c) <- s;
    t.dict_n <- c + 1;
    Hashtbl.add t.dict s c;
    c

let dict_find t s = Hashtbl.find_opt t.dict s
let dict_size t = t.dict_n

let dict_string t code =
  if code < 0 || code >= t.dict_n then invalid_arg "Colstore.dict_string";
  t.dict_rev.(code)

(* ------------------------------------------------------------------ *)
(* Chunk allocation                                                    *)
(* ------------------------------------------------------------------ *)

let alloc_hcols t =
  Array.map
    (fun col ->
      let hdata =
        match col.dtype with
        | Dtype.Tint | Dtype.Tstr -> D_int (Array.make t.chunk_rows 0)
        | Dtype.Tfloat -> D_float (Array.make t.chunk_rows 0.)
        | Dtype.Tbool -> D_bool (Bytes.make t.chunk_rows '\000')
      in
      { hdata; hnulls = Bytes.make (bitmap_bytes t.chunk_rows) '\000' })
    t.cols

(* The arrays of chunk [c], allocated on first touch — the single
   write-path entry into a chunk. *)
let chunk_cols t c : hcol array =
  match t.chunks.(c) with
  | [||] ->
    let h = alloc_hcols t in
    t.chunks.(c) <- h;
    h
  | h -> h

(* ------------------------------------------------------------------ *)
(* Zone maintenance                                                    *)
(* ------------------------------------------------------------------ *)

(* Float bounds follow Float.compare order (NaN below everything), not
   IEEE [<], so zones classify NaN the same way Value.compare does. *)
let fmin a b = if Float.compare a b <= 0 then a else b
let fmax a b = if Float.compare a b >= 0 then a else b

let zone_add_i z x =
  if z.z_nonnull = 0 then begin
    z.z_lo_i <- x;
    z.z_hi_i <- x;
    z.z_tight <- true
  end
  else begin
    if x < z.z_lo_i then z.z_lo_i <- x;
    if x > z.z_hi_i then z.z_hi_i <- x
  end;
  z.z_nonnull <- z.z_nonnull + 1

let zone_add_f z x =
  if z.z_nonnull = 0 then begin
    z.z_lo_f <- x;
    z.z_hi_f <- x;
    z.z_tight <- true
  end
  else begin
    z.z_lo_f <- fmin z.z_lo_f x;
    z.z_hi_f <- fmax z.z_hi_f x
  end;
  z.z_nonnull <- z.z_nonnull + 1

let zone_remove z =
  z.z_nonnull <- z.z_nonnull - 1;
  if z.z_nonnull = 0 then begin
    (* empty again: bounds reset, so a recycled tombstone chunk regains
       exact zones on the next insert *)
    z.z_lo_i <- max_int;
    z.z_hi_i <- min_int;
    z.z_lo_f <- infinity;
    z.z_hi_f <- neg_infinity;
    z.z_tight <- true
  end
  else z.z_tight <- false

(* ------------------------------------------------------------------ *)
(* Cell writes                                                         *)
(* ------------------------------------------------------------------ *)

(* Values reaching here are schema-coerced (Schema.validate_row), so a
   Tint column only ever sees Int/Null, Tfloat only Float/Null, etc.
   [l] is the chunk-local row of chunk [c]. *)
let set_cell t (h : hcol array) ci c l (v : Value.t) =
  let hc = h.(ci) in
  let z = t.cols.(ci).zones.(c) in
  match v with
  | Value.Null -> bit_set hc.hnulls l
  | Value.Int x ->
    bit_clear hc.hnulls l;
    (match hc.hdata with D_int a -> a.(l) <- x | _ -> assert false);
    zone_add_i z x
  | Value.Float x ->
    bit_clear hc.hnulls l;
    (match hc.hdata with D_float a -> a.(l) <- x | _ -> assert false);
    zone_add_f z x
  | Value.Str s ->
    bit_clear hc.hnulls l;
    let code = dict_add t s in
    (match hc.hdata with D_int a -> a.(l) <- code | _ -> assert false);
    zone_add_i z code
  | Value.Bool b ->
    bit_clear hc.hnulls l;
    (match hc.hdata with
    | D_bool a -> Bytes.unsafe_set a l (if b then '\001' else '\000')
    | _ -> assert false);
    zone_add_i z (if b then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Maintenance entry points (called from Base_table DML)               *)
(* ------------------------------------------------------------------ *)

let insert t rid (tuple : Tuple.t) =
  ensure t rid;
  if rid >= t.hi then t.hi <- rid + 1;
  let c = rid / t.chunk_rows in
  let l = rid - (c * t.chunk_rows) in
  bit_set t.live rid;
  t.live_per_chunk.(c) <- t.live_per_chunk.(c) + 1;
  if Array.length t.cols > 0 then begin
    let h = chunk_cols t c in
    Array.iteri (fun ci v -> set_cell t h ci c l v) tuple
  end

(* Deletes only touch the live bitmap and zones: the dead row's cells
   stay in the arrays as garbage the live bitmap masks out. *)
let delete t rid (old : Tuple.t) =
  let c = rid / t.chunk_rows in
  bit_clear t.live rid;
  t.live_per_chunk.(c) <- t.live_per_chunk.(c) - 1;
  Array.iteri
    (fun ci v -> if not (Value.is_null v) then zone_remove t.cols.(ci).zones.(c))
    old

let update t rid ~(old : Tuple.t) (tuple : Tuple.t) =
  let c = rid / t.chunk_rows in
  let l = rid - (c * t.chunk_rows) in
  if Array.length t.cols > 0 then begin
    let h = chunk_cols t c in
    Array.iteri
      (fun ci v ->
        if not (Value.is_null old.(ci)) then zone_remove t.cols.(ci).zones.(c);
        set_cell t h ci c l v)
      tuple
  end

(* ------------------------------------------------------------------ *)
(* Column statistics (planner)                                         *)
(* ------------------------------------------------------------------ *)

let col_null_count t ci =
  let col = t.cols.(ci) in
  let n = ref 0 in
  for c = 0 to n_chunks t - 1 do
    n := !n + (t.live_per_chunk.(c) - col.zones.(c).z_nonnull)
  done;
  !n

(* Aggregate zone bounds into a (possibly conservative) value range.
   Meaningless for strings (dictionary-code order) and trivial for
   bools, so only Tint/Tfloat report one. *)
let col_range t ci =
  let col = t.cols.(ci) in
  match col.dtype with
  | Dtype.Tstr | Dtype.Tbool -> None
  | Dtype.Tint ->
    let lo = ref max_int and hi = ref min_int and any = ref false in
    for c = 0 to n_chunks t - 1 do
      let z = col.zones.(c) in
      if z.z_nonnull > 0 then begin
        any := true;
        if z.z_lo_i < !lo then lo := z.z_lo_i;
        if z.z_hi_i > !hi then hi := z.z_hi_i
      end
    done;
    if !any then Some (Value.Int !lo, Value.Int !hi) else None
  | Dtype.Tfloat ->
    let lo = ref infinity and hi = ref neg_infinity and any = ref false in
    for c = 0 to n_chunks t - 1 do
      let z = col.zones.(c) in
      if z.z_nonnull > 0 then begin
        any := true;
        lo := fmin !lo z.z_lo_f;
        hi := fmax !hi z.z_hi_f
      end
    done;
    if !any then Some (Value.Float !lo, Value.Float !hi) else None

let col_tight t ci =
  Array.for_all (fun z -> z.z_tight) t.cols.(ci).zones

(* ------------------------------------------------------------------ *)
(* Predicate atoms and compiled chunk kernels                          *)
(* ------------------------------------------------------------------ *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type atom =
  | A_cmp of int * cmp * Value.t (* column <op> constant *)
  | A_is_null of int
  | A_not_null of int

(* A compiled atom carries a pass-mask indexed by the sign of
   [compare value const]: (pass_lt, pass_eq, pass_gt).  One mask covers
   all six operators, and chunk pruning is the uniform test "no sign a
   zone value can take has a true mask bit". *)
type catom =
  | K_int of int * bool * bool * bool * int
  | K_float of int * bool * bool * bool * float
  | K_code of int * bool * bool * bool * int (* dictionary-code space *)
  | K_null of int
  | K_not_null of int
  | K_none (* statically empty, e.g. Eq on a string absent from the dict *)

let mask_of = function
  | Ceq -> (false, true, false)
  | Cne -> (true, false, true)
  | Clt -> (true, false, false)
  | Cle -> (true, true, false)
  | Cgt -> (false, false, true)
  | Cge -> (false, true, true)

(* Can [float_of_int k] represent k exactly?  (Always true below 2^53.) *)
let int_exact_as_float k =
  let f = float_of_int k in
  match Value.int_key_of_float f with Some k' -> k' = k | None -> false

let compile_atom t atom : catom option =
  match atom with
  | A_is_null ci -> Some (K_null ci)
  | A_not_null ci -> Some (K_not_null ci)
  | A_cmp (_, _, Value.Null) ->
    (* comparison with NULL is unknown everywhere: statically empty *)
    Some K_none
  | A_cmp (ci, op, const) ->
    let lt, eq, gt = mask_of op in
    (match t.cols.(ci).dtype, const with
    | Dtype.Tint, Value.Int k -> Some (K_int (ci, lt, eq, gt, k))
    | Dtype.Tint, Value.Float f ->
      (* exact int-vs-float semantics: only fold the constant into the
         int kernel when the float is itself an exact int *)
      (match Value.int_key_of_float f with
      | Some k -> Some (K_int (ci, lt, eq, gt, k))
      | None -> None)
    | Dtype.Tfloat, Value.Float f -> Some (K_float (ci, lt, eq, gt, f))
    | Dtype.Tfloat, Value.Int k when int_exact_as_float k ->
      Some (K_float (ci, lt, eq, gt, float_of_int k))
    | Dtype.Tstr, Value.Str s ->
      (match op with
      | Ceq ->
        (match dict_find t s with
        | Some code -> Some (K_code (ci, false, true, false, code))
        | None -> Some K_none)
      | Cne ->
        (match dict_find t s with
        | Some code -> Some (K_code (ci, true, false, true, code))
        | None ->
          (* string absent from the table: every non-null row differs *)
          Some (K_not_null ci))
      | Clt | Cle | Cgt | Cge ->
        (* dictionary codes are append-ordered, not lexicographic *)
        None)
    | Dtype.Tbool, Value.Bool b ->
      (match op with
      | Ceq -> Some (K_code (ci, false, true, false, if b then 1 else 0))
      | Cne -> Some (K_code (ci, true, false, true, if b then 1 else 0))
      | Clt | Cle | Cgt | Cge -> None)
    | _ -> None)

(* Uses the dictionary, so only valid against the same store (and the
   dictionary is append-only, so codes never go stale). *)
let compile t atoms =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | a :: rest ->
      (match compile_atom t a with
      | Some k -> go (k :: acc) rest
      | None -> None)
  in
  go [] atoms

(* ------------------------------------------------------------------ *)
(* Chunk pruning                                                       *)
(* ------------------------------------------------------------------ *)

(* Which comparison signs can a value in [z_lo, z_hi] produce against
   the constant?  Prune when every possible sign has a false mask bit.
   Pruning reads only zones and live counts, never the chunk's arrays. *)
let prune_signs ~lt ~eq ~gt ~lo_sign ~hi_sign ~contains =
  let can_lt = lo_sign < 0 in
  let can_gt = hi_sign > 0 in
  let can_eq = contains in
  not ((can_lt && lt) || (can_eq && eq) || (can_gt && gt))

let prune_atom t catom chunk =
  let live = t.live_per_chunk.(chunk) in
  if live = 0 then true
  else
    match catom with
    | K_none -> true
    | K_null ci ->
      (* no live NULLs in this chunk *)
      t.cols.(ci).zones.(chunk).z_nonnull = live
    | K_not_null ci -> t.cols.(ci).zones.(chunk).z_nonnull = 0
    | K_int (ci, lt, eq, gt, k) | K_code (ci, lt, eq, gt, k) ->
      let z = t.cols.(ci).zones.(chunk) in
      if z.z_nonnull = 0 then true
      else
        prune_signs ~lt ~eq ~gt
          ~lo_sign:(Int.compare z.z_lo_i k)
          ~hi_sign:(Int.compare z.z_hi_i k)
          ~contains:(z.z_lo_i <= k && k <= z.z_hi_i)
    | K_float (ci, lt, eq, gt, k) ->
      let z = t.cols.(ci).zones.(chunk) in
      if z.z_nonnull = 0 then true
      else
        let lo_sign = Float.compare z.z_lo_f k
        and hi_sign = Float.compare z.z_hi_f k in
        prune_signs ~lt ~eq ~gt ~lo_sign ~hi_sign
          ~contains:(lo_sign <= 0 && hi_sign >= 0)

let prune_chunk t catoms chunk =
  t.live_per_chunk.(chunk) = 0
  || Array.exists (fun k -> prune_atom t k chunk) catoms

(* ------------------------------------------------------------------ *)
(* Selection-vector generation                                         *)
(* ------------------------------------------------------------------ *)

(* Fill [sel] with the live slot ids of [chunk], ascending.  Reads the
   live bitmap only. *)
let fill_live t chunk sel =
  let base = chunk * t.chunk_rows in
  let hi = min (base + t.chunk_rows) t.hi in
  let live = t.live in
  let m = ref 0 in
  for s = base to hi - 1 do
    if bit_get live s then begin
      Array.unsafe_set sel !m s;
      incr m
    end
  done;
  !m

(* Refine [sel.(0..n)] in place by one compiled atom against a
   chunk's arrays; returns the new length.  [base] converts global slot
   ids to chunk-local rows.  Comparison rows with a NULL cell never
   pass (SQL unknown). *)
let refine (h : hcol array) ~base catom sel n =
  match catom with
  | K_none -> 0
  | K_null ci ->
    let nulls = h.(ci).hnulls in
    let m = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get sel i in
      if bit_get nulls (s - base) then begin
        Array.unsafe_set sel !m s;
        incr m
      end
    done;
    !m
  | K_not_null ci ->
    let nulls = h.(ci).hnulls in
    let m = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get sel i in
      if not (bit_get nulls (s - base)) then begin
        Array.unsafe_set sel !m s;
        incr m
      end
    done;
    !m
  | K_int (ci, lt, eq, gt, k) | K_code (ci, lt, eq, gt, k) ->
    let hc = h.(ci) in
    let nulls = hc.hnulls in
    (match hc.hdata with
    | D_int a ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sel i in
        let l = s - base in
        if not (bit_get nulls l) then begin
          let v = Array.unsafe_get a l in
          if (if v < k then lt else if v = k then eq else gt) then begin
            Array.unsafe_set sel !m s;
            incr m
          end
        end
      done;
      !m
    | D_bool a ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sel i in
        let l = s - base in
        if not (bit_get nulls l) then begin
          let v = Char.code (Bytes.unsafe_get a l) in
          if (if v < k then lt else if v = k then eq else gt) then begin
            Array.unsafe_set sel !m s;
            incr m
          end
        end
      done;
      !m
    | D_float _ -> assert false)
  | K_float (ci, lt, eq, gt, k) ->
    let hc = h.(ci) in
    let nulls = hc.hnulls in
    (match hc.hdata with
    | D_float a ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sel i in
        let l = s - base in
        if not (bit_get nulls l) then begin
          (* Float.compare, not IEEE [<]: keeps NaN ordered exactly as
             the row path's Value.compare does *)
          let c = Float.compare (Array.unsafe_get a l) k in
          if (if c < 0 then lt else if c = 0 then eq else gt) then begin
            Array.unsafe_set sel !m s;
            incr m
          end
        end
      done;
      !m
    | D_int _ | D_bool _ -> assert false)

(* Selection vector for one chunk: live rows passing every atom,
   ascending slot order.  [sel] must have room for [chunk_rows]. *)
let select_chunk t catoms chunk sel =
  let n = ref (fill_live t chunk sel) in
  let h = t.chunks.(chunk) in
  let base = chunk * t.chunk_rows in
  let i = ref 0 in
  while !n > 0 && !i < Array.length catoms do
    n := refine h ~base catoms.(!i) sel !n;
    incr i
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Direct column access (join-key extraction)                          *)
(* ------------------------------------------------------------------ *)

let int_key_col t ci =
  ci >= 0 && ci < Array.length t.cols && t.cols.(ci).dtype = Dtype.Tint

let str_key_col t ci =
  ci >= 0 && ci < Array.length t.cols && t.cols.(ci).dtype = Dtype.Tstr

let key_chunk t ci chunk =
  let hc = t.chunks.(chunk).(ci) in
  match hc.hdata with
  | D_int a -> (a, hc.hnulls, chunk * t.chunk_rows)
  | D_float _ | D_bool _ -> invalid_arg "Colstore.key_chunk: not a key column"
