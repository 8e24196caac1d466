(** Two-tier columnar chunk mirror of the slotted heap.

    Each base table maintains, alongside the row heap, a column-major
    copy of the same slots.  The copy is chunked: slot [rid] of the
    heap is row [rid mod chunk_rows] of chunk [rid / chunk_rows], so a
    chunk-ascending scan visits rows in exactly the heap-scan order and
    the row store stays a byte-identical fallback and equivalence
    oracle.

    Chunks live in one of two tiers.  {e Hot} chunks hold today's
    unboxed arrays ([int array] / [float array] / [Bytes] for bools,
    dictionary codes for strings) plus a per-column null bitmap.
    {e Cold} chunks are encoded into a compact block — frame-of-
    reference + bit-packed ints, run-length runs, packed null bitmaps
    (see {!Encoding}) — and written to an unlinked mmap-backed spill
    file.  The [XNFDB_COLSTORE_MB] byte budget (per table; 0 or unset
    disables spilling entirely) is enforced with a clock sweep over
    full, unpinned chunks whenever the hot footprint grows.

    The block index never leaves memory: zone maps, the live bitmap and
    per-chunk live counts stay resident whatever the tier, so chunk
    pruning — by predicate zones or join-filter key ranges — decides
    without touching the spill file at all.  A pruned cold chunk is
    never decoded {e or faulted in}.  Predicate kernels evaluate
    directly on the encoded sections (constant/FOR compare, RLE run
    skipping), and only DML against a cold chunk promotes it back to
    hot arrays.

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

(* XNFDB_COLSTORE_MB: per-table hot-tier byte budget.  0 or unset
   disables the two-tier machinery completely (every chunk stays hot,
   exactly the pre-spill behavior).  Read at the points where the hot
   footprint can grow, so flipping it mid-process takes effect at the
   next chunk allocation or promotion. *)
let budget_bytes () =
  match Sys.getenv_opt "XNFDB_COLSTORE_MB" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some mb when mb > 0 -> mb * 1024 * 1024
    | _ -> 0)
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Process-wide counters (surfaced by [explain])                       *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable chunks_scanned : int;
  mutable chunks_skipped : int;
  mutable rows_materialized : int;
  mutable chunks_encoded : int; (* hot chunks encoded into cold blocks *)
  mutable chunks_decoded : int; (* cold chunks promoted back to hot (DML) *)
  mutable chunks_faulted : int; (* cold chunks read by scans (no promote) *)
  mutable chunks_evicted : int; (* budget-driven hot->cold transitions *)
  mutable bytes_spilled : int; (* cumulative encoded bytes written *)
  mutable bytes_faulted : int; (* cumulative bytes copied back by scans *)
}

let totals =
  {
    chunks_scanned = 0;
    chunks_skipped = 0;
    rows_materialized = 0;
    chunks_encoded = 0;
    chunks_decoded = 0;
    chunks_faulted = 0;
    chunks_evicted = 0;
    bytes_spilled = 0;
    bytes_faulted = 0;
  }

let add_totals ?(faulted = 0) ?(fbytes = 0) ~scanned ~skipped ~materialized () =
  totals.chunks_scanned <- totals.chunks_scanned + scanned;
  totals.chunks_skipped <- totals.chunks_skipped + skipped;
  totals.rows_materialized <- totals.rows_materialized + materialized;
  totals.chunks_faulted <- totals.chunks_faulted + faulted;
  totals.bytes_faulted <- totals.bytes_faulted + fbytes

(* Per-scan fault counters: scans (possibly many per domain) accumulate
   here and the executor folds them into its ctx and [totals] itself —
   the colstore never bumps process totals from read paths, so parallel
   workers stay race-free exactly like the existing chunk counters. *)
type scan_stats = { mutable faulted : int; mutable fbytes : int }

let scan_stats () = { faulted = 0; fbytes = 0 }

(* Process-wide tier gauges across every live store (EXPLAIN's spill line).
   Adjusted at tier transitions and reclaimed by [release] — which each
   store also runs as a GC finaliser, so dropped databases don't leave
   phantom bytes behind. *)
let g_resident = ref 0
let g_spilled = ref 0

let global_resident_bytes () = !g_resident
let global_spilled_bytes () = !g_spilled

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
(* Encoding: one chunk-column section                                  *)
(* ------------------------------------------------------------------ *)

module Encoding = struct
  (* A section encodes the [n] cells of one column of one chunk:

       byte 0          data tag: 0 raw64, 1 FOR/bit-packed, 2 RLE
       byte 1          null tag: 0 no live nulls, 1 all live rows null,
                                 2 bitmap follows
       bytes 2..       null bitmap ((n+7)/8 bytes) when null tag = 2
       payload         per data tag, all integers little-endian

     Payloads: raw64 is n × 8-byte values (floats as IEEE bit patterns,
     so NaN payloads and -0.0 round-trip exactly); FOR is an 8-byte
     base, a 1-byte width in [0, 63], and n bit-packed deltas (width 0
     means the column is constant); RLE is a 4-byte run count then
     (8-byte value, 4-byte length) runs.

     Values at dead or NULL positions are don't-care: the encoder
     overwrites them with the nearest preceding live value so runs stay
     long and FOR ranges narrow.  OCaml ints are 63-bit, so max - min
     always fits a non-negative [Int64] and FOR never overflows, even
     across [min_int .. max_int].  Floats only use raw64/RLE — their
     bit patterns have no exploitable linear order. *)

  let t_raw = 0
  let t_for = 1
  let t_rle = 2
  let n_none = 0
  let n_all = 1
  let n_bitmap = 2

  let data_tag (sec : Bytes.t) = Char.code (Bytes.get sec 0)
  let null_tag (sec : Bytes.t) = Char.code (Bytes.get sec 1)

  let payload_off (sec : Bytes.t) ~n =
    2 + if null_tag sec = n_bitmap then bitmap_bytes n else 0

  let is_null (sec : Bytes.t) l =
    match Char.code (Bytes.unsafe_get sec 1) with
    | 0 -> false
    | 1 -> true
    | _ -> Char.code (Bytes.unsafe_get sec (2 + (l lsr 3))) land (1 lsl (l land 7)) <> 0

  let get_u32 (b : Bytes.t) off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
  let set_u32 (b : Bytes.t) off v = Bytes.set_int32_le b off (Int32.of_int v)

  let bits_needed (r : int64) =
    let rec go n r = if r = 0L then n else go (n + 1) (Int64.shift_right_logical r 1) in
    go 0 r

  (* Read [bits] bits at bit position [bitpos] of the packed stream
     starting at byte [off]; byte-at-a-time, so the last value never
     reads past the payload. *)
  let get_bits (b : Bytes.t) ~off ~bitpos ~bits =
    let v = ref 0L and got = ref 0 and bp = ref bitpos in
    while !got < bits do
      let byte = off + (!bp lsr 3) and sh = !bp land 7 in
      let take = min (8 - sh) (bits - !got) in
      let piece = (Char.code (Bytes.unsafe_get b byte) lsr sh) land ((1 lsl take) - 1) in
      v := Int64.logor !v (Int64.shift_left (Int64.of_int piece) !got);
      got := !got + take;
      bp := !bp + take
    done;
    !v

  let pack_bits buf (vals : int64 array) (lo : int64) bits =
    let n = Array.length vals in
    let out = Bytes.make ((n * bits + 7) lsr 3) '\000' in
    let bitpos = ref 0 in
    for i = 0 to n - 1 do
      let d = ref (Int64.sub (Array.unsafe_get vals i) lo) in
      let bp = ref !bitpos and rem = ref bits in
      while !rem > 0 do
        let byte = !bp lsr 3 and sh = !bp land 7 in
        let take = min (8 - sh) !rem in
        let mask = (1 lsl take) - 1 in
        let piece = Int64.to_int (Int64.logand !d (Int64.of_int mask)) land mask in
        let cur = Char.code (Bytes.unsafe_get out byte) in
        Bytes.unsafe_set out byte (Char.unsafe_chr ((cur lor (piece lsl sh)) land 0xff));
        d := Int64.shift_right_logical !d take;
        bp := !bp + take;
        rem := !rem - take
      done;
      bitpos := !bitpos + bits
    done;
    Buffer.add_bytes buf out

  let encode_section ~raw ~allow_for ~n ~(get : int -> int64) ~(null : int -> bool)
      ~(live : int -> bool) : Bytes.t =
    if n = 0 then Bytes.of_string "\000\000"
    else begin
      let nlive = ref 0 and nnull = ref 0 in
      for l = 0 to n - 1 do
        if live l then begin
          incr nlive;
          if null l then incr nnull
        end
      done;
      let ntag =
        if !nnull = 0 then n_none
        else if !nnull = !nlive then n_all
        else n_bitmap
      in
      (* previous-live-value fill: dead/NULL cells carry garbage, so
         normalize them to keep runs long and the FOR range narrow *)
      let valid l = live l && not (null l) in
      let vals = Array.make n 0L in
      let first = ref 0L in
      (try
         for l = 0 to n - 1 do
           if valid l then begin
             first := get l;
             raise Exit
           end
         done
       with Exit -> ());
      let prev = ref !first in
      for l = 0 to n - 1 do
        if valid l then prev := get l;
        vals.(l) <- !prev
      done;
      let nruns = ref 1 in
      for l = 1 to n - 1 do
        if vals.(l) <> vals.(l - 1) then incr nruns
      done;
      let lo = ref vals.(0) and hi = ref vals.(0) in
      for l = 1 to n - 1 do
        if Int64.compare vals.(l) !lo < 0 then lo := vals.(l);
        if Int64.compare vals.(l) !hi > 0 then hi := vals.(l)
      done;
      let range = Int64.sub !hi !lo in
      let bits = bits_needed range in
      let size_raw = 8 * n in
      let size_for =
        (* a negative range means int64 overflow (impossible for 63-bit
           OCaml ints, possible for arbitrary test input): no FOR *)
        if allow_for && Int64.compare range 0L >= 0 && bits <= 63 then
          9 + ((n * bits + 7) lsr 3)
        else max_int
      in
      let size_rle = 4 + (12 * !nruns) in
      let dtag =
        if raw then t_raw
        else if size_for <= size_raw && size_for <= size_rle then t_for
        else if size_rle < size_raw then t_rle
        else t_raw
      in
      let buf = Buffer.create (2 + min size_raw (min size_for size_rle) + bitmap_bytes n) in
      Buffer.add_char buf (Char.chr dtag);
      Buffer.add_char buf (Char.chr ntag);
      if ntag = n_bitmap then begin
        let bm = Bytes.make (bitmap_bytes n) '\000' in
        for l = 0 to n - 1 do
          if null l then bit_set bm l
        done;
        Buffer.add_bytes buf bm
      end;
      (if dtag = t_raw then
         for l = 0 to n - 1 do
           Buffer.add_int64_le buf vals.(l)
         done
       else if dtag = t_for then begin
         Buffer.add_int64_le buf !lo;
         Buffer.add_char buf (Char.chr bits);
         if bits > 0 then pack_bits buf vals !lo bits
       end
       else begin
         let nb = Bytes.create 4 in
         set_u32 nb 0 !nruns;
         Buffer.add_bytes buf nb;
         let run_v = ref vals.(0) and run_len = ref 1 in
         let flush () =
           Buffer.add_int64_le buf !run_v;
           let lb = Bytes.create 4 in
           set_u32 lb 0 !run_len;
           Buffer.add_bytes buf lb
         in
         for l = 1 to n - 1 do
           if vals.(l) = !run_v then incr run_len
           else begin
             flush ();
             run_v := vals.(l);
             run_len := 1
           end
         done;
         flush ()
       end);
      Buffer.to_bytes buf
    end

  let decode_nulls_into (sec : Bytes.t) ~n (out : Bytes.t) =
    let nb = bitmap_bytes n in
    match null_tag sec with
    | 0 -> Bytes.fill out 0 nb '\000'
    | 1 -> Bytes.fill out 0 nb '\255'
    | _ -> Bytes.blit sec 2 out 0 nb

  (* Decode every position (dead/NULL cells yield the encoder's filler,
     gated by the live/null bitmaps exactly like hot garbage cells). *)
  let decode_i64 (sec : Bytes.t) ~n (set : int -> int64 -> unit) =
    let poff = payload_off sec ~n in
    match data_tag sec with
    | 0 ->
      for l = 0 to n - 1 do
        set l (Bytes.get_int64_le sec (poff + (8 * l)))
      done
    | 1 ->
      let base = Bytes.get_int64_le sec poff in
      let bits = Char.code (Bytes.get sec (poff + 8)) in
      if bits = 0 then
        for l = 0 to n - 1 do
          set l base
        done
      else begin
        let doff = poff + 9 in
        let bitpos = ref 0 in
        for l = 0 to n - 1 do
          set l (Int64.add base (get_bits sec ~off:doff ~bitpos:!bitpos ~bits));
          bitpos := !bitpos + bits
        done
      end
    | 2 ->
      let nruns = get_u32 sec poff in
      let pos = ref 0 in
      for r = 0 to nruns - 1 do
        let ro = poff + 4 + (r * 12) in
        let v = Bytes.get_int64_le sec ro in
        let len = get_u32 sec (ro + 8) in
        for _ = 1 to len do
          if !pos < n then set !pos v;
          incr pos
        done
      done
    | _ -> invalid_arg "Colstore.Encoding: corrupt data tag"

  let decode_ints_into sec ~n (out : int array) =
    decode_i64 sec ~n (fun l v -> Array.unsafe_set out l (Int64.to_int v))

  let decode_floats_into sec ~n (out : float array) =
    decode_i64 sec ~n (fun l v -> Array.unsafe_set out l (Int64.float_of_bits v))

  let decode_bools_into sec ~n (out : Bytes.t) =
    decode_i64 sec ~n (fun l v ->
        Bytes.unsafe_set out l (if Int64.equal v 0L then '\000' else '\001'))

  (* test-facing wrappers *)

  let encode_ints ?(raw = false) (a : int array) ~null ~live =
    encode_section ~raw ~allow_for:true ~n:(Array.length a)
      ~get:(fun l -> Int64.of_int a.(l))
      ~null ~live

  let decode_ints sec ~n =
    let out = Array.make n 0 and nulls = Bytes.make (bitmap_bytes n) '\000' in
    decode_ints_into sec ~n out;
    decode_nulls_into sec ~n nulls;
    (out, nulls)

  let encode_floats (a : float array) ~null ~live =
    encode_section ~raw:false ~allow_for:false ~n:(Array.length a)
      ~get:(fun l -> Int64.bits_of_float a.(l))
      ~null ~live

  let decode_floats sec ~n =
    let out = Array.make n 0. and nulls = Bytes.make (bitmap_bytes n) '\000' in
    decode_floats_into sec ~n out;
    decode_nulls_into sec ~n nulls;
    (out, nulls)
end

(* ------------------------------------------------------------------ *)
(* Spill file: unlinked temp file, mmap-grown, free-listed             *)
(* ------------------------------------------------------------------ *)

type map_t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type spill = {
  sp_fd : Unix.file_descr;
  mutable sp_map : map_t;
  mutable sp_cap : int; (* mapped bytes (file is at least this long) *)
  mutable sp_used : int; (* allocation high-water mark *)
  mutable sp_free : (int * int) list; (* (off, len), offset-sorted, coalesced *)
  mutable sp_closed : bool;
}

let map_fd fd len : map_t =
  (* [Unix.map_file] with a shared mapping extends the file to [len] *)
  Bigarray.array1_of_genarray (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| len |])

let spill_min_cap = 1 lsl 20

let spill_close sp =
  if not sp.sp_closed then begin
    sp.sp_closed <- true;
    try Unix.close sp.sp_fd with Unix.Unix_error _ -> ()
  end

let spill_create () =
  let path = Filename.temp_file "xnfdb-spill-" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0o600 in
  (* unlink immediately: the fd and mapping keep the storage reachable,
     and neither a crash nor an un-dropped table can leak a disk file *)
  (try Sys.remove path with Sys_error _ -> ());
  let sp =
    {
      sp_fd = fd;
      sp_map = map_fd fd spill_min_cap;
      sp_cap = spill_min_cap;
      sp_used = 0;
      sp_free = [];
      sp_closed = false;
    }
  in
  (* the fd is closed by [release]/[clear]; the finaliser only covers
     stores dropped without either (the guard makes double-close safe
     and never touches a recycled descriptor number) *)
  Gc.finalise spill_close sp;
  sp

(* First-fit over the coalesced free list, else bump the high-water
   mark, doubling the mapping as needed. *)
let spill_alloc sp len =
  let rec pick acc = function
    | [] -> None
    | (o, l) :: tl when l >= len ->
      let rest = if l > len then (o + len, l - len) :: tl else tl in
      sp.sp_free <- List.rev_append acc rest;
      Some o
    | e :: tl -> pick (e :: acc) tl
  in
  match pick [] sp.sp_free with
  | Some o -> o
  | None ->
    let o = sp.sp_used in
    sp.sp_used <- o + len;
    if sp.sp_used > sp.sp_cap then begin
      let cap = ref (max sp.sp_cap spill_min_cap) in
      while !cap < sp.sp_used do
        cap := !cap * 2
      done;
      sp.sp_map <- map_fd sp.sp_fd !cap;
      sp.sp_cap <- !cap
    end;
    o

let spill_free sp off len =
  let rec ins off len = function
    | [] -> [ (off, len) ]
    | (o, l) :: tl ->
      if off + len = o then (off, len + l) :: tl
      else if o + l = off then ins o (l + len) tl
      else if off < o then (off, len) :: (o, l) :: tl
      else (o, l) :: ins off len tl
  in
  sp.sp_free <- ins off len sp.sp_free

let spill_write sp off (b : Bytes.t) =
  let map = sp.sp_map in
  for i = 0 to Bytes.length b - 1 do
    Bigarray.Array1.unsafe_set map (off + i) (Bytes.unsafe_get b i)
  done

let map_u32 (m : map_t) off =
  Char.code (Bigarray.Array1.unsafe_get m off)
  lor (Char.code (Bigarray.Array1.unsafe_get m (off + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.unsafe_get m (off + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.unsafe_get m (off + 3)) lsl 24)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

type cdata =
  | D_int of int array (* Tint values; Tstr dictionary codes *)
  | D_float of float array
  | D_bool of Bytes.t

(* One column of one hot chunk: [chunk_rows] unboxed cells plus a
   chunk-local null bitmap. *)
type hcol = { hdata : cdata; hnulls : Bytes.t }

(* A chunk's tier.  [Hot [||]] is the unallocated sentinel: a chunk no
   DML has touched yet owns no arrays and costs no resident bytes (its
   live count is 0, so scans skip it before ever indexing the arrays).
   A [Cold] chunk is a directory-of-sections block in the spill file:
   (ncols+1) little-endian u32 section offsets, then the sections. *)
type tier =
  | Hot of hcol array
  | Cold of { c_off : int; c_len : int }

type chunk = {
  mutable tier : tier;
  mutable pins : int; (* scans holding the chunk's arrays/sections *)
  mutable refbit : bool; (* clock second-chance bit *)
}

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
  mutable zones : zone array; (* one per chunk — always resident *)
}

type t = {
  schema : Schema.t;
  chunk_rows : int;
  cols : col array;
  mutable chunks : chunk array; (* one per allocated chunk *)
  mutable live : Bytes.t; (* bit set = slot holds a live row; resident *)
  mutable live_per_chunk : int array;
  mutable cap : int; (* allocated slots (a multiple of chunk_rows) *)
  mutable hi : int; (* slots ever used; mirrors Heap.capacity *)
  dict : (string, int) Hashtbl.t; (* per-table string dictionary *)
  mutable dict_rev : string array;
  mutable dict_n : int;
  hcb : int; (* hot bytes per materialized chunk (schema constant) *)
  mutable n_hot : int; (* materialized hot chunks *)
  mutable n_cold : int; (* encoded chunks in the spill file *)
  mutable spilled : int; (* current encoded bytes in the spill file *)
  mutable spill : spill option; (* created lazily on first eviction *)
  mutable clock : int; (* eviction sweep hand *)
  mutable need_enforce : bool; (* hot footprint grew since last check *)
  mutable released : bool;
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

let fresh_chunk () = { tier = Hot [||]; pins = 0; refbit = false }

let hot_bytes_of schema chunk_rows =
  List.fold_left
    (fun acc (c : Schema.column) ->
      acc
      + (match c.Schema.dtype with Dtype.Tbool -> chunk_rows | _ -> 8 * chunk_rows)
      + bitmap_bytes chunk_rows)
    0 (Schema.columns schema)

(* forward-declared so [create] can register it as a finaliser *)
let release_ref = ref (fun (_ : t) -> ())
let release t = !release_ref t

let create schema =
  let chunk_rows = chunk_rows_env () in
  let cap = chunk_rows in
  let mk_col (c : Schema.column) = { dtype = c.Schema.dtype; zones = [| fresh_zone () |] } in
  let t =
    {
      schema;
      chunk_rows;
      cols = Array.map mk_col (Array.of_list (Schema.columns schema));
      chunks = [| fresh_chunk () |];
      live = Bytes.make (bitmap_bytes cap) '\000';
      live_per_chunk = [| 0 |];
      cap;
      hi = 0;
      dict = Hashtbl.create 64;
      dict_rev = Array.make 16 "";
      dict_n = 0;
      hcb = hot_bytes_of schema chunk_rows;
      n_hot = 0;
      n_cold = 0;
      spilled = 0;
      spill = None;
      clock = 0;
      need_enforce = false;
      released = false;
    }
  in
  Gc.finalise release t;
  t

let chunk_rows t = t.chunk_rows
let n_chunks t = (t.hi + t.chunk_rows - 1) / t.chunk_rows
let live_in_chunk t c = t.live_per_chunk.(c)

let resident_bytes t = t.n_hot * t.hcb
let spilled_bytes t = t.spilled
let cold_chunks t = t.n_cold
let hot_chunk_bytes t = t.hcb

(* Fraction of used chunks currently cold — the planner's cold-access
   cost signal.  0 whenever spilling is off. *)
let cold_fraction t =
  let n = n_chunks t in
  if n = 0 then 0.0 else float_of_int t.n_cold /. float_of_int n

let pin t c =
  let ch = t.chunks.(c) in
  ch.pins <- ch.pins + 1

let unpin t c =
  let ch = t.chunks.(c) in
  if ch.pins > 0 then ch.pins <- ch.pins - 1

(* drop every chunk's tier state and the spill file; shared by [clear]
   and [release] *)
let drop_tiers t =
  Array.iter
    (fun ch ->
      ch.tier <- Hot [||];
      ch.pins <- 0;
      ch.refbit <- false)
    t.chunks;
  g_resident := !g_resident - (t.n_hot * t.hcb);
  g_spilled := !g_spilled - t.spilled;
  t.n_hot <- 0;
  t.n_cold <- 0;
  t.spilled <- 0;
  t.clock <- 0;
  (match t.spill with Some sp -> spill_close sp | None -> ());
  t.spill <- None

(** Reset to empty, keeping the string dictionary (codes stay valid for
    re-inserted strings).  Chunk arrays are dropped and the spill file
    is closed — its (already unlinked) storage is reclaimed, so a
    truncated table leaves no mmap segment behind. *)
let clear t =
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  Array.fill t.live_per_chunk 0 (Array.length t.live_per_chunk) 0;
  t.hi <- 0;
  Array.iter
    (fun col -> Array.iteri (fun i _ -> col.zones.(i) <- fresh_zone ()) col.zones)
    t.cols;
  drop_tiers t;
  t.need_enforce <- false

let () =
  release_ref :=
    fun t ->
      if not t.released then begin
        t.released <- true;
        drop_tiers t
      end

(* ------------------------------------------------------------------ *)
(* Growth                                                              *)
(* ------------------------------------------------------------------ *)

let grow_bitmap old new_cap =
  let b = Bytes.make (bitmap_bytes new_cap) '\000' in
  Bytes.blit old 0 b 0 (Bytes.length old);
  b

(* Chunk data arrays are per-chunk and allocated on first touch, so
   growth only extends the resident index structures (live bitmap,
   per-chunk counters, zones, chunk records) — never copies cell data
   and never charges the budget for slots no DML has reached. *)
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
      Array.init nchunks (fun i ->
          if i < Array.length t.chunks then t.chunks.(i) else fresh_chunk ());
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
(* Encode / fault / decode: tier transitions                           *)
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

(* Encode one (full) hot chunk into a directory-of-sections block. *)
let encode_chunk t c (h : hcol array) : Bytes.t =
  let rows = t.chunk_rows in
  let base = c * rows in
  let live l = bit_get t.live (base + l) in
  let ncols = Array.length t.cols in
  let secs =
    Array.init ncols (fun ci ->
        let hc = h.(ci) in
        let null l = bit_get hc.hnulls l in
        match hc.hdata with
        | D_int a -> Encoding.encode_ints a ~null ~live
        | D_bool b ->
          let a = Array.init rows (fun l -> Char.code (Bytes.unsafe_get b l)) in
          Encoding.encode_ints a ~null ~live
        | D_float a -> Encoding.encode_floats a ~null ~live)
  in
  let dir_len = 4 * (ncols + 1) in
  let total = Array.fold_left (fun acc s -> acc + Bytes.length s) dir_len secs in
  let blob = Bytes.create total in
  let off = ref dir_len in
  Array.iteri
    (fun i s ->
      Encoding.set_u32 blob (4 * i) !off;
      Bytes.blit s 0 blob !off (Bytes.length s);
      off := !off + Bytes.length s)
    secs;
  Encoding.set_u32 blob (4 * ncols) !off;
  blob

let spill_of t =
  match t.spill with
  | Some sp when not sp.sp_closed -> sp
  | _ ->
    let sp = spill_create () in
    t.spill <- Some sp;
    sp

(* Copy one column's section out of a cold block.  The per-chunk fault
   counter is chunk-granular: [counted] dedupes multiple sections of
   the same visit. *)
let fault_section ?stats ~(counted : bool ref) t c_off ci =
  let sp =
    match t.spill with
    | Some sp when not sp.sp_closed -> sp
    | _ -> invalid_arg "Colstore: cold chunk without spill file"
  in
  let s0 = map_u32 sp.sp_map (c_off + (4 * ci)) in
  let s1 = map_u32 sp.sp_map (c_off + (4 * (ci + 1))) in
  let len = s1 - s0 in
  let sec = Bytes.create len in
  let src = c_off + s0 in
  let map = sp.sp_map in
  for i = 0 to len - 1 do
    Bytes.unsafe_set sec i (Bigarray.Array1.unsafe_get map (src + i))
  done;
  (match stats with
  | Some ss ->
    if not !counted then begin
      counted := true;
      ss.faulted <- ss.faulted + 1
    end;
    ss.fbytes <- ss.fbytes + len
  | None -> ());
  sec

let evict t c =
  let ch = t.chunks.(c) in
  match ch.tier with
  | Hot h when Array.length h > 0 ->
    let blob = encode_chunk t c h in
    let len = Bytes.length blob in
    let sp = spill_of t in
    let off = spill_alloc sp len in
    spill_write sp off blob;
    ch.tier <- Cold { c_off = off; c_len = len };
    t.n_hot <- t.n_hot - 1;
    t.n_cold <- t.n_cold + 1;
    t.spilled <- t.spilled + len;
    g_resident := !g_resident - t.hcb;
    g_spilled := !g_spilled + len;
    totals.chunks_encoded <- totals.chunks_encoded + 1;
    totals.chunks_evicted <- totals.chunks_evicted + 1;
    totals.bytes_spilled <- totals.bytes_spilled + len
  | _ -> ()

(* Hot-footprint budget: clock sweep with second-chance bits over
   materialized, unpinned, full chunks.  The chunk containing [hi]
   (the append tail) is never evicted, so encoded blocks always cover
   exactly [chunk_rows] cells.  The sweep is bounded, so a store whose
   unevictable remainder exceeds the budget terminates (over budget). *)
let enforce t =
  if not t.released then begin
    let b = budget_bytes () in
    if b > 0 && resident_bytes t > b then begin
      let nalloc = Array.length t.chunks in
      let steps = ref (2 * nalloc) in
      while resident_bytes t > b && !steps > 0 do
        decr steps;
        let c = t.clock in
        t.clock <- (if c + 1 >= nalloc then 0 else c + 1);
        let ch = t.chunks.(c) in
        match ch.tier with
        | Hot h
          when Array.length h > 0 && ch.pins = 0 && (c + 1) * t.chunk_rows <= t.hi
          ->
          if ch.refbit then ch.refbit <- false else evict t c
        | _ -> ()
      done
    end
  end

let maybe_enforce t =
  if t.need_enforce then begin
    t.need_enforce <- false;
    enforce t
  end

(* Decode a cold chunk back to hot arrays (DML is about to write it). *)
let promote t c : hcol array =
  let ch = t.chunks.(c) in
  match ch.tier with
  | Hot h -> h
  | Cold { c_off; c_len } ->
    let rows = t.chunk_rows in
    let h = alloc_hcols t in
    let counted = ref true (* promote counts as a decode, not a fault *) in
    Array.iteri
      (fun ci hc ->
        let sec = fault_section ~counted t c_off ci in
        Encoding.decode_nulls_into sec ~n:rows hc.hnulls;
        match hc.hdata with
        | D_int a -> Encoding.decode_ints_into sec ~n:rows a
        | D_float a -> Encoding.decode_floats_into sec ~n:rows a
        | D_bool b -> Encoding.decode_bools_into sec ~n:rows b)
      h;
    (match t.spill with Some sp -> spill_free sp c_off c_len | None -> ());
    ch.tier <- Hot h;
    ch.refbit <- true;
    t.n_hot <- t.n_hot + 1;
    t.n_cold <- t.n_cold - 1;
    t.spilled <- t.spilled - c_len;
    g_resident := !g_resident + t.hcb;
    g_spilled := !g_spilled - c_len;
    totals.chunks_decoded <- totals.chunks_decoded + 1;
    t.need_enforce <- true;
    h

(* The hot arrays of chunk [c], materializing or promoting as needed —
   the single write-path entry into a chunk. *)
let hot_cols t c : hcol array =
  let ch = t.chunks.(c) in
  match ch.tier with
  | Hot [||] ->
    let h = alloc_hcols t in
    ch.tier <- Hot h;
    ch.refbit <- true;
    t.n_hot <- t.n_hot + 1;
    g_resident := !g_resident + t.hcb;
    t.need_enforce <- true;
    h
  | Hot h -> h
  | Cold _ -> promote t c

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
    let h = hot_cols t c in
    Array.iteri (fun ci v -> set_cell t h ci c l v) tuple
  end;
  maybe_enforce t

(* Deletes only touch resident state (live bitmap + zones): a cold
   chunk stays cold — its encoded cells are simply dead under the live
   bitmap, exactly like garbage cells in a hot chunk. *)
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
    let h = hot_cols t c in
    Array.iteri
      (fun ci v ->
        if not (Value.is_null old.(ci)) then zone_remove t.cols.(ci).zones.(c);
        set_cell t h ci c l v)
      tuple
  end;
  maybe_enforce t

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

let catom_col = function
  | K_int (ci, _, _, _, _) | K_float (ci, _, _, _, _) | K_code (ci, _, _, _, _)
  | K_null ci | K_not_null ci ->
    ci
  | K_none -> -1

(* ------------------------------------------------------------------ *)
(* Chunk pruning                                                       *)
(* ------------------------------------------------------------------ *)

(* Which comparison signs can a value in [z_lo, z_hi] produce against
   the constant?  Prune when every possible sign has a false mask bit.
   Pruning reads only resident state (zones + live counts) — a pruned
   cold chunk is never faulted in. *)
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
   resident live bitmap only — no tier access. *)
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

(* Refine [sel.(0..n)] in place by one compiled atom against a hot
   chunk's arrays; returns the new length.  [base] converts global slot
   ids to chunk-local rows.  Comparison rows with a NULL cell never
   pass (SQL unknown). *)
let refine_hot (h : hcol array) ~base catom sel n =
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

(* Refine [sel] by one atom evaluated directly on an encoded section —
   no chunk-wide decode.  FOR with width 0 is a single compare for the
   whole chunk; RLE evaluates the predicate once per run and reuses the
   verdict across the run (sel is ascending, so the merge walk is one
   pass). *)
let refine_cold (sec : Bytes.t) ~rows ~base catom sel n =
  let ntag = Encoding.null_tag sec in
  let isnull l = Encoding.is_null sec l in
  let filter_by pass =
    let m = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get sel i in
      if pass (s - base) then begin
        Array.unsafe_set sel !m s;
        incr m
      end
    done;
    !m
  in
  let poff = Encoding.payload_off sec ~n:rows in
  let numeric keep_i keep_f =
    ignore keep_f;
    match Encoding.data_tag sec with
    | 0 ->
      filter_by (fun l ->
          (not (isnull l))
          && keep_i (Int64.to_int (Bytes.get_int64_le sec (poff + (8 * l)))))
    | 1 ->
      let b64 = Bytes.get_int64_le sec poff in
      let bits = Char.code (Bytes.get sec (poff + 8)) in
      if bits = 0 then
        if keep_i (Int64.to_int b64) then
          if ntag = Encoding.n_none then n else filter_by (fun l -> not (isnull l))
        else 0
      else begin
        let doff = poff + 9 in
        filter_by (fun l ->
            (not (isnull l))
            && keep_i
                 (Int64.to_int
                    (Int64.add b64
                       (Encoding.get_bits sec ~off:doff ~bitpos:(l * bits) ~bits))))
      end
    | 2 ->
      let nruns = Encoding.get_u32 sec poff in
      let roff = poff + 4 in
      let ri = ref 0 and rend = ref 0 and rkeep = ref false in
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sel i in
        let l = s - base in
        while l >= !rend && !ri < nruns do
          let ro = roff + (!ri * 12) in
          rkeep := keep_i (Int64.to_int (Bytes.get_int64_le sec ro));
          rend := !rend + Encoding.get_u32 sec (ro + 8);
          incr ri
        done;
        if !rkeep && not (isnull l) then begin
          Array.unsafe_set sel !m s;
          incr m
        end
      done;
      !m
    | _ -> invalid_arg "Colstore: corrupt cold section"
  in
  match catom with
  | K_none -> 0
  | K_null _ -> (
    match ntag with
    | 0 -> 0
    | 1 -> n
    | _ -> filter_by isnull)
  | K_not_null _ -> (
    match ntag with
    | 0 -> n
    | 1 -> 0
    | _ -> filter_by (fun l -> not (isnull l)))
  | K_int (_, lt, eq, gt, k) | K_code (_, lt, eq, gt, k) ->
    numeric (fun v -> if v < k then lt else if v = k then eq else gt) (fun _ -> false)
  | K_float (_, lt, eq, gt, k) -> (
    let keep_f v =
      let c = Float.compare v k in
      if c < 0 then lt else if c = 0 then eq else gt
    in
    (* float payloads are IEEE bit patterns: raw64 or RLE only *)
    match Encoding.data_tag sec with
    | 0 ->
      filter_by (fun l ->
          (not (isnull l))
          && keep_f (Int64.float_of_bits (Bytes.get_int64_le sec (poff + (8 * l)))))
    | 2 ->
      let nruns = Encoding.get_u32 sec poff in
      let roff = poff + 4 in
      let ri = ref 0 and rend = ref 0 and rkeep = ref false in
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sel i in
        let l = s - base in
        while l >= !rend && !ri < nruns do
          let ro = roff + (!ri * 12) in
          rkeep := keep_f (Int64.float_of_bits (Bytes.get_int64_le sec ro));
          rend := !rend + Encoding.get_u32 sec (ro + 8);
          incr ri
        done;
        if !rkeep && not (isnull l) then begin
          Array.unsafe_set sel !m s;
          incr m
        end
      done;
      !m
    | _ -> invalid_arg "Colstore: corrupt float cold section")

(* Selection vector for one chunk: live rows passing every atom,
   ascending slot order.  [sel] must have room for [chunk_rows].  Cold
   chunks are evaluated directly on their encoded sections — one
   section copy per referenced column, counted (chunk-granular) in
   [stats] — and stay cold; atom-less visits of cold chunks touch the
   resident live bitmap only. *)
let select_chunk ?stats t catoms chunk sel =
  let ch = t.chunks.(chunk) in
  ch.refbit <- true;
  let n = ref (fill_live t chunk sel) in
  let base = chunk * t.chunk_rows in
  let k = Array.length catoms in
  (if !n > 0 && k > 0 then
     match ch.tier with
     | Hot h ->
       let i = ref 0 in
       while !n > 0 && !i < k do
         n := refine_hot h ~base catoms.(!i) sel !n;
         incr i
       done
     | Cold { c_off; _ } ->
       let secs = Array.make (Array.length t.cols) None in
       let counted = ref false in
       let sec_of ci =
         match secs.(ci) with
         | Some s -> s
         | None ->
           let s = fault_section ?stats ~counted t c_off ci in
           secs.(ci) <- Some s;
           s
       in
       let i = ref 0 in
       while !n > 0 && !i < k do
         let ka = catoms.(!i) in
         (match ka with
         | K_none -> n := 0
         | _ ->
           n := refine_cold (sec_of (catom_col ka)) ~rows:t.chunk_rows ~base ka sel !n);
         incr i
       done);
  !n

(* ------------------------------------------------------------------ *)
(* Direct column access (join-key extraction)                          *)
(* ------------------------------------------------------------------ *)

let int_key_col t ci =
  ci >= 0 && ci < Array.length t.cols && t.cols.(ci).dtype = Dtype.Tint

let str_key_col t ci =
  ci >= 0 && ci < Array.length t.cols && t.cols.(ci).dtype = Dtype.Tstr

(* Per-scan decode scratch: one chunk-column of ints plus a null
   bitmap, reused across cold chunks so key extraction allocates
   nothing per chunk. *)
type reader = { r_ints : int array; r_nulls : Bytes.t }

let reader t =
  { r_ints = Array.make t.chunk_rows 0; r_nulls = Bytes.make (bitmap_bytes t.chunk_rows) '\000' }

let key_chunk ?stats t (r : reader) ci chunk =
  let base = chunk * t.chunk_rows in
  let ch = t.chunks.(chunk) in
  ch.refbit <- true;
  match ch.tier with
  | Hot h when Array.length h > 0 -> (
    let hc = h.(ci) in
    match hc.hdata with
    | D_int a -> (a, hc.hnulls, base)
    | D_float _ | D_bool _ -> invalid_arg "Colstore.key_chunk: not a key column")
  | Hot _ ->
    (* unallocated: no DML ever touched the chunk, nothing is live *)
    Bytes.fill r.r_nulls 0 (Bytes.length r.r_nulls) '\255';
    (r.r_ints, r.r_nulls, base)
  | Cold { c_off; _ } ->
    let counted = ref false in
    let sec = fault_section ?stats ~counted t c_off ci in
    Encoding.decode_ints_into sec ~n:t.chunk_rows r.r_ints;
    Encoding.decode_nulls_into sec ~n:t.chunk_rows r.r_nulls;
    (r.r_ints, r.r_nulls, base)

let is_live t rid = rid < t.hi && bit_get t.live rid
