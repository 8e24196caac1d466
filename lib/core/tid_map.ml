(** Tuple identifiers by component-row value: an open-addressed table
    probed by spans of wider rows (see the interface for the contract). *)

open Relcore

(* -- hashing ------------------------------------------------------------ *)

(* Multiply-mix for ints; the constant is odd and fits a 63-bit int. *)
let mix_int i =
  let h = i * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Consistent with [Value.equal]: an integral float in the int range
   hashes as that int, exactly as [Value.hash] decides it. *)
let hash_value (v : Value.t) =
  match v with
  | Int i -> mix_int i
  | Float f -> (
    match Value.int_key_of_float f with
    | Some i -> mix_int i
    | None -> Value.hash v)
  | Null | Bool _ | Str _ -> Value.hash v

(* Fold the high bits down so the slot index (low bits) sees them all. *)
let finish h =
  let h = (h lxor (h lsr 32)) * 0x1B873593 in
  h lxor (h lsr 31)

let hash_span (row : Tuple.t) off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 31) + hash_value (Array.unsafe_get row i)
  done;
  finish !h

(* The probe loops below are top-level functions taking every operand
   as an argument: a local recursive closure would be allocated on each
   lookup, and lookups are the hot path. *)
let rec span_equal_from (key : Tuple.t) (row : Tuple.t) off len j =
  j = len
  ||
  let a = Array.unsafe_get key j and b = Array.unsafe_get row (off + j) in
  (a == b || Value.equal a b) && span_equal_from key row off len (j + 1)

let span_equal (key : Tuple.t) row off len =
  Array.length key = len && span_equal_from key row off len 0

(* -- the row -> id table ------------------------------------------------ *)

let absent = -1

type t = {
  mutable keys : Tuple.t array;
  mutable hashes : int array;
  mutable ids : int array; (* [absent] marks an empty slot *)
  mutable size : int;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
}

let capacity_for n =
  let rec up c = if c >= 2 * n then c else up (2 * c) in
  up 16

let create n =
  let cap = capacity_for n in
  {
    keys = Array.make cap [||];
    hashes = Array.make cap 0;
    ids = Array.make cap absent;
    size = 0;
    mask = cap - 1;
  }

let length t = t.size
let bytes t = 3 * Sys.word_size / 8 * Array.length t.ids

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) [||];
  Array.fill t.ids 0 (Array.length t.ids) absent;
  t.size <- 0

(* The slot holding this span's key, or the empty slot ending its probe
   chain. *)
let rec probe t row off len h i =
  if
    Array.unsafe_get t.ids i = absent
    || (Array.unsafe_get t.hashes i = h
       && span_equal (Array.unsafe_get t.keys i) row off len)
  then i
  else probe t row off len h ((i + 1) land t.mask)

let slot t row off len h = probe t row off len h (h land t.mask)

(* The first empty slot from [i] on: where [grow] puts a rehashed key
   (keys are distinct, so no compare is needed). *)
let rec empty_slot ids mask i =
  if Array.unsafe_get ids i = absent then i
  else empty_slot ids mask ((i + 1) land mask)

let find_span t row ~off ~len =
  if off < 0 || len < 0 || off > Array.length row - len then
    invalid_arg "Tid_map.find_span";
  Array.unsafe_get t.ids (slot t row off len (hash_span row off len))

let find t row = find_span t row ~off:0 ~len:(Array.length row)

let grow t =
  let keys = t.keys and hashes = t.hashes and ids = t.ids in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap [||];
  t.hashes <- Array.make cap 0;
  t.ids <- Array.make cap absent;
  t.mask <- cap - 1;
  Array.iteri
    (fun i id ->
      if id <> absent then begin
        let j = empty_slot t.ids t.mask (hashes.(i) land t.mask) in
        t.keys.(j) <- keys.(i);
        t.hashes.(j) <- hashes.(i);
        t.ids.(j) <- id
      end)
    ids

let add t row id =
  if id < 0 then invalid_arg "Tid_map.add: negative id";
  if 2 * (t.size + 1) > Array.length t.ids then grow t;
  let len = Array.length row in
  let h = hash_span row 0 len in
  let i = slot t row 0 len h in
  if t.ids.(i) = absent then t.size <- t.size + 1;
  t.keys.(i) <- row;
  t.hashes.(i) <- h;
  t.ids.(i) <- id

(* Backward-shift deletion: walk the chain after the hole and move back
   every entry whose home slot does not lie cyclically in (hole, j]. *)
let remove t row =
  let len = Array.length row in
  let i = slot t row 0 len (hash_span row 0 len) in
  if t.ids.(i) <> absent then begin
    t.size <- t.size - 1;
    let rec shift hole j =
      let j = (j + 1) land t.mask in
      if t.ids.(j) = absent then begin
        t.ids.(hole) <- absent;
        t.keys.(hole) <- [||]
      end
      else if (j - (t.hashes.(j) land t.mask)) land t.mask >= (j - hole) land t.mask
      then begin
        t.keys.(hole) <- t.keys.(j);
        t.hashes.(hole) <- t.hashes.(j);
        t.ids.(hole) <- t.ids.(j);
        shift j j
      end
      else shift hole j
    in
    shift i i
  end

(* -- connection keys ---------------------------------------------------- *)

module Conns = struct
  type t = {
    width : int; (* 1 + children *)
    mutable keys : int array; (* [width] ints per slot *)
    mutable counts : int array; (* 0 marks an empty slot *)
    mutable size : int;
    mutable mask : int;
  }

  let create ~children n =
    let cap = capacity_for n in
    let width = 1 + children in
    {
      width;
      keys = Array.make (cap * width) 0;
      counts = Array.make cap 0;
      size = 0;
      mask = cap - 1;
    }

  let length t = t.size

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.size <- 0

  let hash parent (children : int array) =
    let h = ref (mix_int parent) in
    for k = 0 to Array.length children - 1 do
      h := (!h * 31) + mix_int (Array.unsafe_get children k)
    done;
    finish !h

  (* [hash] of the key stored at slot [i] of [keys] *)
  let hash_at width (keys : int array) i =
    let base = i * width in
    let h = ref (mix_int keys.(base)) in
    for k = 1 to width - 1 do
      h := (!h * 31) + mix_int keys.(base + k)
    done;
    finish !h

  let rec children_equal (keys : int array) base (children : int array) k =
    k = Array.length children
    || Array.unsafe_get keys (base + 1 + k) = Array.unsafe_get children k
       && children_equal keys base children (k + 1)

  let key_equal t i parent children =
    let base = i * t.width in
    Array.unsafe_get t.keys base = parent
    && children_equal t.keys base children 0

  let rec probe t parent children i =
    if t.counts.(i) = 0 || key_equal t i parent children then i
    else probe t parent children ((i + 1) land t.mask)

  let slot t parent children =
    if Array.length children <> t.width - 1 then
      invalid_arg "Tid_map.Conns: key width";
    probe t parent children (hash parent children land t.mask)

  let rec empty_slot counts mask i =
    if Array.unsafe_get counts i = 0 then i
    else empty_slot counts mask ((i + 1) land mask)

  let grow t =
    let keys = t.keys and counts = t.counts in
    let cap = 2 * Array.length counts in
    t.keys <- Array.make (cap * t.width) 0;
    t.counts <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let j =
            empty_slot t.counts t.mask (hash_at t.width keys i land t.mask)
          in
          Array.blit keys (i * t.width) t.keys (j * t.width) t.width;
          t.counts.(j) <- c
        end)
      counts

  let add t parent children =
    if 2 * (t.size + 1) > Array.length t.counts then grow t;
    let i = slot t parent children in
    let c = t.counts.(i) in
    if c = 0 then begin
      t.size <- t.size + 1;
      let base = i * t.width in
      t.keys.(base) <- parent;
      Array.blit children 0 t.keys (base + 1) (t.width - 1)
    end;
    t.counts.(i) <- c + 1;
    c + 1
end

(* -- partner resolution ------------------------------------------------- *)

let partners ~missing map_of (parent, pspan) children =
  let probe comp =
    let map = map_of comp in
    fun row (off, len) ->
      let id = find_span map row ~off ~len in
      if id = absent then missing comp else id
  in
  let parent_id = probe parent in
  let kids =
    Array.of_list (List.map (fun (ch, span) -> (probe ch, span)) children)
  in
  let ids = Array.make (Array.length kids) 0 in
  let resolve row =
    let p = parent_id row pspan in
    for k = 0 to Array.length kids - 1 do
      let child_id, span = Array.unsafe_get kids k in
      ids.(k) <- child_id row span
    done;
    p
  in
  (ids, resolve)
