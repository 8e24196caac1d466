(* Blocked Bloom filter + exact range + exact small-set fast path.

   Layout: [nblocks] blocks of 64 bytes (512 bits) each, [nblocks] a
   power of two.  A key hashes once to pick its block and a second time
   to derive four 9-bit positions inside it, so every membership test
   touches one cache line.  ~12 bits/key keeps the false-positive rate
   around 1-2% at four probes.

   The small-set path stores up to [exact_cap] distinct keys verbatim;
   while it is live, [mem] is exact (no false positives), which is the
   common case for selective build sides.  Bloom bits are always set
   alongside, so overflowing just drops the array and keeps the
   (already complete) bloom. *)

let block_bytes = 64
let block_bits = block_bytes * 8
let exact_cap = 64

(* Both multipliers must fit OCaml's 63-bit int literals. *)
let mix1 k =
  let h = k * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 32)) land max_int

let mix2 k =
  let h = k * 0x3C79AC492BA7B653 in
  let h = h lxor (h lsr 33) in
  let h = h * 0x1C69B3F74AC4AE35 in
  (h lxor (h lsr 27)) land max_int

type t = {
  nblocks : int;  (* power of two *)
  bits : Bytes.t;  (* nblocks * block_bytes *)
  mutable nkeys : int;
  mutable lo : int;
  mutable hi : int;
  mutable exact : int array;  (* first [exact_n] entries, distinct *)
  mutable exact_n : int;  (* -1 once overflowed *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ~expected =
  let expected = max 64 expected in
  (* ~12 bits per key, in whole 512-bit blocks *)
  let nblocks = next_pow2 ((expected * 12 / block_bits) + 1) in
  {
    nblocks;
    bits = Bytes.make (nblocks * block_bytes) '\000';
    nkeys = 0;
    lo = max_int;
    hi = min_int;
    exact = Array.make exact_cap 0;
    exact_n = 0;
  }

let nkeys t = t.nkeys
let is_exact t = t.exact_n >= 0
let range t = if t.nkeys = 0 then None else Some (t.lo, t.hi)

let set_bloom t k =
  let base = (mix1 k land (t.nblocks - 1)) * block_bytes in
  let h2 = mix2 k in
  for j = 0 to 3 do
    let b = (h2 lsr (9 * j)) land (block_bits - 1) in
    let byte = base + (b lsr 3) in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (b land 7))))
  done

let test_bloom t k =
  let base = (mix1 k land (t.nblocks - 1)) * block_bytes in
  let h2 = mix2 k in
  let rec go j =
    j > 3
    ||
    let b = (h2 lsr (9 * j)) land (block_bits - 1) in
    Char.code (Bytes.unsafe_get t.bits (base + (b lsr 3)))
    land (1 lsl (b land 7))
    <> 0
    && go (j + 1)
  in
  go 0

let exact_mem t k =
  let rec go i = i < t.exact_n && (Array.unsafe_get t.exact i = k || go (i + 1)) in
  go 0

let add t k =
  t.nkeys <- t.nkeys + 1;
  if k < t.lo then t.lo <- k;
  if k > t.hi then t.hi <- k;
  if t.exact_n >= 0 && not (exact_mem t k) then
    if t.exact_n < exact_cap then begin
      t.exact.(t.exact_n) <- k;
      t.exact_n <- t.exact_n + 1
    end
    else t.exact_n <- -1;
  set_bloom t k

let mem t k =
  t.nkeys > 0
  && k >= t.lo
  && k <= t.hi
  && (if t.exact_n >= 0 then exact_mem t k else test_bloom t k)

(* ------------------------------------------------ adaptive disabling -- *)

let adaptive_sample = 2048
let drop_threshold = 0.75

(* --------------------------------------------- process-wide counters -- *)

type counters = {
  mutable filters_built : int;
  mutable chunks_skipped : int;
  mutable rows_skipped : int;
  mutable filters_dropped : int;
}

let totals =
  { filters_built = 0; chunks_skipped = 0; rows_skipped = 0; filters_dropped = 0 }

let add_totals ~built ~chunks ~rows ~dropped =
  totals.filters_built <- totals.filters_built + built;
  totals.chunks_skipped <- totals.chunks_skipped + chunks;
  totals.rows_skipped <- totals.rows_skipped + rows;
  totals.filters_dropped <- totals.filters_dropped + dropped
