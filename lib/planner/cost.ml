(** Cardinality and selectivity estimation for plan optimization.

    Deliberately simple, System-R-style: base cardinalities are exact
    (in-memory tables), predicate selectivities use fixed heuristics,
    equi-join selectivity assumes a key/foreign-key shape. *)

module Qgm = Starq.Qgm

let eq_selectivity = 0.05
let range_selectivity = 0.3
let default_selectivity = 0.5

(* -- host calibration ----------------------------------------------------- *)

(** Micro-probe calibration of the cost constants.  Every constant below
    is expressed in {e tuple units} — multiples of the time one tuple
    takes through a batch scan loop on this host — so [tuple_cost] stays
    the numeraire (1.0) and calibration only reshapes the ratios.

    A profile is produced by {!measure} (run via [xnfdb calibrate]),
    persisted with {!save} as [key value] lines, and picked up when
    [XNFDB_COST_PROFILE] names the file.  An unset, empty or
    unreadable profile means the hand-set defaults bit for bit, so
    existing plans and tests are unchanged unless a profile is
    explicitly activated. *)
module Calibrate = struct
  type profile = {
    batch_overhead : float;  (** per-batch boundary cost, tuple units *)
    cold_chunk_penalty : float;
        (** extra per-row cost of a cold (encoded) chunk, tuple units *)
    parallel_overhead : float;  (** one pool fan-out, tuple units *)
    parallel_threshold_rows : int;  (** serial below this many rows *)
    jf_drop_threshold : float;
        (** observed join-filter pass rate above which the test is
            dropped *)
    jf_adaptive_sample : int;  (** probe rows observed before judging *)
    host_cores : int;  (** cores seen at calibration time (diagnostic) *)
    tuple_ns : float;  (** absolute ns per scanned tuple (diagnostic) *)
  }

  let defaults =
    {
      batch_overhead = 4.0;
      cold_chunk_penalty = 1.5;
      parallel_overhead = 64.0;
      parallel_threshold_rows = 2048;
      jf_drop_threshold = Relcore.Bloom.drop_threshold;
      jf_adaptive_sample = Relcore.Bloom.adaptive_sample;
      host_cores = 0;
      tuple_ns = 0.0;
    }

  let clamp lo hi v = Float.max lo (Float.min hi v)

  (* best-of-[reps] wall time per element for [f ()] covering [n]
     elements; min over repetitions rejects scheduler noise *)
  let time_per ?(reps = 3) n f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1e9 /. float_of_int (max 1 n)

  let sink = ref 0

  (* scan probe: per-tuple cost of a batch scan loop over a real heap
     table — the numeraire every other probe is divided by *)
  let probe_tuple_ns () =
    let schema =
      Relcore.Schema.make
        [
          Relcore.Schema.column "k" Relcore.Dtype.Tint;
          Relcore.Schema.column "v" Relcore.Dtype.Tint;
        ]
    in
    let t = Relcore.Base_table.create ~name:"__calib" schema in
    let n = 32_768 in
    for i = 0 to n - 1 do
      ignore
        (Relcore.Base_table.insert t
           [| Relcore.Value.Int i; Relcore.Value.Int (i * 7) |])
    done;
    let cap = 256 in
    let arr = Array.make cap [||] in
    let ns =
      time_per n (fun () ->
          let from = ref 0 in
          let continue = ref true in
          while !continue do
            let next, filled =
              Relcore.Base_table.scan_into t ~from:!from arr ~start:0 ~max:cap
            in
            for i = 0 to filled - 1 do
              match arr.(i).(0) with
              | Relcore.Value.Int k -> sink := !sink + k
              | _ -> ()
            done;
            from := next;
            if filled = 0 then continue := false
          done)
    in
    Relcore.Base_table.release t;
    Float.max 0.1 ns

  (* batch-dispatch probe: cost of allocating one batch and crossing one
     iterator boundary, amortized over nothing (pure per-batch term) *)
  let probe_batch_ns () =
    let k = 20_000 in
    let cap = 256 in
    time_per k (fun () ->
        for _ = 1 to k do
          let b = Relcore.Batch.create ~capacity:cap () in
          let it = fun () -> if Relcore.Batch.is_empty b then None else Some b in
          (match it () with Some _ -> sink := !sink + 1 | None -> ());
          ignore (Relcore.Batch.length b)
        done)

  (* hash probe: per-row cost of an int hash-table lookup (the join
     probe a join filter short-circuits) *)
  let probe_hash_ns () =
    let build = 16_384 and probes = 65_536 in
    let h = Hashtbl.create build in
    for i = 0 to build - 1 do
      Hashtbl.replace h (i * 17) i
    done;
    time_per probes (fun () ->
        for i = 0 to probes - 1 do
          match Hashtbl.find_opt h (i land 0xFFFF) with
          | Some v -> sink := !sink + v
          | None -> ()
        done)

  (* bloom probe: per-row cost of testing a join-filter key *)
  let probe_bloom_ns () =
    let n = 16_384 in
    let f = Relcore.Bloom.create ~expected:n in
    for i = 0 to n - 1 do
      Relcore.Bloom.add f (i * 31)
    done;
    let probes = 65_536 in
    time_per probes (fun () ->
        for i = 0 to probes - 1 do
          if Relcore.Bloom.mem f i then incr sink
        done)

  (* decode-fault probe: per-row cost of decoding an encoded cold
     chunk-column section (what a non-pruned cold chunk pays) *)
  let probe_decode_ns () =
    let n = 4096 in
    let data = Array.init n (fun i -> (i / 7 * 3) + (i land 15)) in
    let enc =
      Relcore.Colstore.Encoding.encode_ints data
        ~null:(fun _ -> false)
        ~live:(fun _ -> true)
    in
    let rounds = 64 in
    time_per (n * rounds) (fun () ->
        for _ = 1 to rounds do
          let vals, _nulls = Relcore.Colstore.Encoding.decode_ints enc ~n in
          sink := !sink + vals.(n - 1)
        done)

  (* domain-spawn probe: wall cost of one empty fan-out over the shared
     pool (task enqueue + wake + await) *)
  let probe_fanout_ns () =
    let cores = Domain.recommended_domain_count () in
    let d = min 2 (max 1 cores) in
    if d <= 1 then 0.0
    else begin
      (* warm the pool so the first-spawn cost is not billed to every
         fan-out *)
      Relcore.Pool.run ~domains:d (fun _ -> ());
      let k = 50 in
      time_per k (fun () ->
          for _ = 1 to k do
            Relcore.Pool.run ~domains:d (fun _ -> ())
          done)
    end

  let measure () =
    let tuple_ns = probe_tuple_ns () in
    let batch_ns = probe_batch_ns () in
    let hash_ns = probe_hash_ns () in
    let bloom_ns = probe_bloom_ns () in
    let decode_ns = probe_decode_ns () in
    let fanout_ns = probe_fanout_ns () in
    let batch_overhead = clamp 0.5 64.0 (batch_ns /. tuple_ns) in
    let cold_chunk_penalty = clamp 0.1 16.0 (decode_ns /. tuple_ns) in
    let parallel_overhead =
      if fanout_ns <= 0.0 then defaults.parallel_overhead
      else clamp 8.0 1.0e7 (fanout_ns /. tuple_ns)
    in
    (* fan out once the divisible per-tuple work at dop 2 repays the
       fan-out cost twice over *)
    let parallel_threshold_rows =
      int_of_float (clamp 512.0 1.0e6 (4.0 *. parallel_overhead))
    in
    (* a filter earns its keep while the expected savings of a dropped
       row — skipping materialization (~1 tuple) and the hash probe —
       outweigh the per-row test: pass_rate < 1 - test/save *)
    let jf_drop_threshold =
      clamp 0.5 0.95 (1.0 -. (bloom_ns /. Float.max bloom_ns (tuple_ns +. hash_ns)))
    in
    {
      batch_overhead;
      cold_chunk_penalty;
      parallel_overhead;
      parallel_threshold_rows;
      jf_drop_threshold;
      jf_adaptive_sample = defaults.jf_adaptive_sample;
      host_cores = Domain.recommended_domain_count ();
      tuple_ns;
    }

  (* -- persistence: one [key value] pair per line, '#' comments -------- *)

  let render (p : profile) : string =
    let b = Buffer.create 256 in
    Buffer.add_string b "# xnfdb cost profile (tuple units; see Cost.Calibrate)\n";
    let f k v = Buffer.add_string b (Printf.sprintf "%s %.17g\n" k v) in
    let i k v = Buffer.add_string b (Printf.sprintf "%s %d\n" k v) in
    f "batch_overhead" p.batch_overhead;
    f "cold_chunk_penalty" p.cold_chunk_penalty;
    f "parallel_overhead" p.parallel_overhead;
    i "parallel_threshold_rows" p.parallel_threshold_rows;
    f "jf_drop_threshold" p.jf_drop_threshold;
    i "jf_adaptive_sample" p.jf_adaptive_sample;
    i "host_cores" p.host_cores;
    f "tuple_ns" p.tuple_ns;
    Buffer.contents b

  let save path (p : profile) =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (render p))

  let parse (text : string) : profile =
    let p = ref defaults in
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           let line = String.trim line in
           if line <> "" && line.[0] <> '#' then
             match String.index_opt line ' ' with
             | None -> ()
             | Some sp ->
               let key = String.sub line 0 sp in
               let v = String.trim (String.sub line sp (String.length line - sp)) in
               let ff dflt = Option.value (float_of_string_opt v) ~default:dflt in
               let ii dflt = Option.value (int_of_string_opt v) ~default:dflt in
               let c = !p in
               p :=
                 (match key with
                 | "batch_overhead" -> { c with batch_overhead = ff c.batch_overhead }
                 | "cold_chunk_penalty" ->
                   { c with cold_chunk_penalty = ff c.cold_chunk_penalty }
                 | "parallel_overhead" ->
                   { c with parallel_overhead = ff c.parallel_overhead }
                 | "parallel_threshold_rows" ->
                   { c with parallel_threshold_rows = ii c.parallel_threshold_rows }
                 | "jf_drop_threshold" ->
                   { c with jf_drop_threshold = ff c.jf_drop_threshold }
                 | "jf_adaptive_sample" ->
                   { c with jf_adaptive_sample = ii c.jf_adaptive_sample }
                 | "host_cores" -> { c with host_cores = ii c.host_cores }
                 | "tuple_ns" -> { c with tuple_ns = ff c.tuple_ns }
                 | _ -> c));
    !p

  let load path : (profile, string) result =
    match
      In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
    with
    | text -> Ok (parse text)
    | exception Sys_error e -> Error e

  (* -- activation ------------------------------------------------------ *)

  (* empty value = unset: putenv cannot remove a variable, so tests
     (and users) clear the knob by setting it to "" *)
  let profile_path () =
    match Sys.getenv_opt "XNFDB_COST_PROFILE" with
    | Some "" | None -> None
    | Some p -> Some p

  (* memoized on the profile knob so tests can flip it mid-process; a
     missing/unreadable profile warns once and falls back to the
     defaults *)
  let cache : (string option * profile) option Atomic.t = Atomic.make None

  let warned : (string, unit) Hashtbl.t = Hashtbl.create 4

  let active () : profile =
    let key = profile_path () in
    match Atomic.get cache with
    | Some (k, p) when k = key -> p
    | _ ->
      let p =
        match key with
        | None -> defaults
        | Some path -> begin
          match load path with
          | Ok p -> p
          | Error e ->
            if not (Hashtbl.mem warned path) then begin
              Hashtbl.replace warned path ();
              Printf.eprintf
                "xnfdb: cost profile %s unreadable (%s); using defaults\n%!"
                path e
            end;
            defaults
        end
      in
      Atomic.set cache (Some (key, p));
      p
end

(* -- batched streaming cost ---------------------------------------------- *)

(** Cost of evaluating one tuple inside a batch loop — the normalized
    unit every calibrated constant is expressed in. *)
let tuple_cost = 1.0

(** Fixed cost of moving one batch across an operator boundary: batch
    allocation, iterator dispatch, selection-vector setup.  With
    tuple-at-a-time execution this was paid {e per row}; batching
    amortizes it over [Relcore.Batch.default_capacity] rows.
    Calibrated per host (see {!Calibrate}). *)
let batch_overhead () = (Calibrate.active ()).Calibrate.batch_overhead

(** Cost of streaming [rows] tuples through one operator hop under
    batch-at-a-time execution: a per-tuple term plus a per-batch term
    for however many batches the rows occupy. *)
let stream_cost (rows : float) : float =
  let batch_overhead = batch_overhead () in
  if rows <= 0.0 then batch_overhead
  else
    let batches =
      Float.of_int (Relcore.Batch.default_capacity ())
      |> fun cap -> Float.ceil (rows /. cap)
    in
    (rows *. tuple_cost) +. (batches *. batch_overhead)

(* -- cold-chunk access cost ---------------------------------------------- *)

(** Extra per-row cost of scanning a spilled (cold) colstore chunk
    relative to a hot one: the section copy out of the mmap plus the
    decode-on-the-fly predicate kernels. *)
let cold_chunk_penalty () = (Calibrate.active ()).Calibrate.cold_chunk_penalty

(** Multiplier on the cost of scanning [t]'s rows, reflecting how much
    of the table currently sits in encoded cold chunks.  1.0 whenever
    the colstore (or spilling) is off, so default plans are
    unchanged. *)
let scan_access_factor (t : Relcore.Base_table.t) : float =
  if not (Relcore.Colstore.enabled ()) then 1.0
  else
    1.0
    +. (cold_chunk_penalty ()
       *. Relcore.Colstore.cold_fraction t.Relcore.Base_table.colstore)

(* -- parallel streaming cost --------------------------------------------- *)

(** Below this many input rows a parallel plan fragment is not worth its
    scheduling overhead (channel traffic, morsel dispatch, worker
    wake-up): the executor falls back to the serial path. *)
let parallel_threshold_rows () =
  (Calibrate.active ()).Calibrate.parallel_threshold_rows

(** Fixed cost of fanning a fragment out over the domain pool: task
    enqueue, channel setup, deterministic re-merge.  Calibrated from
    the measured empty fan-out round-trip. *)
let parallel_overhead () = (Calibrate.active ()).Calibrate.parallel_overhead

(* -- sideways join-filter economics ---------------------------------------- *)

(** Probe rows to observe before judging a filter's usefulness. *)
let jf_adaptive_sample () = (Calibrate.active ()).Calibrate.jf_adaptive_sample

(** Observed pass-rate above which the per-row join-filter test is
    disabled; calibrated from the measured Bloom-test vs hash-probe
    cost ratio. *)
let jf_drop_threshold () = (Calibrate.active ()).Calibrate.jf_drop_threshold

(** Degree of parallelism for a fragment of [rows] input rows given
    [domains] available workers: serial under the threshold, and never
    more workers than there are threshold-sized chunks of work. *)
let choose_dop ?threshold ~domains ~rows () =
  let threshold =
    match threshold with Some t -> t | None -> parallel_threshold_rows ()
  in
  if domains <= 1 || rows < threshold then 1
  else min domains (max 1 (rows / threshold))

(** {!stream_cost} under a degree of parallelism: per-tuple work divides
    across workers, per-batch overhead does not (every batch still
    crosses the merge queue), plus the fan-out fixed cost. *)
let parallel_stream_cost ~domains (rows : float) : float =
  let dop = choose_dop ~domains ~rows:(int_of_float rows) () in
  if dop <= 1 then stream_cost rows
  else
    let batches =
      Float.ceil (rows /. Float.of_int (Relcore.Batch.default_capacity ()))
    in
    (rows *. tuple_cost /. Float.of_int dop)
    +. (batches *. batch_overhead ())
    +. parallel_overhead ()

(** Trace a body expression to a base-table column when the expression
    is a bare column reference whose quantifier (resolved by [resolve])
    ranges directly over a base table, or over a pass-through projection
    of one. *)
let rec base_column_of resolve (e : Qgm.bexpr) :
    (Relcore.Base_table.t * int) option =
  match e with
  | Qgm.Qcol (qid, i) -> begin
    match resolve qid with
    | Some (box : Qgm.box) -> begin
      match box.Qgm.kind with
      | Qgm.Base t -> Some (t, i)
      | Qgm.Select when i < Array.length box.Qgm.head ->
        (* follow identity projections one level *)
        base_column_of
          (fun q -> Option.map (fun qu -> qu.Qgm.over) (Qgm.find_quant box q))
          box.Qgm.head.(i).Qgm.hexpr
      | _ -> None
    end
    | None -> None
  end
  | _ -> None

let value_as_float : Relcore.Value.t -> float option = function
  | Relcore.Value.Int i -> Some (float_of_int i)
  | Relcore.Value.Float f when not (Float.is_nan f) -> Some f
  | _ -> None

(* [k op col] reads as [col (mirrored op) k] *)
let mirror_cmp : Sqlkit.Ast.cmpop -> Sqlkit.Ast.cmpop = function
  | Sqlkit.Ast.Lt -> Sqlkit.Ast.Gt
  | Sqlkit.Ast.Le -> Sqlkit.Ast.Ge
  | Sqlkit.Ast.Gt -> Sqlkit.Ast.Lt
  | Sqlkit.Ast.Ge -> Sqlkit.Ast.Le
  | o -> o

(** Interpolated selectivity of [col op k] against the zone-derived
    column range [lo, hi]: the fraction (k - lo) / (hi - lo) of the
    span falls below [k], clamped away from 0 and 1 (zone bounds may be
    conservative, and a zero estimate would hide the row-visit cost).
    [None] when either side is not a numeric base column vs. constant,
    or no range is known — the caller keeps its textbook constant. *)
let range_const_selectivity resolve (op : Sqlkit.Ast.cmpop) (a : Qgm.bexpr)
    (b : Qgm.bexpr) : float option =
  let attempt col_e k_v (op : Sqlkit.Ast.cmpop) =
    match base_column_of resolve col_e with
    | None -> None
    | Some (t, c) -> begin
      match Stats.column_range t c, value_as_float k_v with
      | Some (lo_v, hi_v), Some k -> begin
        match value_as_float lo_v, value_as_float hi_v with
        | Some lo, Some hi when hi > lo ->
          let below = Float.max 0.0 (Float.min 1.0 ((k -. lo) /. (hi -. lo))) in
          let s =
            match op with
            | Sqlkit.Ast.Lt | Sqlkit.Ast.Le -> below
            | Sqlkit.Ast.Gt | Sqlkit.Ast.Ge -> 1.0 -. below
            | _ -> range_selectivity
          in
          Some (Float.max 0.02 (Float.min 0.98 s))
        | _ -> None
      end
      | _ -> None
    end
  in
  match a, b with
  | _, Qgm.Const k -> attempt a k op
  | Qgm.Const k, _ -> attempt b k (mirror_cmp op)
  | _ -> None

(** Predicate selectivity.  With [resolve] (quantifier id -> input box),
    equality predicates consult per-column NDV statistics, range
    predicates against constants interpolate over zone-map column
    bounds, and NULL tests use zone null counts; without it (or with
    the colstore off), fixed textbook constants are used. *)
let pred_selectivity ?resolve (p : Qgm.bpred) =
  let resolve = Option.value resolve ~default:(fun _ -> None) in
  (* one [col op const] conjunct, normalized so the column is on the
     left; these are the shapes where treating conjuncts as independent
     double-counts (e.g. [col >= a AND col <= b] multiplies two range
     fractions where the truth is the intersection of one interval) *)
  let atom_of = function
    | Qgm.Bcmp (((Sqlkit.Ast.Eq | Lt | Le | Gt | Ge) as op), a, Qgm.Const k)
      -> begin
      match base_column_of resolve a, value_as_float k with
      | Some (t, c), Some kf -> Some (t, c, op, kf)
      | _ -> None
    end
    | Qgm.Bcmp
        (((Sqlkit.Ast.Eq | Lt | Le | Gt | Ge) as op), (Qgm.Const k), b) -> begin
      match base_column_of resolve b, value_as_float k with
      | Some (t, c), Some kf -> Some (t, c, mirror_cmp op, kf)
      | _ -> None
    end
    | _ -> None
  in
  let rec flatten acc = function
    | Qgm.Band (a, b) -> flatten (flatten acc a) b
    | p -> p :: acc
  in
  (* combined selectivity of every column-vs-constant conjunct on one
     column: an equality dominates (the interval can only shrink it
     further), range bounds intersect into a single interval measured
     against the zone-derived column span *)
  let group_sel (t, c) atoms =
    let has_eq = List.exists (fun (op, _) -> op = Sqlkit.Ast.Eq) atoms in
    let has_range = List.exists (fun (op, _) -> op <> Sqlkit.Ast.Eq) atoms in
    let interval =
      if not has_range then None
      else
        match Stats.column_range t c with
        | Some (lo_v, hi_v) -> begin
          match value_as_float lo_v, value_as_float hi_v with
          | Some lo, Some hi when hi > lo ->
            let glo = ref lo and ghi = ref hi in
            List.iter
              (fun ((op : Sqlkit.Ast.cmpop), k) ->
                match op with
                | Sqlkit.Ast.Lt | Sqlkit.Ast.Le -> if k < !ghi then ghi := k
                | Sqlkit.Ast.Gt | Sqlkit.Ast.Ge -> if k > !glo then glo := k
                | _ -> ())
              atoms;
            Some
              (Float.max 0.02
                 (Float.min 0.98 ((!ghi -. !glo) /. (hi -. lo))))
          | _ -> None
        end
        | None -> None
    in
    match has_eq, interval with
    | true, Some f -> Float.min (Stats.eq_const_selectivity t c) f
    | true, None -> Stats.eq_const_selectivity t c
    | false, Some f -> f
    | false, None ->
      (* no zone statistics: one textbook constant for the whole
         interval, not one per bound *)
      range_selectivity
  in
  let rec go = function
    | Qgm.Btrue -> 1.0
    | Qgm.Bcmp (Sqlkit.Ast.Eq, a, b) -> begin
      match base_column_of resolve a, base_column_of resolve b with
      | Some (t1, c1), Some (t2, c2) -> Stats.eq_join_selectivity t1 c1 t2 c2
      | Some (t, c), None | None, Some (t, c) -> Stats.eq_const_selectivity t c
      | None, None -> eq_selectivity
    end
    | Qgm.Bcmp ((Sqlkit.Ast.Lt | Le | Gt | Ge) as op, a, b) -> begin
      match range_const_selectivity resolve op a b with
      | Some s -> s
      | None -> range_selectivity
    end
    | Qgm.Bcmp (Sqlkit.Ast.Ne, _, _) -> 1.0 -. eq_selectivity
    | Qgm.Band _ as band ->
      let conjuncts = List.rev (flatten [] band) in
      let groups = Hashtbl.create 4 in
      let rest_sel =
        List.fold_left
          (fun acc p ->
            match atom_of p with
            | Some (t, c, op, k) ->
              let key = (Relcore.Base_table.tid t, c) in
              let prev =
                match Hashtbl.find_opt groups key with
                | Some (_, atoms) -> atoms
                | None -> []
              in
              Hashtbl.replace groups key ((t, c), (op, k) :: prev);
              acc
            | None -> acc *. go p)
          1.0 conjuncts
      in
      Hashtbl.fold
        (fun _ (col, atoms) acc -> acc *. group_sel col atoms)
        groups rest_sel
    | Qgm.Bor (a, b) -> min 1.0 (go a +. go b)
    | Qgm.Bnot a -> 1.0 -. go a
    | Qgm.Bis_null e -> begin
      match base_column_of resolve e with
      | Some (t, c) -> begin
        match Stats.null_fraction t c with
        | Some f -> Float.max 0.001 (Float.min 0.999 f)
        | None -> 0.1
      end
      | None -> 0.1
    end
    | Qgm.Bis_not_null e -> begin
      match base_column_of resolve e with
      | Some (t, c) -> begin
        match Stats.null_fraction t c with
        | Some f -> Float.max 0.001 (Float.min 0.999 (1.0 -. f))
        | None -> 0.9
      end
      | None -> 0.9
    end
    | Qgm.Blike _ -> 0.25
    | Qgm.Bexists _ | Qgm.Bin_sub _ -> default_selectivity
  in
  go p

(* -- sideways information passing ---------------------------------------- *)

(** Estimated fraction of probe rows whose join key survives a filter
    built from the build side's key set (range check + Bloom): the
    overlap of the two zone-derived key ranges, capped by how many of
    the probe's distinct keys the build side can possibly contain
    (ndv containment).  [build_card] bounds the build-side NDV when the
    build input is itself filtered.  Falls back to
    {!default_selectivity} when statistics are unavailable — cheap
    insurance, since the executor adaptively drops useless filters. *)
let join_filter_pass_est resolve ~(probe : Qgm.bexpr) ~(build : Qgm.bexpr)
    ~(build_card : float) : float =
  match base_column_of resolve probe, base_column_of resolve build with
  | Some (tp, cp), Some (tb, cb) ->
    let overlap =
      match Stats.column_range tp cp, Stats.column_range tb cb with
      | Some (plo_v, phi_v), Some (blo_v, bhi_v) -> begin
        match
          ( value_as_float plo_v,
            value_as_float phi_v,
            value_as_float blo_v,
            value_as_float bhi_v )
        with
        | Some plo, Some phi, Some blo, Some bhi when phi > plo ->
          let lo = Float.max plo blo and hi = Float.min phi bhi in
          Float.max 0.0 (Float.min 1.0 ((hi -. lo) /. (phi -. plo)))
        | _ -> 1.0
      end
      | _ -> 1.0
    in
    let probe_ndv = float_of_int (max 1 (Stats.column_ndv tp cp)) in
    let build_ndv =
      Float.min (float_of_int (max 1 (Stats.column_ndv tb cb))) build_card
    in
    Float.min overlap (build_ndv /. probe_ndv) |> Float.max 0.0 |> Float.min 1.0
  | _ -> default_selectivity

(** Estimated output cardinality of a box (memoized per call tree). *)
let rec box_cardinality (b : Qgm.box) : float =
  match b.Qgm.kind with
  | Qgm.Base t -> float_of_int (max 1 (Relcore.Base_table.cardinality t))
  | Qgm.Union ->
    List.fold_left
      (fun acc q -> acc +. box_cardinality q.Qgm.over)
      0.0 b.Qgm.quants
  | Qgm.Select | Qgm.Group ->
    let inputs =
      List.filter (fun q -> q.Qgm.qkind = Qgm.F) b.Qgm.quants
      |> List.map (fun q -> box_cardinality q.Qgm.over)
    in
    let cross = List.fold_left ( *. ) 1.0 inputs in
    let resolve qid =
      Option.map (fun q -> q.Qgm.over) (Qgm.find_quant b qid)
    in
    let sel =
      List.fold_left
        (fun acc p -> acc *. pred_selectivity ~resolve p)
        1.0 b.Qgm.preds
    in
    (* each equi-join predicate scales roughly by 1/max-side *)
    let card = max 1.0 (cross *. sel) in
    let card =
      if b.Qgm.kind = Qgm.Group then
        (* groups: assume square-root shrinkage *)
        max 1.0 (Float.sqrt card)
      else card
    in
    if b.Qgm.distinct then max 1.0 (card *. 0.8) else card

(** Estimated cardinality of joining a set of quantifiers with the given
    applicable predicates. *)
let join_cardinality ?resolve (cards : float list) (preds : Qgm.bpred list) :
    float =
  let cross = List.fold_left ( *. ) 1.0 cards in
  let sel =
    List.fold_left (fun acc p -> acc *. pred_selectivity ?resolve p) 1.0 preds
  in
  max 1.0 (cross *. sel)
