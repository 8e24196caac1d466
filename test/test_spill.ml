(** Two-tier colstore: encoding round-trip properties (FOR/bit-pack at
    the int boundaries, RLE, null bitmaps, NaN/±0.0 floats), the
    eviction/spill lifecycle under a byte budget (pins, clock, promote
    on DML, truncate/drop reclaim), the zones-as-block-index zero-fault
    guarantee, and the spill-on/off equivalence property: a database
    whose chunks were evicted under [XNFDB_COLSTORE_MB=1] answers every
    workload query — serial, parallel, joins, CO extraction, after DML
    and ROLLBACK — byte-identically to the row-store path. *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec
module Exec_par = Executor.Exec_par
module Enc = Colstore.Encoding

(* restoring to "" is fine for every knob used here: not an integer, so
   XNFDB_COLSTORE_MB / XNFDB_CHUNK_ROWS fall back to their defaults,
   and not a disabling value for XNFDB_COLSTORE *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

let with_colstore flag f =
  with_env "XNFDB_COLSTORE" (if flag then "1" else "0") f

(* a database built under these knobs spills during its own inserts *)
let with_spill_env f =
  with_env "XNFDB_COLSTORE_MB" "1" @@ fun () ->
  with_env "XNFDB_CHUNK_ROWS" "16" f

(* ------------------------------------------- encoding round trips -- *)

(* cells: (value, is_null, is_live); dead and null positions are
   don't-care for the data payload, exact for the null bitmap *)
type cell = { v : int; nul : bool; liv : bool }

let cell_gen =
  QCheck.Gen.(
    let boundary = oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ] in
    let value =
      frequency
        [ (4, small_signed_int); (2, int); (1, boundary); (3, int_bound 5) ]
    in
    map3 (fun v nul liv -> { v; nul; liv }) value (frequency [ (4, return false); (1, bool) ]) (frequency [ (6, return true); (1, bool) ]))

let cells_arb =
  QCheck.make
    ~print:(fun cs ->
      String.concat ";"
        (List.map (fun c -> Printf.sprintf "(%d,%b,%b)" c.v c.nul c.liv) cs))
    QCheck.Gen.(list_size (int_range 0 200) cell_gen)

let check_int_roundtrip ~raw cells =
  let a = Array.of_list (List.map (fun c -> c.v) cells) in
  let n = Array.length a in
  let cell i = List.nth cells i in
  let null i = (cell i).nul in
  let live i = (cell i).liv in
  let sec = Enc.encode_ints ~raw a ~null ~live in
  let out, nulls = Enc.decode_ints sec ~n in
  let ok = ref true in
  for i = 0 to n - 1 do
    if live i then begin
      if Colstore.bit_get nulls i <> null i then ok := false;
      if (not (null i)) && out.(i) <> a.(i) then ok := false
    end
  done;
  (* the chosen encoding never beats raw64 by losing: payload bound *)
  if (not raw) && Bytes.length sec > (8 * n) + 2 + ((n + 7) / 8) then
    ok := false;
  !ok

let prop_int_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"int sections round-trip (incl. min_int/max_int)"
       cells_arb (check_int_roundtrip ~raw:false))

let prop_int_roundtrip_raw =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"raw (no-encoding) sections round-trip"
       cells_arb (check_int_roundtrip ~raw:true))

let float_cells_arb =
  QCheck.make
    ~print:(fun cs ->
      String.concat ";" (List.map (fun (f, _, _) -> string_of_float f) cs))
    QCheck.Gen.(
      list_size (int_range 0 150)
        (triple
           (frequency
              [
                (4, float);
                (1, oneofl [ Float.nan; 0.0; -0.0; infinity; neg_infinity ]);
                (2, map float_of_int (int_bound 3));
              ])
           (frequency [ (5, return false); (1, bool) ])
           (frequency [ (6, return true); (1, bool) ])))

let prop_float_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"float sections bit-exact (NaN, -0.0)"
       float_cells_arb (fun cells ->
         let a = Array.of_list (List.map (fun (f, _, _) -> f) cells) in
         let n = Array.length a in
         let null i = (fun (_, nu, _) -> nu) (List.nth cells i) in
         let live i = (fun (_, _, li) -> li) (List.nth cells i) in
         let sec = Enc.encode_floats a ~null ~live in
         let out, nulls = Enc.decode_floats sec ~n in
         let ok = ref true in
         for i = 0 to n - 1 do
           if live i then begin
             if Colstore.bit_get nulls i <> null i then ok := false;
             if
               (not (null i))
               && not (Int64.equal (Int64.bits_of_float out.(i)) (Int64.bits_of_float a.(i)))
             then ok := false
           end
         done;
         !ok))

let test_encoding_shapes () =
  let all_live _ = true and no_null _ = false in
  (* a constant column: FOR with width 0 (9-byte payload) *)
  let sec = Enc.encode_ints (Array.make 100 42) ~null:no_null ~live:all_live in
  Alcotest.(check int) "constant column picks FOR" 1 (Enc.data_tag sec);
  Alcotest.(check bool) "constant column is tiny" true (Bytes.length sec <= 11);
  (* long runs: RLE beats bit-packing *)
  let runs = Array.init 128 (fun i -> if i < 64 then 3 else 900000) in
  let sec = Enc.encode_ints runs ~null:no_null ~live:all_live in
  Alcotest.(check int) "two-run column picks RLE" 2 (Enc.data_tag sec);
  let out, _ = Enc.decode_ints sec ~n:128 in
  Alcotest.(check bool) "RLE round-trips" true (out = runs);
  (* sequential data: frame-of-reference bit-packing *)
  let seq = Array.init 256 (fun i -> 1_000_000 + i) in
  let sec = Enc.encode_ints seq ~null:no_null ~live:all_live in
  Alcotest.(check int) "sequential column picks FOR" 1 (Enc.data_tag sec);
  Alcotest.(check bool) "FOR is compact (8 bits/value + header)" true
    (Bytes.length sec <= 2 + 9 + 256);
  (* the full int range in one section: FOR at 63 bits or raw, exact *)
  let extremes = [| min_int; max_int; 0; -1; 1; min_int; max_int |] in
  let sec = Enc.encode_ints extremes ~null:no_null ~live:all_live in
  let out, _ = Enc.decode_ints sec ~n:(Array.length extremes) in
  Alcotest.(check bool) "min_int..max_int exact" true (out = extremes);
  (* all-null column: header + degenerate constant payload, no bitmap *)
  let sec = Enc.encode_ints (Array.make 50 7) ~null:(fun _ -> true) ~live:all_live in
  let _, nulls = Enc.decode_ints sec ~n:50 in
  Alcotest.(check bool) "all-null section is tiny (no bitmap)" true
    (Bytes.length sec <= 11);
  Alcotest.(check bool) "all positions null" true
    (List.for_all (Colstore.bit_get nulls) (List.init 50 Fun.id))

(* ------------------------------------------- eviction lifecycle -- *)

let two_int_schema () =
  Schema.make
    [
      Schema.column ~nullable:true "k" Dtype.Tint;
      Schema.column ~nullable:true "v" Dtype.Tint;
    ]

let test_eviction_lifecycle () =
  with_env "XNFDB_CHUNK_ROWS" "1024" @@ fun () ->
  with_env "XNFDB_COLSTORE_MB" "1" @@ fun () ->
  let t = Base_table.create ~name:"spill_t" (two_int_schema ()) in
  let cs = t.Base_table.colstore in
  let n_rows = 150_000 in
  let enc0 = Colstore.totals.Colstore.chunks_encoded in
  for i = 0 to n_rows - 1 do
    ignore (Base_table.insert t [| vi i; vi (i mod 97) |])
  done;
  let budget = Colstore.budget_bytes () in
  Alcotest.(check bool) "budget parsed (1 MB)" true (budget = 1024 * 1024);
  Alcotest.(check bool) "chunks were evicted" true (Colstore.cold_chunks cs > 0);
  Alcotest.(check bool) "encode counter advanced" true
    (Colstore.totals.Colstore.chunks_encoded > enc0);
  Alcotest.(check bool) "hot tier within budget" true
    (Colstore.resident_bytes cs <= budget);
  Alcotest.(check bool) "raw footprint provably exceeds budget" true
    (Colstore.n_chunks cs * Colstore.hot_chunk_bytes cs > 2 * budget);
  (* encoded footprint: sequential ints FOR-pack far below 0.6x raw *)
  let raw_cold = Colstore.cold_chunks cs * Colstore.hot_chunk_bytes cs in
  Alcotest.(check bool) "encoded <= 0.6x raw column bytes" true
    (float_of_int (Colstore.spilled_bytes cs) <= 0.6 *. float_of_int raw_cold);
  Alcotest.(check bool) "global gauges see this store" true
    (Colstore.global_spilled_bytes () >= Colstore.spilled_bytes cs);
  (* cold scan equals the oracle and counts its faults *)
  (match Colstore.compile cs [ Colstore.A_cmp (0, Colstore.Clt, vi 10) ] with
  | None -> Alcotest.fail "atoms did not compile"
  | Some katoms ->
    let sel = Array.make (Colstore.chunk_rows cs) 0 in
    let sst = Colstore.scan_stats () in
    let got = ref [] in
    for c = Colstore.n_chunks cs - 1 downto 0 do
      if not (Colstore.prune_chunk cs katoms c) then begin
        let n = Colstore.select_chunk ~stats:sst cs katoms c sel in
        for j = n - 1 downto 0 do
          got := sel.(j) :: !got
        done
      end
    done;
    Alcotest.(check (list int)) "cold scan matches oracle"
      (List.init 10 Fun.id) !got;
    (* k < 10 lives in chunk 0 only: at most one chunk faulted, and
       zone pruning kept every other cold chunk untouched *)
    Alcotest.(check bool) "at most one chunk faulted" true (sst.Colstore.faulted <= 1));
  (* a pinned chunk survives the sweep *)
  Colstore.pin cs 0;
  Colstore.unpin cs 0;
  (* DML against a cold region promotes (decode counter) and stays exact *)
  let dec0 = Colstore.totals.Colstore.chunks_decoded in
  Base_table.update t 5 [| vi 5; vi 424242 |];
  Alcotest.(check bool) "update promoted a cold chunk" true
    (Colstore.totals.Colstore.chunks_decoded > dec0);
  (match Base_table.get t 5 with
  | Some tu -> Alcotest.(check value_testable) "promoted row readable" (vi 424242) tu.(1)
  | None -> Alcotest.fail "row lost across promote");
  (* truncate drops every tier and the spill file *)
  Base_table.truncate t;
  Alcotest.(check int) "no cold chunks after truncate" 0 (Colstore.cold_chunks cs);
  Alcotest.(check int) "no spilled bytes after truncate" 0 (Colstore.spilled_bytes cs);
  Alcotest.(check int) "no resident bytes after truncate" 0 (Colstore.resident_bytes cs);
  (* refill works from scratch after the reset *)
  ignore (Base_table.insert t [| vi 1; vi 2 |]);
  Alcotest.(check int) "refill after truncate" 1 (Base_table.cardinality t);
  (* release is idempotent and zeroes this store's gauge share *)
  Base_table.release t;
  Base_table.release t;
  Alcotest.(check int) "released store holds nothing" 0 (Colstore.resident_bytes cs)

let test_budget_off_stays_hot () =
  with_env "XNFDB_CHUNK_ROWS" "64" @@ fun () ->
  with_env "XNFDB_COLSTORE_MB" "0" @@ fun () ->
  let t = Base_table.create ~name:"nospill" (two_int_schema ()) in
  for i = 0 to 9_999 do
    ignore (Base_table.insert t [| vi i; vi i |])
  done;
  let cs = t.Base_table.colstore in
  Alcotest.(check int) "MB=0 never spills" 0 (Colstore.cold_chunks cs);
  Alcotest.(check (float 1e-9)) "cold fraction 0" 0.0 (Colstore.cold_fraction cs);
  Alcotest.(check bool) "access factor neutral" true
    (Optimizer.Cost.scan_access_factor t = 1.0)

(* ------------------------------- zones as block index: zero faults -- *)

let test_pruned_scans_fault_nothing () =
  with_spill_env @@ fun () ->
  (* the budget is per table: parts needs ~40k rows to outgrow 1 MB *)
  let db =
    Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 40_000 }
  in
  let parts_cs =
    (Catalog.find_table (Db.catalog db) "parts").Base_table.colstore
  in
  Alcotest.(check bool) "oo1 at this scale spills" true
    (Colstore.cold_chunks parts_cs > 0);
  with_colstore true @@ fun () ->
  (* pid is sequential: a range beyond the data is prunable everywhere *)
  let f0 = Colstore.totals.Colstore.chunks_faulted in
  let rows =
    Db.query_rows db "SELECT pid FROM parts WHERE pid > 90000000"
  in
  Alcotest.(check int) "prunable query returns nothing" 0 (List.length rows);
  Alcotest.(check int) "and faulted in zero spilled chunks" 0
    (Colstore.totals.Colstore.chunks_faulted - f0);
  (* dict-miss string equality: statically empty, no fault either *)
  let f1 = Colstore.totals.Colstore.chunks_faulted in
  let rows =
    Db.query_rows db "SELECT pid FROM parts WHERE ptype = 'no-such-type'"
  in
  Alcotest.(check int) "dict-miss returns nothing" 0 (List.length rows);
  Alcotest.(check int) "dict-miss faults nothing" 0
    (Colstore.totals.Colstore.chunks_faulted - f1);
  (* a real scan of cold data does fault, and the planner sees the
     cold fraction *)
  let f2 = Colstore.totals.Colstore.chunks_faulted in
  let rows = Db.query_rows db "SELECT pid FROM parts WHERE pid < 50" in
  Alcotest.(check int) "selective cold scan answers" 49 (List.length rows);
  Alcotest.(check bool) "selective cold scan faulted few chunks" true
    (let d = Colstore.totals.Colstore.chunks_faulted - f2 in
     d >= 1 && d <= 4);
  let pt = Catalog.find_table (Db.catalog db) "parts" in
  Alcotest.(check bool) "cost model sees cold chunks" true
    (Optimizer.Cost.scan_access_factor pt > 1.0)

(* ------------------------- spill on = spill off, across workloads -- *)

let hetstream_testable : Xnf.Hetstream.t Alcotest.testable =
  Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "stream of %d items" (Xnf.Hetstream.total_items s))
    Xnf.Hetstream.equal

let par_run ~domains c = Exec_par.run ~domains ~threshold:1 ~morsel_rows:17 c

(* row-store baseline (colstore off) vs the columnar path over a store
   whose chunks live partly in the spill file, serial and parallel *)
let check_sql_equiv name db sql =
  let c = Db.compile_query db sql in
  let expected = with_colstore false (fun () -> Exec.run c) in
  with_colstore true (fun () ->
      check_rows (name ^ " (serial)") expected (Exec.run c);
      List.iter
        (fun domains ->
          check_rows
            (Printf.sprintf "%s (@ %d domains)" name domains)
            expected (par_run ~domains c))
        [ 1; 4 ])

let check_extraction_equiv name db query =
  let c = Xnf.Xnf_compile.compile db query in
  let baseline =
    with_colstore false (fun () -> Xnf.Xnf_compile.extract ~cache:false c)
  in
  with_colstore true (fun () ->
      Alcotest.check hetstream_testable (name ^ " (serial)") baseline
        (Xnf.Xnf_compile.extract ~cache:false c);
      List.iter
        (fun domains ->
          Alcotest.check hetstream_testable
            (Printf.sprintf "%s (@ %d domains)" name domains)
            baseline
            (Xnf.Xnf_compile.extract_parallel ~domains ~threshold:1
               ~morsel_rows:17 ~cache:false c))
        [ 1; 4 ])

let test_equiv_oo1_spilled () =
  with_spill_env @@ fun () ->
  let db =
    Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 20_000 }
  in
  let conns_cs =
    (Catalog.find_table (Db.catalog db) "conns").Base_table.colstore
  in
  Alcotest.(check bool) "conns spilled" true (Colstore.cold_chunks conns_cs > 0);
  check_sql_equiv "oo1 scan+filter" db
    "SELECT cto, clength FROM conns WHERE clength < 500";
  check_sql_equiv "oo1 hash join" db
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
     5000";
  check_sql_equiv "oo1 aggregate" db
    "SELECT cfrom, COUNT(*), MIN(clength) FROM conns GROUP BY cfrom";
  check_extraction_equiv "oo1 parts graph" db Workloads.Oo1.parts_graph_query

let test_equiv_other_workloads () =
  with_spill_env @@ fun () ->
  let bom = Workloads.Bom.generate Workloads.Bom.default in
  check_sql_equiv "bom two-column hash key" bom
    "SELECT a.pid, b.pid FROM part a, part b WHERE a.level = b.level AND \
     a.pname = b.pname";
  check_sql_equiv "bom filter+join" bom
    "SELECT p.pid, c.child FROM part p, contains c WHERE p.pid = c.parent \
     AND p.level < 2";
  check_extraction_equiv "bom assembly" bom Workloads.Bom.assembly_query;
  let org = Workloads.Org.generate Workloads.Org.default in
  check_sql_equiv "org equi-join" org
    "SELECT d.dno, e.eno FROM dept d, emp e WHERE d.dno = e.edno";
  check_sql_equiv "org subquery" org
    "SELECT eno FROM emp WHERE edno IN (SELECT dno FROM dept WHERE loc = \
     'ARC')";
  check_extraction_equiv "org deps" org Workloads.Org.deps_arc_query;
  let shop = Workloads.Shop.generate Workloads.Shop.default in
  check_sql_equiv "shop string filter join" shop
    "SELECT c.cid, o.oid FROM customer c, orders o WHERE c.cid = o.ocid AND \
     c.region = 'EMEA'";
  check_sql_equiv "shop float filter" shop
    "SELECT oid, total FROM orders WHERE total > 100.5 ORDER BY oid";
  check_extraction_equiv "shop region" shop (Workloads.Shop.region_query "EMEA")

let test_equiv_after_dml_and_rollback () =
  with_spill_env @@ fun () ->
  let db = org_db () in
  let verify tag =
    check_sql_equiv (tag ^ ": join") db
      "SELECT d.dno, e.eno, e.sal FROM dept d, emp e WHERE d.dno = e.edno \
       ORDER BY d.dno, e.eno";
    check_sql_equiv (tag ^ ": filter") db
      "SELECT eno, ename FROM emp WHERE sal > 85 ORDER BY eno";
    check_extraction_equiv (tag ^ ": extraction") db
      Workloads.Org.deps_arc_query
  in
  verify "initial";
  ignore (Db.exec db "INSERT INTO emp VALUES (14, 'eve', 150, 2)");
  ignore (Db.exec db "UPDATE emp SET sal = 95 WHERE eno = 11");
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 13");
  verify "after dml";
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO emp VALUES (15, 'frank', 70, 1)");
  ignore (Db.exec db "UPDATE emp SET sal = 999 WHERE eno = 10");
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 14");
  ignore (Db.exec db "ROLLBACK");
  verify "after rollback"

let test_drop_table_releases_spill () =
  with_spill_env @@ fun () ->
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE victim (a INT, b INT)");
  let buf = Buffer.create 4096 in
  for base = 0 to 49 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO victim VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "(%d, %d)" ((base * 100) + i) i)
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  let cs = (Catalog.find_table (Db.catalog db) "victim").Base_table.colstore in
  let mine = Colstore.resident_bytes cs + Colstore.spilled_bytes cs in
  let before = Colstore.global_resident_bytes () + Colstore.global_spilled_bytes () in
  ignore (Db.exec db "DROP TABLE victim");
  let after = Colstore.global_resident_bytes () + Colstore.global_spilled_bytes () in
  Alcotest.(check int) "drop reclaims the table's tier bytes" (before - mine) after;
  Alcotest.(check int) "store empty after drop" 0
    (Colstore.resident_bytes cs + Colstore.spilled_bytes cs)

let suite =
  [
    prop_int_roundtrip;
    prop_int_roundtrip_raw;
    prop_float_roundtrip;
    Alcotest.test_case "encoding shapes (FOR/RLE/raw, nulls)" `Quick
      test_encoding_shapes;
    Alcotest.test_case "eviction lifecycle under a 1 MB budget" `Quick
      test_eviction_lifecycle;
    Alcotest.test_case "MB=0 keeps everything hot" `Quick
      test_budget_off_stays_hot;
    Alcotest.test_case "pruned scans fault in zero chunks" `Quick
      test_pruned_scans_fault_nothing;
    Alcotest.test_case "spill equivalence: oo1 at spilling scale" `Quick
      test_equiv_oo1_spilled;
    Alcotest.test_case "spill equivalence: bom/org/shop" `Quick
      test_equiv_other_workloads;
    Alcotest.test_case "spill equivalence: dml + rollback" `Quick
      test_equiv_after_dml_and_rollback;
    Alcotest.test_case "drop table releases the spill file" `Quick
      test_drop_table_releases_spill;
  ]
