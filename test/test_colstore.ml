(** Columnar chunk storage: zone-map maintenance under DML and
    rollback, chunk kernels against a brute-force oracle, dictionary
    strings, zone pruning counters, planner statistics, the exact
    Int/Float compare-hash boundary, and the knob-equivalence property:
    [XNFDB_COLSTORE=1] and [=0] produce byte-identical results across
    all four workloads, domain counts and cache modes —
    including after INSERT/UPDATE/DELETE and ROLLBACK, and for plans
    held across DROP TABLE.  [spill_suite] reruns the equivalence
    checks at 16-row chunks. *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec
module Qgm = Starq.Qgm

(* ------------------------------------- Int/Float boundary (Value.t) -- *)

let test_value_int_float_boundary () =
  let maxi = max_int in
  (* 2^62 as a float is one past max_int = 2^62 - 1 *)
  Alcotest.(check int) "max_int < 2^62" (-1)
    (Value.compare (Value.Int maxi) (Value.Float 0x1p62));
  Alcotest.(check int) "2^62 > max_int" 1
    (Value.compare (Value.Float 0x1p62) (Value.Int maxi));
  Alcotest.(check int) "min_int = -2^62" 0
    (Value.compare (Value.Int min_int) (Value.Float (-0x1p62)));
  (* above 2^53 a lossy float conversion collapses distinct ints: the
     old compare called 2^53 + 1 equal to the float 2^53 *)
  let p53 = 1 lsl 53 in
  Alcotest.(check int) "2^53 + 1 > float 2^53" 1
    (Value.compare (Value.Int (p53 + 1)) (Value.Float 0x1p53));
  Alcotest.(check int) "float 2^53 = int 2^53" 0
    (Value.compare (Value.Float 0x1p53) (Value.Int p53));
  (* transitivity at the scale where float spacing exceeds 1: with
     a < b ints and f between them, Int a < Float f < Int b *)
  let a = maxi - 1024 and b = maxi in
  let f = 0x1p62 -. 512.0 (* representable: spacing at 2^62 is 1024 *) in
  Alcotest.(check int) "a < f" (-1) (Value.compare (Value.Int a) (Value.Float f));
  Alcotest.(check int) "f < b" (-1) (Value.compare (Value.Float f) (Value.Int b));
  Alcotest.(check int) "a < b" (-1) (Value.compare (Value.Int a) (Value.Int b));
  (* fractional tiebreak: floor f < x < f *)
  Alcotest.(check int) "3 < 3.5" (-1)
    (Value.compare (Value.Int 3) (Value.Float 3.5));
  Alcotest.(check int) "nan below ints (Float.compare order)" 1
    (Value.compare (Value.Int min_int) (Value.Float Float.nan));
  (* hash consistency: compare = 0 must imply equal hashes, including
     for integral floats at the top of the int range *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "hash (Int %d) = hash (Float ...)" i)
        (Value.hash (Value.Int i))
        (Value.hash (Value.Float (float_of_int i))))
    [ 0; 4; -17; 1 lsl 53; 1 lsl 60; -(1 lsl 60) ];
  Alcotest.(check (option int)) "int_key_of_float rejects 2^62" None
    (Value.int_key_of_float 0x1p62);
  Alcotest.(check (option int)) "int_key_of_float accepts -2^62"
    (Some min_int)
    (Value.int_key_of_float (-0x1p62))

let test_join_huge_int_keys () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [
      "CREATE TABLE big_a (k INT, tag STRING)";
      "CREATE TABLE big_b (k INT)";
      Printf.sprintf
        "INSERT INTO big_a VALUES (%d, 'top'), (%d, 'next'), (42, 'small')"
        max_int (max_int - 1);
      Printf.sprintf "INSERT INTO big_b VALUES (%d), (42), (7)" max_int;
    ];
  let c =
    Db.compile_query db
      "SELECT a.tag FROM big_a a, big_b b WHERE a.k = b.k ORDER BY a.tag"
  in
  check_rows "equi-join at max_int"
    [ row [ vs "small" ]; row [ vs "top" ] ]
    (Exec.run c);
  (* a float key equal to a huge int must probe correctly: 2^60 is
     exactly representable *)
  ignore (Db.exec db "CREATE TABLE big_f (f FLOAT)");
  ignore (Db.exec db "INSERT INTO big_f VALUES (1152921504606846976.0)");
  ignore (Db.exec db (Printf.sprintf "INSERT INTO big_b VALUES (%d)" (1 lsl 60)));
  let c =
    Db.compile_query db "SELECT b.k FROM big_b b, big_f f WHERE b.k = f.f"
  in
  check_rows "int = integral-float probe" [ row [ vi (1 lsl 60) ] ] (Exec.run c)

(* ----------------------------------------------- zone-map maintenance -- *)

let mixed_schema () =
  Schema.make
    [
      Schema.column ~nullable:true "a" Dtype.Tint;
      Schema.column ~nullable:true "b" Dtype.Tfloat;
      Schema.column ~nullable:true "s" Dtype.Tstr;
    ]

let test_zone_maintenance () =
  with_env "XNFDB_CHUNK_ROWS" "16" @@ fun () ->
  let t = Base_table.create ~name:"zones" (mixed_schema ()) in
  let cs = t.Base_table.colstore in
  Alcotest.(check int) "chunk size honoured" 16 (Colstore.chunk_rows cs);
  let rids =
    List.init 40 (fun i ->
        let a = if i mod 10 = 9 then vnull else vi (100 + i) in
        Base_table.insert t [| a; vf (float_of_int i); vs "x" |])
  in
  Alcotest.(check int) "chunks cover all slots" 3 (Colstore.n_chunks cs);
  Alcotest.(check (option (pair value_testable value_testable)))
    "int range after inserts"
    (Some (vi 100, vi 138))
    (Colstore.col_range cs 0);
  Alcotest.(check (option (pair value_testable value_testable)))
    "float range after inserts"
    (Some (vf 0.0, vf 39.0))
    (Colstore.col_range cs 1);
  Alcotest.(check int) "null count" 4 (Colstore.col_null_count cs 0);
  Alcotest.(check bool) "tight before any retire" true (Colstore.col_tight cs 0);
  (* delete the row holding the non-null max (i = 38, a = 138): bounds
     stay a conservative superset and the chunk is no longer tight *)
  Base_table.delete t (List.nth rids 38);
  (match Colstore.col_range cs 0 with
  | Some (lo, hi) ->
    Alcotest.(check bool) "lo still <= data" true (Value.compare lo (vi 100) <= 0);
    Alcotest.(check bool) "hi still >= data" true (Value.compare hi (vi 137) >= 0)
  | None -> Alcotest.fail "range lost after one delete");
  Alcotest.(check bool) "widened after delete" false (Colstore.col_tight cs 0);
  (* update narrows a value: same conservative contract *)
  Base_table.update t (List.nth rids 0) [| vi 110; vf 0.0; vs "x" |];
  (match Colstore.col_range cs 0 with
  | Some (lo, _) ->
    Alcotest.(check bool) "lo <= data min after narrowing update" true
      (Value.compare lo (vi 101) <= 0)
  | None -> Alcotest.fail "range lost after update");
  (* tombstone recycling: empty every chunk, zones fully reset, and new
     inserts rebuild exact bounds *)
  List.iteri
    (fun i rid -> if i <> 38 then Base_table.delete t rid)
    rids;
  Alcotest.(check (option (pair value_testable value_testable)))
    "range of empty table" None (Colstore.col_range cs 0);
  Alcotest.(check int) "no nulls left" 0 (Colstore.col_null_count cs 0);
  ignore (Base_table.insert t [| vi 7; vnull; vnull |]);
  ignore (Base_table.insert t [| vi 9; vnull; vnull |]);
  Alcotest.(check (option (pair value_testable value_testable)))
    "reset zones give exact fresh bounds"
    (Some (vi 7, vi 9))
    (Colstore.col_range cs 0);
  Alcotest.(check bool) "tight again after reset" true (Colstore.col_tight cs 0)

(* ------------------------------------ kernels vs. brute-force oracle -- *)

let atom_passes (tuple : Tuple.t) (a : Colstore.atom) : bool =
  match a with
  | Colstore.A_is_null i -> tuple.(i) = Value.Null
  | Colstore.A_not_null i -> tuple.(i) <> Value.Null
  | Colstore.A_cmp (i, op, v) -> (
    match (tuple.(i), v) with
    | Value.Null, _ | _, Value.Null -> false
    | x, v ->
      let c = Value.compare x v in
      (match op with
      | Colstore.Ceq -> c = 0
      | Colstore.Cne -> c <> 0
      | Colstore.Clt -> c < 0
      | Colstore.Cle -> c <= 0
      | Colstore.Cgt -> c > 0
      | Colstore.Cge -> c >= 0))

let test_kernels_vs_oracle () =
  with_env "XNFDB_CHUNK_ROWS" "16" @@ fun () ->
  let t = Base_table.create ~name:"oracle" (mixed_schema ()) in
  let cs = t.Base_table.colstore in
  let rng = Workloads.Rng.create 0xBEEF in
  let strs = [| "ml"; "db"; "os"; "ui" |] in
  let live = Hashtbl.create 64 in
  let random_tuple () =
    let a = if Workloads.Rng.int rng 8 = 0 then vnull else vi (Workloads.Rng.int rng 50) in
    let b =
      match Workloads.Rng.int rng 10 with
      | 0 -> vnull
      | 1 -> vf Float.nan
      | n -> vf (float_of_int n /. 3.0)
    in
    let s =
      if Workloads.Rng.int rng 8 = 0 then vnull
      else vs strs.(Workloads.Rng.int rng (Array.length strs))
    in
    [| a; b; s |]
  in
  for _ = 1 to 120 do
    let tu = random_tuple () in
    let rid = Base_table.insert t tu in
    Hashtbl.replace live rid tu
  done;
  (* churn: delete a third, reinsert a few (exercises tombstones) *)
  Hashtbl.iter
    (fun rid _ -> if rid mod 3 = 0 then (Base_table.delete t rid; Hashtbl.remove live rid))
    (Hashtbl.copy live);
  for _ = 1 to 20 do
    let tu = random_tuple () in
    let rid = Base_table.insert t tu in
    Hashtbl.replace live rid tu
  done;
  let cases =
    [
      [ Colstore.A_cmp (0, Colstore.Clt, vi 10) ];
      [ Colstore.A_cmp (0, Colstore.Cge, vi 25); Colstore.A_cmp (0, Colstore.Cle, vi 40) ];
      [ Colstore.A_cmp (0, Colstore.Cne, vi 7) ];
      [ Colstore.A_cmp (1, Colstore.Clt, vf 1.0) ];
      [ Colstore.A_cmp (1, Colstore.Cge, vf 0.5); Colstore.A_not_null 0 ];
      (* int const against a float column: exact fold *)
      [ Colstore.A_cmp (1, Colstore.Cle, vi 2) ];
      (* integral float const against an int column: exact fold *)
      [ Colstore.A_cmp (0, Colstore.Cgt, vf 12.0) ];
      [ Colstore.A_cmp (2, Colstore.Ceq, vs "db") ];
      [ Colstore.A_cmp (2, Colstore.Cne, vs "ml") ];
      (* dictionary miss: statically empty / not-null *)
      [ Colstore.A_cmp (2, Colstore.Ceq, vs "absent") ];
      [ Colstore.A_cmp (2, Colstore.Cne, vs "absent") ];
      [ Colstore.A_is_null 0 ];
      [ Colstore.A_not_null 1; Colstore.A_is_null 2 ];
    ]
  in
  let sel = Array.make (Colstore.chunk_rows cs) 0 in
  List.iteri
    (fun ci atoms ->
      match Colstore.compile cs atoms with
      | None -> Alcotest.fail (Printf.sprintf "case %d did not compile" ci)
      | Some katoms ->
        let got = ref [] in
        for chunk = Colstore.n_chunks cs - 1 downto 0 do
          if not (Colstore.prune_chunk cs katoms chunk) then begin
            let n = Colstore.select_chunk cs katoms chunk sel in
            for j = n - 1 downto 0 do
              got := sel.(j) :: !got
            done
          end
        done;
        let expected =
          Hashtbl.fold
            (fun rid tu acc ->
              if List.for_all (atom_passes tu) atoms then rid :: acc else acc)
            live []
          |> List.sort compare
        in
        Alcotest.(check (list int))
          (Printf.sprintf "case %d matches oracle" ci)
          expected
          (List.sort compare !got);
        (* select order within the scan is slot-ascending *)
        Alcotest.(check (list int))
          (Printf.sprintf "case %d ascending" ci)
          (List.sort compare !got) !got)
    cases

let test_dictionary () =
  let t =
    Base_table.create ~name:"dict"
      (Schema.make [ Schema.column ~nullable:true "s" Dtype.Tstr ])
  in
  let cs = t.Base_table.colstore in
  List.iter
    (fun s -> ignore (Base_table.insert t [| vs s |]))
    [ "a"; "b"; "a"; "c"; "b"; "a" ];
  Alcotest.(check int) "dict holds distinct strings" 3 (Colstore.dict_size cs);
  (match Colstore.dict_find cs "b" with
  | Some code -> Alcotest.(check string) "round trip" "b" (Colstore.dict_string cs code)
  | None -> Alcotest.fail "dict_find lost a present string");
  Alcotest.(check (option int)) "absent string" None (Colstore.dict_find cs "zz");
  (* deleting every holder does not shrink the dict (append-only), and
     lookups stay correct *)
  Base_table.iter (fun rid _ -> Base_table.delete t rid) t;
  Alcotest.(check int) "append-only dict" 3 (Colstore.dict_size cs)

(* -------------------------------------------- pruning and counters -- *)

let test_pruning_counters () =
  with_env "XNFDB_CHUNK_ROWS" "64" @@ fun () ->
  with_colstore true @@ fun () ->
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (x INT, y INT)");
  (* clustered values: chunk zones partition [0, 1000) into tight bands *)
  let buf = Buffer.create 4096 in
  for base = 0 to 9 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO seq VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "(%d, %d)" ((base * 100) + i) (i mod 7))
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  let before =
    ( Colstore.totals.Colstore.chunks_scanned,
      Colstore.totals.Colstore.chunks_skipped,
      Colstore.totals.Colstore.rows_materialized )
  in
  let rows = Db.query_rows db "SELECT x FROM seq WHERE x < 10 ORDER BY x" in
  check_rows "pruned scan result" (rows_of_ints (List.init 10 (fun i -> [ i ]))) rows;
  let b0, b1, b2 = before in
  let scanned = Colstore.totals.Colstore.chunks_scanned - b0
  and skipped = Colstore.totals.Colstore.chunks_skipped - b1
  and materialized = Colstore.totals.Colstore.rows_materialized - b2 in
  (* 1000 rows / 64-row chunks = 16 chunks; x < 10 lives in chunk 0 *)
  Alcotest.(check int) "only the first chunk scanned" 1 scanned;
  Alcotest.(check int) "the rest zone-pruned" 15 skipped;
  Alcotest.(check int) "only passing rows materialized" 10 materialized;
  let ex = Db.explain db "SELECT x FROM seq WHERE x < 10" in
  Alcotest.(check bool) "explain has a colstore section" true
    (contains ~affix:"== colstore (this statement) ==" ex
    && contains ~affix:"chunks scanned" ex
    && contains ~affix:"rows materialized" ex)

(* --------------------------------------------- planner statistics -- *)

let test_planner_stats () =
  with_colstore true @@ fun () ->
  let t =
    Base_table.create ~name:"stats"
      (Schema.make
         [
           Schema.column ~nullable:true "v" Dtype.Tint;
           Schema.column ~nullable:true "w" Dtype.Tint;
         ])
  in
  for i = 0 to 99 do
    ignore
      (Base_table.insert t [| vi i; (if i < 25 then vnull else vi 1) |])
  done;
  Alcotest.(check (option (pair value_testable value_testable)))
    "column_range from zones"
    (Some (vi 0, vi 99))
    (Optimizer.Stats.column_range t 0);
  (match Optimizer.Stats.null_fraction t 1 with
  | Some f -> Alcotest.(check (float 1e-9)) "null fraction" 0.25 f
  | None -> Alcotest.fail "null_fraction unavailable with colstore on");
  with_colstore false (fun () ->
      Alcotest.(check (option (pair value_testable value_testable)))
        "knob off disables range stats" None
        (Optimizer.Stats.column_range t 0));
  (* selectivity interpolation through the QGM shapes the costing sees *)
  let resolve _ = Some (Qgm.base_box t) in
  let sel k =
    Optimizer.Cost.pred_selectivity ~resolve
      (Qgm.Bcmp (Sqlkit.Ast.Lt, Qgm.Qcol (0, 0), Qgm.Const (vi k)))
  in
  Alcotest.(check bool) "lt low bound is small" true (sel 5 < 0.1);
  Alcotest.(check bool) "lt high bound is large" true (sel 95 > 0.9);
  Alcotest.(check bool) "monotone in the constant" true (sel 30 < sel 70);
  let mirrored =
    Optimizer.Cost.pred_selectivity ~resolve
      (Qgm.Bcmp (Sqlkit.Ast.Gt, Qgm.Const (vi 95), Qgm.Qcol (0, 0)))
  in
  Alcotest.(check (float 1e-9)) "const-first orientation mirrors" (sel 95) mirrored;
  let null_sel =
    Optimizer.Cost.pred_selectivity ~resolve (Qgm.Bis_null (Qgm.Qcol (0, 1)))
  in
  Alcotest.(check (float 1e-9)) "is null from zone null counts" 0.25 null_sel;
  let notnull_sel =
    Optimizer.Cost.pred_selectivity ~resolve
      (Qgm.Bis_not_null (Qgm.Qcol (0, 1)))
  in
  Alcotest.(check (float 1e-9)) "is not null complement" 0.75 notnull_sel

(* -------------------------- knob equivalence: on = off, everywhere -- *)

let hetstream_testable : Xnf.Hetstream.t Alcotest.testable =
  Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "stream of %d items" (Xnf.Hetstream.total_items s))
    Xnf.Hetstream.equal

(* row-store baseline with the knob off, then the columnar path,
   compared ordered *)
let check_sql_equiv name db sql =
  let c = Db.compile_query db sql in
  let expected = with_colstore false (fun () -> Exec.run c) in
  with_colstore true (fun () ->
      check_rows (name ^ " (serial)") expected (Exec.run c))

let sql_equiv_oo1 sfx oo1 =
  check_sql_equiv ("oo1 scan+filter" ^ sfx) oo1
    "SELECT cto, clength FROM conns WHERE clength < 500";
  check_sql_equiv ("oo1 hash join" ^ sfx) oo1
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
     5000";
  check_sql_equiv ("oo1 aggregate" ^ sfx) oo1
    "SELECT cfrom, COUNT(*), MIN(clength) FROM conns GROUP BY cfrom"

let sql_equiv_bom sfx bom =
  check_sql_equiv ("bom two-column hash key" ^ sfx) bom
    "SELECT a.pid, b.pid FROM part a, part b WHERE a.level = b.level AND \
     a.pname = b.pname";
  check_sql_equiv ("bom filter+join" ^ sfx) bom
    "SELECT p.pid, c.child FROM part p, contains c WHERE p.pid = c.parent \
     AND p.level < 2"

let sql_equiv_org sfx org =
  check_sql_equiv ("org equi-join" ^ sfx) org
    "SELECT d.dno, e.eno FROM dept d, emp e WHERE d.dno = e.edno";
  check_sql_equiv ("org subquery" ^ sfx) org
    "SELECT eno FROM emp WHERE edno IN (SELECT dno FROM dept WHERE loc = \
     'ARC')"

let sql_equiv_shop sfx shop =
  check_sql_equiv ("shop string filter join" ^ sfx) shop
    "SELECT c.cid, o.oid FROM customer c, orders o WHERE c.cid = o.ocid AND \
     c.region = 'EMEA'";
  check_sql_equiv ("shop float filter" ^ sfx) shop
    "SELECT oid, total FROM orders WHERE total > 100.5 ORDER BY oid"

let test_sql_equiv_workloads () =
  sql_equiv_oo1 ""
    (Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 400 });
  sql_equiv_bom "" (Workloads.Bom.generate Workloads.Bom.default);
  sql_equiv_org "" (Workloads.Org.generate Workloads.Org.default);
  sql_equiv_shop "" (Workloads.Shop.generate Workloads.Shop.default)

let check_extraction_equiv name db query =
  let c = Xnf.Xnf_compile.compile db query in
  let baseline =
    with_colstore false (fun () -> Xnf.Xnf_compile.extract ~cache:false c)
  in
  with_colstore true (fun () ->
      Alcotest.check hetstream_testable (name ^ " (serial)") baseline
        (Xnf.Xnf_compile.extract ~cache:false c);
      (* caches on: first call fills from the columnar path, second is
         served from the cache; both must equal the row-store result *)
      Alcotest.check hetstream_testable (name ^ " (cache fill)") baseline
        (Xnf.Xnf_compile.extract ~cache:true c);
      Alcotest.check hetstream_testable (name ^ " (cache hit)") baseline
        (Xnf.Xnf_compile.extract ~cache:true c))

let test_extraction_equiv_workloads () =
  check_extraction_equiv "org deps"
    (Workloads.Org.generate Workloads.Org.default)
    Workloads.Org.deps_arc_query;
  check_extraction_equiv "oo1 parts graph"
    (Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 })
    Workloads.Oo1.parts_graph_query;
  check_extraction_equiv "bom assembly"
    (Workloads.Bom.generate Workloads.Bom.default)
    Workloads.Bom.assembly_query;
  check_extraction_equiv "shop region"
    (Workloads.Shop.generate Workloads.Shop.default)
    (Workloads.Shop.region_query "EMEA")

let test_equiv_after_dml_and_rollback sfx =
  let db = org_db () in
  let verify tag =
    let tag = tag ^ sfx in
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

(* A compiled plan keeps its table objects, so it still reads a table
   after DROP TABLE unhooks it from the catalog.  Both storage paths
   must go on answering from the same rows. *)
let test_held_plans_across_drop () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE a (k INT, v INT)");
  ignore (Db.exec db "CREATE TABLE b (k INT, w INT)");
  let buf = Buffer.create 4096 in
  List.iter
    (fun table ->
      for base = 0 to 29 do
        Buffer.clear buf;
        Buffer.add_string buf (Printf.sprintf "INSERT INTO %s VALUES " table);
        for i = 0 to 99 do
          let k = (base * 100) + i in
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "(%d, %d)" k (k * 2))
        done;
        ignore (Db.exec db (Buffer.contents buf))
      done)
    [ "a"; "b" ];
  let join =
    Db.compile_query db "SELECT a.v, b.w FROM a, b WHERE a.k = b.k"
  in
  let filter = Db.compile_query db "SELECT v FROM a WHERE k < 5" in
  ignore (Db.exec db "DROP TABLE a");
  ignore (Db.exec db "DROP TABLE b");
  let expected_join = with_colstore false (fun () -> Exec.run join) in
  let expected_filter = with_colstore false (fun () -> Exec.run filter) in
  Alcotest.(check int) "row store: join keeps every row" 3000
    (List.length expected_join);
  Alcotest.(check int) "row store: filter keeps every row" 5
    (List.length expected_filter);
  with_colstore true (fun () ->
      check_rows "held join after drop" expected_join (Exec.run join);
      check_rows "held filter after drop" expected_filter (Exec.run filter))

let suite =
  [
    Alcotest.test_case "int/float compare-hash boundary" `Quick
      test_value_int_float_boundary;
    Alcotest.test_case "joins at max_int-scale keys" `Quick
      test_join_huge_int_keys;
    Alcotest.test_case "zone-map maintenance" `Quick test_zone_maintenance;
    Alcotest.test_case "chunk kernels vs oracle" `Quick test_kernels_vs_oracle;
    Alcotest.test_case "string dictionary" `Quick test_dictionary;
    Alcotest.test_case "zone pruning + counters + explain" `Quick
      test_pruning_counters;
    Alcotest.test_case "planner zone statistics" `Quick test_planner_stats;
    Alcotest.test_case "knob equivalence: sql workloads" `Quick
      test_sql_equiv_workloads;
    Alcotest.test_case "knob equivalence: CO extraction" `Quick
      test_extraction_equiv_workloads;
    Alcotest.test_case "knob equivalence: dml + rollback" `Quick (fun () ->
        test_equiv_after_dml_and_rollback "");
    Alcotest.test_case "knob equivalence: plans held across drop table"
      `Quick test_held_plans_across_drop;
  ]

(* ------------------------------ knob equivalence over many chunks -- *)

(* The equivalence checks again over databases built at 16-row chunks,
   so scans and joins cross hundreds of chunk boundaries.
   Registered as the suite [spill]: the suite and case names date from
   when these cases also ran under a spill budget. *)
let at_16_row_chunks body () =
  with_env "XNFDB_CHUNK_ROWS" "16" (fun () -> body " @ 16-row chunks")

let test_many_chunks_oo1 sfx =
  let db =
    Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 20_000 }
  in
  let conns =
    (Catalog.find_table (Db.catalog db) "conns").Base_table.colstore
  in
  Alcotest.(check bool) "conns spans many chunks" true
    (Colstore.n_chunks conns > 1000);
  sql_equiv_oo1 sfx db;
  check_extraction_equiv ("oo1 parts graph" ^ sfx) db
    Workloads.Oo1.parts_graph_query

let test_many_chunks_bom_org_shop sfx =
  let bom = Workloads.Bom.generate Workloads.Bom.default in
  sql_equiv_bom sfx bom;
  check_extraction_equiv ("bom assembly" ^ sfx) bom
    Workloads.Bom.assembly_query;
  let org = Workloads.Org.generate Workloads.Org.default in
  sql_equiv_org sfx org;
  check_extraction_equiv ("org deps" ^ sfx) org Workloads.Org.deps_arc_query;
  let shop = Workloads.Shop.generate Workloads.Shop.default in
  sql_equiv_shop sfx shop;
  check_extraction_equiv ("shop region" ^ sfx) shop
    (Workloads.Shop.region_query "EMEA")

let spill_suite =
  [
    Alcotest.test_case "spill equivalence: oo1 at spilling scale" `Quick
      (at_16_row_chunks test_many_chunks_oo1);
    Alcotest.test_case "spill equivalence: bom/org/shop" `Quick
      (at_16_row_chunks test_many_chunks_bom_org_shop);
    Alcotest.test_case "spill equivalence: dml + rollback" `Quick
      (at_16_row_chunks test_equiv_after_dml_and_rollback);
  ]
