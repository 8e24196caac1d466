(** Caching and invalidation: per-table version counters, the
    prepared-plan cache, the cross-query result cache, Stats rekeying,
    and index-probe semantics.  Correctness bar throughout: a cached
    extraction must be byte-identical ([Hetstream.equal]) to a fresh
    one, in every DML and rollback scenario. *)

open Helpers
module Db = Engine.Database
module RC = Executor.Result_cache
module H = Xnf.Hetstream
module BT = Relcore.Base_table

let table db name = Relcore.Catalog.find_table (Db.catalog db) name

(* ---- version counters ------------------------------------------------- *)

let test_version_counters () =
  let db = org_db () in
  let emp = table db "emp" in
  let dept_v = BT.version (table db "dept") in
  let v0 = BT.version emp in
  ignore (Db.exec db "INSERT INTO emp VALUES (99, 'zed', 50, 1)");
  let v1 = BT.version emp in
  Alcotest.(check bool) "insert bumps" true (v1 > v0);
  ignore (Db.exec db "UPDATE emp SET sal = 51 WHERE eno = 99");
  let v2 = BT.version emp in
  Alcotest.(check bool) "update bumps" true (v2 > v1);
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 99");
  let v3 = BT.version emp in
  Alcotest.(check bool) "delete bumps" true (v3 > v2);
  (* DML on emp must not invalidate results that only read dept *)
  Alcotest.(check int) "untouched table keeps its version" dept_v
    (BT.version (table db "dept"))

let test_txn_boundaries_bump () =
  let db = org_db () in
  let emp = table db "emp" in
  ignore (Db.exec db "BEGIN");
  let v0 = BT.version emp in
  ignore (Db.exec db "UPDATE emp SET sal = sal + 1 WHERE eno = 10");
  let v_in = BT.version emp in
  Alcotest.(check bool) "in-txn DML bumps" true (v_in > v0);
  ignore (Db.exec db "ROLLBACK");
  let v_rb = BT.version emp in
  (* monotonic: the rolled-back state must never re-expose the in-txn
     version, so a result cached mid-txn can never be served again *)
  Alcotest.(check bool) "rollback moves past in-txn version" true
    (v_rb > v_in);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE emp SET sal = sal + 1 WHERE eno = 10");
  let v_in2 = BT.version emp in
  ignore (Db.exec db "COMMIT");
  Alcotest.(check bool) "commit bumps at the boundary" true
    (BT.version emp > v_in2)

(* ---- prepared-plan cache ---------------------------------------------- *)

let test_plan_cache_hits_and_normalization () =
  let db = org_db () in
  let sql = "SELECT eno FROM emp WHERE sal > 85 ORDER BY eno" in
  let c1 = Db.compile_query ~cache:true db sql in
  let before = (Db.cache_stats db).Db.plan_hits in
  let c2 = Db.compile_query ~cache:true db sql in
  Alcotest.(check bool) "repeat compile is the same plan" true (c1 == c2);
  (* whitespace-normalized text shares the entry *)
  let c3 =
    Db.compile_query ~cache:true db
      "SELECT   eno\nFROM emp\n  WHERE sal > 85 ORDER BY eno"
  in
  Alcotest.(check bool) "normalized text hits" true (c1 == c3);
  Alcotest.(check bool) "hits counted" true
    ((Db.cache_stats db).Db.plan_hits >= before + 2);
  (* ablation flags split entries *)
  let c4 = Db.compile_query ~cache:true ~rewrite:false db sql in
  Alcotest.(check bool) "flags key apart" true (not (c1 == c4))

let test_plan_cache_ddl_invalidation () =
  let db = org_db () in
  let q = Workloads.Org.deps_arc_query in
  let c1 = Xnf.Xnf_compile.compile ~cache:true db q in
  let c2 = Xnf.Xnf_compile.compile ~cache:true db q in
  Alcotest.(check bool) "xnf compile cached" true (c1 == c2);
  ignore (Db.exec db "CREATE TABLE scratch (a INT)");
  Alcotest.(check int) "DDL empties the plan caches" 0
    (Db.cache_stats db).Db.plan_entries;
  let c3 = Xnf.Xnf_compile.compile ~cache:true db q in
  Alcotest.(check bool) "post-DDL compile is fresh" true (not (c1 == c3));
  ignore (Xnf.Xnf_compile.extract ~cache:false c3)

(* ---- optimizer statistics rekeying ------------------------------------ *)

let test_stats_rekey_on_version () =
  let db = Db.create () in
  ignore
    (Db.exec_script db
       "CREATE TABLE t (k INT, a INT); INSERT INTO t VALUES (1, 1), (2, 1), \
        (3, 2)");
  let t = table db "t" in
  Alcotest.(check int) "initial ndv" 2 (Optimizer.Stats.column_ndv t 1);
  (* same cardinality, different contents: the old cardinality-keyed
     cache returned the stale 2 here *)
  ignore (Db.exec db "UPDATE t SET a = 7 WHERE k = 1");
  Alcotest.(check int) "cardinality unchanged" 3 (BT.cardinality t);
  Alcotest.(check int) "ndv recomputed after update" 3
    (Optimizer.Stats.column_ndv t 1)

(* every recursive-CO compile plans over fresh delta tables; their scan
   NDV entries must die with those tables instead of piling up in the
   process-global cache *)
let test_stats_entries_die_with_tables () =
  let db = Workloads.Bom.generate Workloads.Bom.default in
  Gc.full_major ();
  let before = Optimizer.Stats.cached_tables () in
  (* a compiled recursive CO references its delta tables, so holding
     the 50 compilations holds their 100 tables and their entries *)
  let held =
    List.init 50 (fun _ ->
        let c = Xnf.Xnf_compile.compile ~cache:false db Workloads.Bom.assembly_query in
        ignore (Xnf.Xnf_compile.extract ~cache:false c);
        c)
  in
  Gc.full_major ();
  let peak = Optimizer.Stats.cached_tables () in
  ignore (Sys.opaque_identity held);
  Alcotest.(check bool) "delta tables were costed by scan" true (peak >= before + 50);
  Gc.full_major ();
  let after = Optimizer.Stats.cached_tables () in
  (* what may stay: the BOM's own [part] and [contains], and the delta
     tables (two per compile) of the skeletons the recursive evaluator
     memoises (8); 50 leaked compiles would leave 100 *)
  Alcotest.(check bool) "entries bounded after 50 compiles" true (after - before <= 20)

(* ---- index postings --------------------------------------------------- *)

let test_index_probe_semantics () =
  let module I = Relcore.Index in
  let idx = I.create ~name:"i" ~key_columns:[| 0 |] ~unique:false in
  let key n = row [ vi n ] in
  (* growth past the initial posting capacity *)
  for rid = 1 to 10 do
    I.insert idx rid (key 7)
  done;
  I.insert idx 11 (key 8);
  Alcotest.(check (list int)) "lookup newest-first"
    [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]
    (I.lookup idx (key 7));
  let seen = ref [] in
  I.iter idx (key 7) (fun rid -> seen := rid :: !seen);
  Alcotest.(check (list int)) "iter matches lookup order"
    (I.lookup idx (key 7))
    (List.rev !seen);
  I.remove idx 5 (key 7);
  Alcotest.(check (list int)) "remove keeps order"
    [ 10; 9; 8; 7; 6; 4; 3; 2; 1 ]
    (I.lookup idx (key 7));
  Alcotest.(check bool) "mem hit" true (I.mem idx (key 8));
  Alcotest.(check bool) "mem miss" false (I.mem idx (key 9));
  Alcotest.(check int) "distinct keys" 2 (I.cardinality idx);
  I.remove idx 11 (key 8);
  Alcotest.(check bool) "empty posting removed" false (I.mem idx (key 8));
  Alcotest.(check int) "cardinality after drain" 1 (I.cardinality idx);
  (* unique variant still rejects duplicates *)
  let u = I.create ~name:"u" ~key_columns:[| 0 |] ~unique:true in
  I.insert u 1 (key 1);
  Alcotest.(check bool) "unique violation" true
    (try
       I.insert u 2 (key 1);
       false
     with
     | Relcore.Errors.Db_error (Relcore.Errors.Constraint_error, _) -> true)

(* ---- result cache unit behaviour -------------------------------------- *)

exception Probe of int

let test_result_cache_lru () =
  RC.set_budget_mb (Some 1);
  RC.clear ();
  RC.reset_stats ();
  Fun.protect ~finally:(fun () ->
      RC.clear ();
      RC.set_budget_mb None)
  @@ fun () ->
  RC.store "a" ~bytes:400_000 (Probe 1);
  RC.store "b" ~bytes:400_000 (Probe 2);
  Alcotest.(check bool) "a resident" true (RC.find "a" = Some (Probe 1));
  (* a is now most-recently used; storing c overflows the 1 MB budget
     and must evict the stale b *)
  RC.store "c" ~bytes:400_000 (Probe 3);
  Alcotest.(check bool) "lru b evicted" true (RC.find "b" = None);
  Alcotest.(check bool) "a survives" true (RC.find "a" = Some (Probe 1));
  Alcotest.(check bool) "c resident" true (RC.find "c" = Some (Probe 3));
  (* entries over the whole budget are declined *)
  RC.store "huge" ~bytes:5_000_000 (Probe 4);
  Alcotest.(check bool) "oversized declined" true (RC.find "huge" = None);
  let s = RC.stats () in
  Alcotest.(check bool) "evictions counted" true (s.RC.evictions >= 1);
  Alcotest.(check int) "entries" 2 s.RC.entries;
  Alcotest.(check bool) "bytes within budget" true (s.RC.bytes <= 1_048_576)

(* ---- cached extraction == fresh extraction ---------------------------- *)

let check_cached_matches_fresh c msg =
  let fresh = Xnf.Xnf_compile.extract ~cache:false c in
  let cached = Xnf.Xnf_compile.extract ~cache:true c in
  Alcotest.(check bool) (msg ^ ": cached = fresh") true (H.equal fresh cached);
  fresh

let test_extraction_invalidation () =
  with_result_cache @@ fun () ->
  let db = org_db () in
  let c = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  let reference = Xnf.Xnf_compile.extract ~cache:true c in
  let hits0 = (RC.stats ()).RC.hits in
  let warm = Xnf.Xnf_compile.extract ~cache:true c in
  Alcotest.(check bool) "warm repeat identical" true (H.equal reference warm);
  Alcotest.(check bool) "warm repeat was a hit" true
    ((RC.stats ()).RC.hits > hits0);
  (* each DML must drift the key: the cached pre-DML stream is stale *)
  ignore (Db.exec db "INSERT INTO emp VALUES (50, 'eve', 70, 1)");
  let after_insert = check_cached_matches_fresh c "after insert" in
  Alcotest.(check bool) "insert visible in the CO view" true
    (not (H.equal reference after_insert));
  ignore (Db.exec db "UPDATE emp SET sal = 200 WHERE eno = 10");
  ignore (check_cached_matches_fresh c "after update" : H.t);
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 50");
  ignore (check_cached_matches_fresh c "after delete" : H.t)

let test_rollback_never_serves_aborted_state () =
  with_result_cache @@ fun () ->
  let db = org_db () in
  let c = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  let before = Xnf.Xnf_compile.extract ~cache:false c in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE emp SET ename = 'ghost' WHERE eno = 10");
  (* cache the uncommitted state mid-transaction *)
  let in_txn = Xnf.Xnf_compile.extract ~cache:true c in
  Alcotest.(check bool) "in-txn stream differs" true
    (not (H.equal before in_txn));
  ignore (Db.exec db "ROLLBACK");
  (* byte-identity is against a FRESH post-rollback extraction: undoing
     an update reinserts index postings, so row order may legitimately
     differ from the pre-txn stream even though the data is restored *)
  let fresh_after = Xnf.Xnf_compile.extract ~cache:false c in
  let after = Xnf.Xnf_compile.extract ~cache:true c in
  Alcotest.(check bool) "post-rollback cached = fresh" true
    (H.equal fresh_after after);
  Alcotest.(check bool) "aborted state not served" true
    (not (H.equal in_txn after));
  let has_ghost s =
    let hay = H.serialize s and needle = "ghost" in
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ghost row was in the aborted stream" true
    (has_ghost in_txn);
  Alcotest.(check bool) "ghost row gone after rollback" false (has_ghost after)

let test_recursive_not_cached () =
  with_result_cache @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = Xnf.Xnf_compile.compile db Workloads.Bom.assembly_query in
  Alcotest.(check bool) "recursive CO has no cache key" true
    (Xnf.Xnf_compile.stream_cache_key c = None);
  let a = Xnf.Xnf_compile.extract ~cache:true c in
  let b = Xnf.Xnf_compile.extract ~cache:false c in
  Alcotest.(check bool) "recursive results agree" true (H.equal a b)

(* ---- domain safety ---------------------------------------------------- *)

let test_concurrent_cached_extraction () =
  with_result_cache @@ fun () ->
  let db = org_db () in
  let c = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  let reference = Xnf.Xnf_compile.extract ~cache:false c in
  (* several client domains hammer the shared cache (hits, misses and
     stores race through the mutex) while the main domain extracts the
     same compiled query, as concurrent daemon sessions do *)
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 5 do
              ok :=
                !ok && H.equal reference (Xnf.Xnf_compile.extract ~cache:true c)
            done;
            !ok))
  in
  let main_ok = ref true in
  for _ = 1 to 3 do
    main_ok :=
      !main_ok && H.equal reference (Xnf.Xnf_compile.extract ~cache:true c)
  done;
  List.iter
    (fun d ->
      Alcotest.(check bool) "worker saw identical streams" true (Domain.join d))
    workers;
  Alcotest.(check bool) "main-domain extraction identical" true !main_ok

let suite =
  [
    Alcotest.test_case "version counters" `Quick test_version_counters;
    Alcotest.test_case "txn boundary bumps" `Quick test_txn_boundaries_bump;
    Alcotest.test_case "plan cache hits + normalization" `Quick
      test_plan_cache_hits_and_normalization;
    Alcotest.test_case "plan cache DDL invalidation" `Quick
      test_plan_cache_ddl_invalidation;
    Alcotest.test_case "stats rekey on version" `Quick
      test_stats_rekey_on_version;
    Alcotest.test_case "stats entries die with their tables" `Quick
      test_stats_entries_die_with_tables;
    Alcotest.test_case "index probe semantics" `Quick
      test_index_probe_semantics;
    Alcotest.test_case "result cache lru" `Quick test_result_cache_lru;
    Alcotest.test_case "extraction invalidation" `Quick
      test_extraction_invalidation;
    Alcotest.test_case "rollback never serves aborted state" `Quick
      test_rollback_never_serves_aborted_state;
    Alcotest.test_case "recursive CO not cached" `Quick
      test_recursive_not_cached;
    Alcotest.test_case "concurrent cached extraction" `Quick
      test_concurrent_cached_extraction;
  ]
