(** Batch-layer tests: selection vectors, capacity boundaries, and the
    ordered-equivalence property between the batched executor and the
    tuple-at-a-time reference ([Exec_scalar]) across the workloads. *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec

(* ------------------------------------------------------ Batch unit -- *)

let test_selection_vectors () =
  let rows = List.init 10 (fun i -> row [ vi i ]) in
  let b =
    match Batch.of_list ~capacity:16 rows with
    | [ b ] -> b
    | _ -> Alcotest.fail "one batch"
  in
  Alcotest.(check int) "dense length" 10 (Batch.length b);
  (* first refinement allocates the selection vector *)
  Batch.refine b (fun r -> match r.(0) with Value.Int i -> i mod 2 = 0 | _ -> false);
  Alcotest.(check int) "evens kept" 5 (Batch.length b);
  check_rows "selection order preserved"
    (rows_of_ints [ [ 0 ]; [ 2 ]; [ 4 ]; [ 6 ]; [ 8 ] ])
    (Batch.to_list b);
  (* second refinement narrows in place *)
  Batch.refine b (fun r -> match r.(0) with Value.Int i -> i > 2 | _ -> false);
  check_rows "narrowed" (rows_of_ints [ [ 4 ]; [ 6 ]; [ 8 ] ]) (Batch.to_list b);
  (* get respects the selection *)
  Alcotest.(check tuple_testable) "get via selection" (row [ vi 6 ]) (Batch.get b 1);
  (* map produces a dense batch (no selection vector) *)
  let doubled =
    Batch.map b (fun r ->
        match r.(0) with Value.Int i -> row [ vi (2 * i) ] | _ -> r)
  in
  check_rows "map over selection" (rows_of_ints [ [ 8 ]; [ 12 ]; [ 16 ] ])
    (Batch.to_list doubled);
  (* truncate applies to the selected view *)
  Batch.truncate b 1;
  check_rows "truncate selected" (rows_of_ints [ [ 4 ] ]) (Batch.to_list b)

let test_capacity_boundary () =
  let cap = Batch.default_capacity () in
  let mk n = List.init n (fun i -> row [ vi i ]) in
  (* exactly one full batch *)
  (match Batch.of_list (mk cap) with
  | [ b ] ->
    Alcotest.(check int) "full batch" cap (Batch.length b);
    Alcotest.(check bool) "is_full" true (Batch.is_full b)
  | bs -> Alcotest.failf "expected 1 batch, got %d" (List.length bs));
  (* one row over the boundary spills into a second batch *)
  (match Batch.of_list (mk (cap + 1)) with
  | [ b1; b2 ] ->
    Alcotest.(check int) "first full" cap (Batch.length b1);
    Alcotest.(check int) "second holds the spill" 1 (Batch.length b2)
  | bs -> Alcotest.failf "expected 2 batches, got %d" (List.length bs));
  (* rows survive the chunking in order *)
  let rows = mk (cap + 3) in
  check_rows "list_to_rows round-trip" rows (Batch.list_to_rows (Batch.of_list rows));
  (* explicit small capacity *)
  let bs = Batch.of_list ~capacity:4 (mk 9) in
  Alcotest.(check (list int)) "4+4+1 chunks" [ 4; 4; 1 ]
    (List.map Batch.length bs)

let test_push_guard () =
  (* push after a selection vector exists must fail loudly even in
     release builds (invalid_arg, not a vanishing assert) *)
  let b = match Batch.of_list ~capacity:8 (rows_of_ints [ [ 1 ]; [ 2 ] ]) with
    | [ b ] -> b | _ -> Alcotest.fail "one batch"
  in
  Batch.refine b (fun _ -> true);
  (match Batch.push b (row [ vi 3 ]) with
  | () -> Alcotest.fail "push past a selection vector must raise"
  | exception Invalid_argument _ -> ());
  (* and so must pushing past capacity *)
  let b = Batch.create ~capacity:1 () in
  Batch.push b (row [ vi 1 ]);
  (match Batch.push b (row [ vi 2 ]) with
  | () -> Alcotest.fail "push past capacity must raise"
  | exception Invalid_argument _ -> ())

let test_ctx_capacity () =
  (* the per-query batch size is a ctx knob, no longer frozen at module
     load: a small-capacity ctx emits proportionally more batches *)
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let c = Db.compile_query db "SELECT pid FROM parts WHERE build >= 0" in
  let run cap =
    let ctx = Exec.make_ctx ~batch_capacity:cap () in
    let bs = Exec.run_batches ~ctx c in
    (Batch.list_to_rows bs, List.length bs)
  in
  let rows_small, n_small = run 16 in
  let rows_big, n_big = run 4096 in
  check_rows "capacity does not change results" rows_big rows_small;
  Alcotest.(check bool) "smaller capacity, more batches" true
    (n_small > n_big);
  Alcotest.(check bool) "16-row batches" true (n_small >= 300 / 16)

let test_empty_batch () =
  let b = Batch.create () in
  Alcotest.(check bool) "fresh is empty" true (Batch.is_empty b);
  Alcotest.(check int) "fresh length" 0 (Batch.length b);
  check_rows "fresh to_list" [] (Batch.to_list b);
  Alcotest.(check int) "of_list [] is no batches" 0
    (List.length (Batch.of_list []));
  (* refining to nothing leaves an empty (but allocated) batch *)
  let b = match Batch.of_list ~capacity:2 (rows_of_ints [ [ 1 ]; [ 2 ] ]) with
    | [ b ] -> b | _ -> Alcotest.fail "one batch"
  in
  Batch.refine b (fun _ -> false);
  Alcotest.(check bool) "refined away" true (Batch.is_empty b);
  check_rows "empty result set" []
    (Batch.list_to_rows (Batch.of_list []))

(* --------------------------------- batched ≡ scalar (ordered) property -- *)

let check_equiv name db sql =
  let c = Db.compile_query db sql in
  check_rows name (Exec_scalar.run c) (Exec.run c)

let test_equiv_oo1 () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 500 } in
  check_equiv "index-join traversal" db
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
     5000";
  check_equiv "scan + filter" db
    "SELECT cto, clength FROM conns WHERE clength < 500";
  check_equiv "fanout aggregate" db
    "SELECT cfrom, COUNT(*), MIN(clength) FROM conns GROUP BY cfrom";
  check_equiv "string-keyed group" db
    "SELECT ptype, COUNT(*) FROM parts GROUP BY ptype";
  check_equiv "distinct" db "SELECT DISTINCT ptype FROM parts";
  check_equiv "sort + limit" db
    "SELECT pid, build FROM parts ORDER BY build DESC, pid LIMIT 10"

let test_equiv_bom () =
  let db = Workloads.Bom.generate Workloads.Bom.default in
  check_equiv "parent/child join" db
    "SELECT p.pid, c.child FROM part p, contains c WHERE p.pid = c.parent \
     AND p.level < 2";
  check_equiv "qty rollup" db
    "SELECT parent, COUNT(*), SUM(qty) FROM contains GROUP BY parent";
  check_equiv "two-column hash key" db
    "SELECT a.pid, b.pid FROM part a, part b WHERE a.level = b.level AND \
     a.pname = b.pname";
  check_equiv "projection arithmetic" db
    "SELECT child, qty * 2 + 1 FROM contains WHERE qty > 1"

let test_equiv_org () =
  let db = Workloads.Org.generate Workloads.Org.default in
  check_equiv "equi-join ordered" db
    "SELECT d.dno, e.eno FROM dept d, emp e WHERE d.dno = e.edno ORDER BY \
     d.dno, e.eno";
  check_equiv "equi-join unordered" db
    "SELECT d.dno, e.eno FROM dept d, emp e WHERE d.dno = e.edno";
  check_equiv "correlated exists" db
    "SELECT d.dno FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE \
     e.edno = d.dno AND e.sal > 3000)";
  check_equiv "in subquery" db
    "SELECT eno FROM emp WHERE edno IN (SELECT dno FROM dept WHERE loc = \
     'ARC')";
  check_equiv "non-equi nested loop" db
    "SELECT e.eno, d.dno FROM emp e, dept d WHERE e.sal > d.dno * 2000"

let test_equiv_shop () =
  let db = Workloads.Shop.generate Workloads.Shop.default in
  check_equiv "region join" db
    "SELECT c.cid, o.oid FROM customer c, orders o WHERE c.cid = o.ocid AND \
     c.region = 'EMEA'";
  check_equiv "float projection join" db
    "SELECT l.lioid, p.pname, l.qty * l.price FROM lineitem l, product p \
     WHERE l.lipid = p.pid AND l.qty > 2";
  check_equiv "status rollup" db
    "SELECT status, COUNT(*), SUM(total) FROM orders GROUP BY status";
  check_equiv "empty result" db "SELECT cid FROM customer WHERE cid < 0"

(* ------------------------------------------- runtime sharing & counters -- *)

let test_shared_box_drains_once () =
  let db = org_db () in
  (* the subject is the per-context CSE cache, so keep the global
     result cache out of the loop *)
  let ctx = Exec.make_ctx ~result_cache:false () in
  let compiled = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  ignore (Xnf.Xnf_compile.extract ~ctx ~cache:false compiled);
  Alcotest.(check bool) "sharing exercised" true
    (Hashtbl.length ctx.Exec.shared > 0);
  let m1 = ctx.Exec.materializations in
  Alcotest.(check bool) "boxes drained" true (m1 > 0);
  (* a second extraction over the same context re-reads every cached
     box: no new materialization runs *)
  ignore (Xnf.Xnf_compile.extract ~ctx ~cache:false compiled);
  Alcotest.(check int) "second extract reads the cache" m1
    ctx.Exec.materializations

let test_nl_join_rerun_uses_cache () =
  let db = org_db () in
  let ctx = Exec.make_ctx () in
  (* non-equi condition forces a nested-loop join with a materialized
     inner *)
  let c =
    Db.compile_query db
      "SELECT e.eno, d.dno FROM emp e, dept d WHERE e.sal > d.dno * 2000"
  in
  let r1 = Exec.run ~ctx c in
  let m1 = ctx.Exec.materializations in
  Alcotest.(check bool) "inner materialized" true (m1 > 0);
  (* re-running the same compiled plan in the same context must re-read
     the materialized inner, not re-drain it *)
  let r2 = Exec.run ~ctx c in
  check_rows "re-run identical" r1 r2;
  Alcotest.(check int) "inner not re-drained" m1 ctx.Exec.materializations;
  check_rows "agrees with scalar" (Exec_scalar.run c) r1

let test_ctx_counters () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let ctx = Exec.make_ctx () in
  let c = Db.compile_query db "SELECT pid FROM parts WHERE build >= 0" in
  let bs = Exec.drain_batches (Exec.open_batches ~ctx c) in
  Alcotest.(check int) "all parts scanned" 300 ctx.Exec.rows_scanned;
  Alcotest.(check int) "batches counted at the root" (List.length bs)
    ctx.Exec.batches_emitted;
  Alcotest.(check int) "rows survive batching" 300 (Batch.list_length bs);
  let ctx2 = Exec.make_ctx () in
  let c2 =
    (* rewrite off: keep the EXISTS correlated instead of decorrelating *)
    Db.compile_query ~rewrite:false db
      "SELECT p.pid FROM parts p WHERE EXISTS (SELECT 1 FROM conns c WHERE \
       c.cfrom = p.pid AND c.clength < 100)"
  in
  ignore (Exec.run ~ctx:ctx2 c2);
  Alcotest.(check bool) "correlated subqueries counted" true
    (ctx2.Exec.subqueries_run > 0)

let suite =
  [
    Alcotest.test_case "selection vectors" `Quick test_selection_vectors;
    Alcotest.test_case "capacity boundary" `Quick test_capacity_boundary;
    Alcotest.test_case "push guard" `Quick test_push_guard;
    Alcotest.test_case "ctx batch capacity" `Quick test_ctx_capacity;
    Alcotest.test_case "empty batch" `Quick test_empty_batch;
    Alcotest.test_case "batched = scalar (oo1)" `Quick test_equiv_oo1;
    Alcotest.test_case "batched = scalar (bom)" `Quick test_equiv_bom;
    Alcotest.test_case "batched = scalar (org)" `Quick test_equiv_org;
    Alcotest.test_case "batched = scalar (shop)" `Quick test_equiv_shop;
    Alcotest.test_case "shared box drains once" `Quick
      test_shared_box_drains_once;
    Alcotest.test_case "nl-join re-run uses cache" `Quick
      test_nl_join_rerun_uses_cache;
    Alcotest.test_case "ctx counters" `Quick test_ctx_counters;
  ]
