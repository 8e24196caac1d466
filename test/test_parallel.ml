(** Parallel execution layer: pool/channel units, the ordered
    parallel==sequential equivalence property across all four workloads,
    join methods and domain counts, byte-identical CO extraction, and a
    randomized morsel-size stress run. *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec
module Exec_par = Executor.Exec_par

(* ------------------------------------------------------------- units -- *)

let test_pool () =
  (* every participant index runs exactly once *)
  let hits = Array.make 4 0 in
  Pool.run ~domains:4 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (list int)) "each participant ran once" [ 1; 1; 1; 1 ]
    (Array.to_list hits);
  (* morsel scheduling covers every index exactly once *)
  let seen = Array.make 100 0 in
  let lock = Mutex.create () in
  Pool.for_morsels ~domains:4 ~morsels:100 (fun m ->
      Mutex.lock lock;
      seen.(m) <- seen.(m) + 1;
      Mutex.unlock lock);
  Alcotest.(check bool) "all morsels visited once" true
    (Array.for_all (( = ) 1) seen);
  (* nested run degrades to inline instead of deadlocking the pool *)
  let total = Atomic.make 0 in
  Pool.run ~domains:2 (fun _ ->
      Pool.run ~domains:2 (fun _ -> ignore (Atomic.fetch_and_add total 1)));
  Alcotest.(check int) "nested run executed 2x2 tasks" 4 (Atomic.get total);
  (* task exceptions surface at await *)
  let h = Pool.launch ~n:3 (fun i -> if i = 1 then failwith "boom") in
  (match Pool.await h with
  | () -> Alcotest.fail "expected failure to propagate"
  | exception Failure m -> Alcotest.(check string) "task error" "boom" m)

let test_chan () =
  let c = Chan.create ~capacity:4 in
  (* fits within capacity: same-thread round trip preserves order *)
  List.iter (Chan.push c) [ 1; 2; 3 ];
  Chan.close c;
  let rec drain c acc =
    match Chan.pop c with None -> List.rev acc | Some x -> drain c (x :: acc)
  in
  Alcotest.(check (list int)) "fifo order, then end of stream" [ 1; 2; 3 ]
    (drain c []);
  Alcotest.(check bool) "pop after drain stays None" true (Chan.pop c = None);
  (match Chan.push c 4 with
  | () -> Alcotest.fail "push on closed channel must raise"
  | exception Chan.Closed -> ());
  (match Chan.create ~capacity:0 with
  | _ -> Alcotest.fail "zero capacity must be rejected"
  | exception Invalid_argument _ -> ());
  (* cross-domain: producers on the pool, consumer here, with a buffer
     smaller than the element count so producers actually block *)
  let c = Chan.create ~capacity:2 in
  let n_producers = 3 and per_producer = 50 in
  let active = Atomic.make n_producers in
  let h =
    Pool.launch ~n:n_producers (fun w ->
        for i = 0 to per_producer - 1 do
          Chan.push c ((w * per_producer) + i)
        done;
        if Atomic.fetch_and_add active (-1) = 1 then Chan.close c)
  in
  let got = drain c [] in
  Pool.await h;
  Alcotest.(check int) "every element arrived"
    (n_producers * per_producer)
    (List.length got);
  Alcotest.(check (list int)) "no element lost or duplicated"
    (List.init (n_producers * per_producer) Fun.id)
    (List.sort compare got)

(* ----------------------------------- parallel == sequential (ordered) -- *)

(* tiny threshold + tiny morsels force the parallel machinery even on
   test-sized tables *)
let par_run ~domains c = Exec_par.run ~domains ~threshold:1 ~morsel_rows:17 c

let check_equiv name db sql =
  let c = Db.compile_query db sql in
  let expected = Exec.run c in
  List.iter
    (fun domains ->
      check_rows
        (Printf.sprintf "%s @ %d domains" name domains)
        expected
        (par_run ~domains c))
    [ 1; 2; 4 ]

let test_equiv_oo1 () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 500 } in
  check_equiv "index-join traversal" db
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
     5000";
  check_equiv "scan + filter" db
    "SELECT cto, clength FROM conns WHERE clength < 500";
  check_equiv "mergeable aggregate" db
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
  check_equiv "sum rollup (splice fallback)" db
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
  check_equiv "correlated exists (sequential fallback)" db
    "SELECT d.dno FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE \
     e.edno = d.dno AND e.sal > 3000)";
  check_equiv "in subquery (sequential fallback)" db
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
  check_equiv "float sum rollup (splice fallback)" db
    "SELECT status, COUNT(*), SUM(total) FROM orders GROUP BY status";
  check_equiv "empty result" db "SELECT cid FROM customer WHERE cid < 0"

(* ------------------------------------- CO extraction, byte-identical -- *)

let hetstream_testable : Xnf.Hetstream.t Alcotest.testable =
  Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "stream of %d items" (Xnf.Hetstream.total_items s))
    Xnf.Hetstream.equal

(* ~cache:false: the point is comparing the two executors, so the
   parallel run must not be served from the stream cached by the
   sequential one *)
let check_extraction name db query =
  let c = Xnf.Xnf_compile.compile db query in
  let seq = Xnf.Xnf_compile.extract ~cache:false c in
  List.iter
    (fun domains ->
      let par =
        Xnf.Xnf_compile.extract_parallel ~domains ~threshold:1 ~morsel_rows:17
          ~cache:false c
      in
      Alcotest.check hetstream_testable
        (Printf.sprintf "%s @ %d domains" name domains)
        seq par)
    [ 1; 2; 4 ]

let test_extraction_equiv () =
  check_extraction "org deps"
    (Workloads.Org.generate Workloads.Org.default)
    Workloads.Org.deps_arc_query;
  check_extraction "oo1 parts graph"
    (Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 })
    Workloads.Oo1.parts_graph_query;
  check_extraction "bom assembly"
    (Workloads.Bom.generate Workloads.Bom.default)
    Workloads.Bom.assembly_query;
  check_extraction "shop region"
    (Workloads.Shop.generate Workloads.Shop.default)
    (Workloads.Shop.region_query "EMEA")

(* --------------------------------------- randomized morsel-size stress -- *)

let test_morsel_stress () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 400 } in
  let queries =
    [
      "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build \
       < 50000";
      "SELECT cfrom, COUNT(*), MAX(clength) FROM conns GROUP BY cfrom";
      "SELECT pid, ptype FROM parts WHERE build < 60000";
    ]
  in
  let rng = Workloads.Rng.create 0xC0FFEE in
  List.iter
    (fun sql ->
      let c = Db.compile_query db sql in
      let expected = Exec.run c in
      for _ = 1 to 8 do
        let morsel_rows = 1 + Workloads.Rng.int rng 97 in
        let domains = 1 + Workloads.Rng.int rng 6 in
        check_rows
          (Printf.sprintf "morsel=%d domains=%d: %s" morsel_rows domains sql)
          expected
          (Exec_par.run ~domains ~threshold:1 ~morsel_rows c)
      done)
    queries

(* ------------------------------------------------------- scheduling -- *)

let test_dop_choice () =
  let dop = Optimizer.Cost.choose_dop ~domains:8 ~rows:100 () in
  Alcotest.(check int) "small inputs stay serial" 1 dop;
  let dop = Optimizer.Cost.choose_dop ~domains:8 ~rows:1_000_000 () in
  Alcotest.(check int) "large inputs use all domains" 8 dop;
  let dop = Optimizer.Cost.choose_dop ~domains:8 ~rows:3 ~threshold:1 () in
  Alcotest.(check int) "never more workers than chunks" 3 dop

let test_parallelizable () =
  let db = org_db () in
  let pure = Db.compile_query db "SELECT eno FROM emp WHERE sal > 100" in
  Alcotest.(check bool) "pure scan+filter is parallelizable" true
    (Exec_par.parallelizable pure.Optimizer.Plan.plan);
  let correlated =
    Db.compile_query ~rewrite:false db
      "SELECT d.dno FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE \
       e.edno = d.dno)"
  in
  Alcotest.(check bool) "correlated probe is not" false
    (Exec_par.parallelizable correlated.Optimizer.Plan.plan);
  let limited = Db.compile_query db "SELECT eno FROM emp LIMIT 2" in
  Alcotest.(check bool) "limit is not" false
    (Exec_par.parallelizable limited.Optimizer.Plan.plan)

(* ------------------------------------ parallel under a snapshot -- *)

(* morsel workers read the pinned epoch exactly like the serial
   executor: commits after the pin stay invisible to both *)
let test_snapshot_equiv () =
  (* the DML after the pin must stay within the delta log's history
     window, or the pinned epoch cannot be rebuilt: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 400 } in
  let traversal =
    "SELECT c.cto, c.clength FROM parts p, conns c WHERE p.pid = c.cfrom AND \
     p.build < 5000"
  in
  let cases =
    [
      ( "scan + filter",
        "SELECT cfrom, cto, clength FROM conns WHERE clength < 500",
        "Filter" );
      ( "hash join",
        "SELECT p.pid, c.cto FROM parts p, conns c WHERE p.build = c.clength",
        "HashJoin" );
      ("index join", traversal, "IndexJoin");
    ]
  in
  let compiled =
    List.map
      (fun (name, sql, op) ->
        let c = Db.compile_query db sql in
        Alcotest.(check bool)
          (name ^ ": plan uses " ^ op)
          true
          (contains ~affix:op (Optimizer.Plan.explain c.Optimizer.Plan.plan));
        (name, c))
      cases
  in
  (* the generator loads rows below the SQL layer: publish them as the
     committed state the pin reads *)
  Snapshot.publish_catalog (Db.catalog db);
  let s = Snapshot.pin (Db.catalog db) in
  Fun.protect
    ~finally:(fun () -> Snapshot.release s)
    (fun () ->
      ignore (Db.exec db "UPDATE conns SET clength = 0 WHERE cfrom < 20");
      ignore (Db.exec db "DELETE FROM conns WHERE cfrom >= 20 AND cfrom < 30");
      ignore (Db.exec db "INSERT INTO conns VALUES (1, 2, 'conn-type0', 7)");
      List.iter
        (fun (name, c) ->
          let snap () =
            Exec.make_ctx ~result_cache:false ~snapshot:(Snapshot.rows s) ()
          in
          let expected = Exec.run ~ctx:(snap ()) c in
          Alcotest.(check bool) (name ^ ": the snapshot has rows") true
            (expected <> []);
          Alcotest.(check bool)
            (name ^ ": the commits are not in the snapshot")
            false
            (List.sort compare expected = List.sort compare (Exec.run c));
          check_rows
            (name ^ " @ 4 domains under a snapshot")
            expected
            (Exec_par.run ~ctx:(snap ()) ~domains:4 ~threshold:1
               ~morsel_rows:17 c))
        compiled)

let suite =
  [
    Alcotest.test_case "domain pool" `Quick test_pool;
    Alcotest.test_case "bounded channel" `Quick test_chan;
    Alcotest.test_case "parallel = sequential (oo1)" `Quick test_equiv_oo1;
    Alcotest.test_case "parallel = sequential (bom)" `Quick test_equiv_bom;
    Alcotest.test_case "parallel = sequential (org)" `Quick test_equiv_org;
    Alcotest.test_case "parallel = sequential (shop)" `Quick test_equiv_shop;
    Alcotest.test_case "extraction byte-identical" `Quick
      test_extraction_equiv;
    Alcotest.test_case "randomized morsel stress" `Quick test_morsel_stress;
    Alcotest.test_case "dop choice" `Quick test_dop_choice;
    Alcotest.test_case "parallelizable predicate" `Quick test_parallelizable;
    Alcotest.test_case "parallel = sequential under a snapshot" `Quick
      test_snapshot_equiv;
  ]
