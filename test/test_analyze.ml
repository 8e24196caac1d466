(** EXPLAIN ANALYZE attribution and cost-model calibration.

    Covers the per-operator accumulator (rows-in/out invariants on the
    serial and the 4-domain executor), byte-identity of query results
    with analysis armed vs off across the four workload databases, the
    calibration profile's save/load round trip, and an empty
    [XNFDB_COST_PROFILE] restoring the hand-set constants (and hence
    today's plans) bit for bit. *)

open Relcore
module Db = Engine.Database
module Plan = Optimizer.Plan
module Cost = Optimizer.Cost
module Calibrate = Optimizer.Cost.Calibrate
module Opstats = Executor.Opstats

let contains (s : string) (affix : string) : bool =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* run [sql] with the per-operator accumulator armed *)
let run_analyzed ?domains db sql =
  let c = Db.compile_query db sql in
  let acc = Opstats.create1 c.Plan.plan in
  let ctx = Executor.Exec.make_ctx () in
  ctx.Executor.Exec.analyze <- Some acc;
  let bs =
    match domains with
    | Some d when d > 1 ->
      (* threshold 1 forces the fan-out even on test-sized tables *)
      Executor.Exec_par.run_batches ~ctx ~domains:d ~threshold:1 c
    | _ -> Executor.Exec.run_batches ~ctx c
  in
  (acc, Batch.list_to_rows bs)

(* The structural invariants every analyzed run must satisfy:
   - the root operator's recorded rows equal the delivered result rows;
   - a Filter/Distinct/Limit never reports more output rows than its
     (opened) input reports — child rows are the parent's input. *)
let check_invariants msg (acc : Opstats.t) (rows : Tuple.t list) =
  Alcotest.(check bool) (msg ^ ": has ops") true (Opstats.count acc > 0);
  let root = acc.Opstats.ops.(0) in
  Alcotest.(check int) (msg ^ ": root rows") (List.length rows) root.Opstats.rows;
  Array.iter
    (fun (op : Opstats.op) ->
      Alcotest.(check bool)
        (msg ^ ": wall >= 0")
        true
        (op.Opstats.wall >= 0.0);
      let narrowing input =
        let iid = Opstats.id_of acc input in
        if iid >= 0 then begin
          let inp = acc.Opstats.ops.(iid) in
          if op.Opstats.opens > 0 && inp.Opstats.opens > 0 then
            Alcotest.(check bool)
              (msg ^ ": narrowing op rows <= input rows")
              true
              (op.Opstats.rows <= inp.Opstats.rows)
        end
      in
      match op.Opstats.node with
      | Plan.Filter (input, _) | Plan.Distinct input | Plan.Limit (input, _) ->
        narrowing input
      | _ -> ())
    acc.Opstats.ops

let org_join_sql =
  "SELECT e.eno, d.dname FROM emp e, dept d WHERE e.edno = d.dno AND d.loc = \
   'ARC' ORDER BY e.eno"

let test_serial_attribution () =
  let db = Helpers.org_db () in
  let plain = Db.query_rows db org_join_sql in
  let acc, rows = run_analyzed db org_join_sql in
  Helpers.check_rows "analyzed rows unchanged" plain rows;
  check_invariants "serial" acc rows;
  let rendered = Opstats.render acc in
  Alcotest.(check bool) "render mentions est=" true (contains rendered "est=")

let test_parallel_attribution () =
  let db =
    Workloads.Org.generate
      { Workloads.Org.default with Workloads.Org.n_depts = 40; seed = 3 }
  in
  let sql =
    "SELECT e.eno, d.dno FROM emp e, dept d WHERE e.edno = d.dno AND d.loc = \
     'ARC'"
  in
  let plain = Db.query_rows db sql in
  let acc, rows = run_analyzed ~domains:4 db sql in
  Helpers.check_rows "parallel analyzed rows unchanged" plain rows;
  check_invariants "parallel" acc rows

let test_parallel_blocking_attribution () =
  (* aggregate + sort exercise the drain-level attribution (blocking
     operators record rows at the drain, not through worker partials) *)
  let db =
    Workloads.Org.generate
      { Workloads.Org.default with Workloads.Org.n_depts = 40; seed = 4 }
  in
  let sql =
    "SELECT edno, COUNT(*) FROM emp GROUP BY edno ORDER BY edno"
  in
  let plain = Db.query_rows db sql in
  let acc, rows = run_analyzed ~domains:4 db sql in
  Helpers.check_rows "parallel agg rows unchanged" plain rows;
  check_invariants "parallel blocking" acc rows

(* the four workload databases with one representative query each *)
let workload_cases () =
  [
    ( "oo1",
      Workloads.Oo1.generate
        { Workloads.Oo1.default with Workloads.Oo1.n_parts = 400 },
      "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
       500" );
    ( "bom",
      Workloads.Bom.generate Workloads.Bom.default,
      "SELECT parent, COUNT(*), SUM(qty) FROM contains GROUP BY parent" );
    ( "org",
      Helpers.org_db (),
      "SELECT ename FROM emp WHERE edno IN (SELECT dno FROM dept WHERE loc = \
       'ARC')" );
    ( "shop",
      Workloads.Shop.generate Workloads.Shop.default,
      "SELECT c.cid, o.oid FROM customer c, orders o WHERE o.ocid = c.cid AND \
       c.region = 'EMEA'" );
  ]

let test_analyze_identity () =
  List.iter
    (fun (name, db, sql) ->
      let baseline = Db.query_rows db sql in
      let _, serial_on = run_analyzed db sql in
      Helpers.check_rows (name ^ ": serial analyze identity") baseline serial_on;
      let par_off = Db.query_rows ~domains:4 db sql in
      Helpers.check_rows (name ^ ": parallel off identity") baseline par_off;
      let _, par_on = run_analyzed ~domains:4 db sql in
      Helpers.check_rows (name ^ ": parallel analyze identity") baseline par_on)
    (workload_cases ())

let test_explain_analyze_text () =
  let db = Helpers.org_db () in
  match Db.exec db ("EXPLAIN ANALYZE " ^ org_join_sql) with
  | Db.Done report ->
    let has affix = contains report affix in
    Alcotest.(check bool) "plan section" true (has "== plan (analyzed) ==");
    Alcotest.(check bool) "actual rows" true (has "act=");
    Alcotest.(check bool) "q-error" true (has "q=");
    Alcotest.(check bool) "rows returned" true (has "rows returned:");
    Alcotest.(check bool) "per-statement counters" true
      (has "== colstore (this statement) ==")
  | _ -> Alcotest.fail "EXPLAIN ANALYZE should return Done"

let test_explain_per_statement_counters () =
  (* process counters accrued by earlier queries must not leak into a
     later statement's EXPLAIN *)
  let db = Helpers.org_db () in
  ignore (Db.query_rows db "SELECT eno FROM emp WHERE sal > 0");
  match Db.exec db "EXPLAIN SELECT dno FROM dept WHERE loc = 'ARC'" with
  | Db.Done report ->
    let has affix = contains report affix in
    Alcotest.(check bool) "delta colstore section" true
      (has "== colstore (this statement) ==");
    (* EXPLAIN compiles but never executes: its own window scans nothing *)
    Alcotest.(check bool) "no scan traffic in window" true
      (has "chunks scanned: 0")
  | _ -> Alcotest.fail "EXPLAIN should return Done"

(* -- calibration --------------------------------------------------------- *)

let weird_profile =
  {
    Calibrate.batch_overhead = 7.53;
    cold_chunk_penalty = 2.25;
    parallel_overhead = 99.5;
    parallel_threshold_rows = 4096;
    jf_drop_threshold = 0.625;
    jf_adaptive_sample = 1024;
    host_cores = 7;
    tuple_ns = 3.14159265358979;
  }

(* the "== plan ==" section of an EXPLAIN report: QGM box ids are fresh
   per compile, so plan-identity comparisons must not include them *)
let plan_section (explain : string) : string =
  let tag = "== plan ==" in
  let n = String.length explain and m = String.length tag in
  let rec find i =
    if i + m > n then Alcotest.fail "no plan section"
    else if String.sub explain i m = tag then i
    else find (i + 1)
  in
  let start = find 0 in
  let stop =
    let rec find2 i =
      if i + 2 > n then n
      else if String.sub explain i 2 = "==" then i
      else find2 (i + 1)
    in
    find2 (start + m)
  in
  String.sub explain start (stop - start)

let with_env pairs f =
  let old = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        old)
    f

let test_profile_roundtrip () =
  let path = Filename.temp_file "xnfdb-profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Calibrate.save path weird_profile;
      match Calibrate.load path with
      | Ok p ->
        Alcotest.(check bool) "round trip exact" true (p = weird_profile)
      | Error e -> Alcotest.fail ("load failed: " ^ e));
  match Calibrate.load "/nonexistent/xnfdb-profile" with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ()

let test_calibration_knobs () =
  (* baseline: no profile — the hand-set constants *)
  with_env [ ("XNFDB_COST_PROFILE", "") ]
    (fun () ->
      let db = Helpers.org_db () in
      let baseline_explain = Db.explain db org_join_sql in
      Alcotest.(check (float 0.0)) "default batch_overhead" 4.0
        (Cost.batch_overhead ());
      let path = Filename.temp_file "xnfdb-profile" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Calibrate.save path weird_profile;
          with_env [ ("XNFDB_COST_PROFILE", path) ] (fun () ->
              (* profile in force *)
              Alcotest.(check (float 0.0)) "calibrated batch_overhead" 7.53
                (Cost.batch_overhead ());
              Alcotest.(check int) "calibrated threshold" 4096
                (Cost.parallel_threshold_rows ());
              Alcotest.(check (float 0.0)) "calibrated jf drop" 0.625
                (Cost.jf_drop_threshold ());
              (* clearing the profile restores the defaults bit for
                 bit *)
              with_env [ ("XNFDB_COST_PROFILE", "") ] (fun () ->
                  Alcotest.(check (float 0.0)) "escape batch_overhead" 4.0
                    (Cost.batch_overhead ());
                  Alcotest.(check (float 0.0)) "escape jf drop"
                    Bloom.drop_threshold
                    (Cost.jf_drop_threshold ());
                  Alcotest.(check int) "escape jf sample"
                    Bloom.adaptive_sample
                    (Cost.jf_adaptive_sample ());
                  let off_explain = Db.explain db org_join_sql in
                  Alcotest.(check string) "plans unchanged with \
                                           XNFDB_COST_PROFILE empty"
                    (plan_section baseline_explain)
                    (plan_section off_explain)))))

let test_measure_sanity () =
  let p = Calibrate.measure () in
  let in_range lo hi v = v >= lo && v <= hi in
  Alcotest.(check bool) "batch_overhead clamp" true
    (in_range 0.5 64.0 p.Calibrate.batch_overhead);
  Alcotest.(check bool) "cold_chunk_penalty clamp" true
    (in_range 0.1 16.0 p.Calibrate.cold_chunk_penalty);
  Alcotest.(check bool) "parallel_overhead clamp" true
    (in_range 8.0 1e7 p.Calibrate.parallel_overhead);
  Alcotest.(check bool) "parallel_threshold clamp" true
    (p.Calibrate.parallel_threshold_rows >= 512
    && p.Calibrate.parallel_threshold_rows <= 1_000_000);
  Alcotest.(check bool) "jf_drop clamp" true
    (in_range 0.5 0.95 p.Calibrate.jf_drop_threshold);
  Alcotest.(check bool) "tuple_ns positive" true (p.Calibrate.tuple_ns > 0.0);
  Alcotest.(check bool) "cores recorded" true (p.Calibrate.host_cores >= 1)

(* a calibrated profile may reshape plans, never results: the four
   workloads return the same rows under the default constants and under
   a profile far from them *)
let test_calibrated_plans_keep_results () =
  let path = Filename.temp_file "xnfdb-profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Calibrate.save path weird_profile;
      List.iter
        (fun (name, db, sql) ->
          let rows () =
            Db.invalidate_plans db;
            List.sort compare (Db.query_rows ~cache:false db sql)
          in
          let default =
            with_env [ ("XNFDB_COST_PROFILE", "") ] rows
          in
          let calibrated =
            with_env [ ("XNFDB_COST_PROFILE", path) ] rows
          in
          Helpers.check_rows (name ^ ": calibrated = default") default
            calibrated)
        (workload_cases ()))

let suite =
  [
    Alcotest.test_case "serial attribution" `Quick test_serial_attribution;
    Alcotest.test_case "parallel attribution" `Quick test_parallel_attribution;
    Alcotest.test_case "parallel blocking attribution" `Quick
      test_parallel_blocking_attribution;
    Alcotest.test_case "analyze on/off identity" `Quick test_analyze_identity;
    Alcotest.test_case "explain analyze text" `Quick test_explain_analyze_text;
    Alcotest.test_case "per-statement explain counters" `Quick
      test_explain_per_statement_counters;
    Alcotest.test_case "profile round trip" `Quick test_profile_roundtrip;
    Alcotest.test_case "calibration knobs" `Quick test_calibration_knobs;
    Alcotest.test_case "measure sanity" `Quick test_measure_sanity;
    Alcotest.test_case "calibrated plans keep results" `Quick
      test_calibrated_plans_keep_results;
  ]
