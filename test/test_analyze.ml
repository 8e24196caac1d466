(** EXPLAIN ANALYZE attribution.

    Covers the per-operator accumulator (rows-in/out invariants),
    byte-identity of query results
    with analysis armed vs off across the four workload databases, and
    the EXPLAIN (ANALYZE) report text with its per-statement counter
    sections. *)

open Relcore
module Db = Engine.Database
module Plan = Optimizer.Plan
module Opstats = Executor.Opstats

(* run [sql] with the per-operator accumulator armed *)
let run_compiled db sql =
  let c = Db.compile_query db sql in
  let acc = Opstats.create1 c in
  let ctx = Executor.Exec.make_ctx () in
  ctx.Executor.Exec.analyze <- Some acc;
  (c, acc, Executor.Exec.run ~ctx c)

let run_analyzed db sql =
  let _, acc, rows = run_compiled db sql in
  (acc, rows)

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
  Alcotest.(check bool) "render mentions est=" true (Helpers.contains ~affix:"est=" rendered)

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
      Helpers.check_rows (name ^ ": serial analyze identity") baseline serial_on)
    (workload_cases ())

(* Every est= EXPLAIN ANALYZE prints is the planner's own number for that
   node: the one it recorded while compiling, or est=? with no q-error
   where it emitted the node without costing it. *)
let check_one_estimator msg (c : Plan.compiled) (acc : Opstats.t) =
  (* one section: the report's lines are the ops, in order *)
  let lines = String.split_on_char '\n' (Opstats.render acc) in
  Array.iteri
    (fun i (op : Opstats.op) ->
      let line = List.nth lines i in
      let want = Plan.estimate c op.Opstats.node in
      Alcotest.(check (option (float 0.0)))
        (msg ^ ": est is the planner's: " ^ line)
        want op.Opstats.est;
      let est_tag =
        match want with
        | Some e -> Printf.sprintf "  (est=%.0f " e
        | None -> "  (est=? "
      in
      Alcotest.(check bool)
        (msg ^ ": rendered: " ^ line)
        true
        (Helpers.contains ~affix:(Plan.node_line op.Opstats.node ^ est_tag) line);
      Alcotest.(check bool)
        (msg ^ ": q-error only with an estimate: " ^ line)
        (Option.is_some want && op.Opstats.opens > 0)
        (Helpers.contains ~affix:" q=" line))
    acc.Opstats.ops;
  Alcotest.(check bool)
    (msg ^ ": the planner estimated some op")
    true
    (Array.exists (fun (op : Opstats.op) -> Option.is_some op.Opstats.est) acc.Opstats.ops)

let test_one_estimator () =
  List.iter
    (fun (name, db, sql) ->
      let c, acc, _ = run_compiled db sql in
      check_one_estimator name c acc)
    (workload_cases ())

(* The OO1 parts graph's IndexJoin (parts -> conns on pid = cfrom) was
   once estimated from textbook constants as |parts| x |conns| x 0.05;
   the planner's own estimate uses the index key count instead. *)
let test_oo1_index_join_estimate () =
  let db =
    Workloads.Oo1.generate { Workloads.Oo1.default with Workloads.Oo1.n_parts = 400 }
  in
  let xc =
    Xnf.Xnf_compile.compile ~cache:false db Workloads.Oo1.parts_graph_query
  in
  let rec index_join (p : Plan.t) =
    match p with
    | Plan.Index_join _ -> Some p
    | _ -> List.find_map index_join (Plan.children p)
  in
  let c, ij =
    List.find_map
      (fun (_, (c : Plan.compiled)) ->
        Option.map (fun ij -> (c, ij)) (index_join c.Plan.plan))
      xc.Xnf.Xnf_compile.plans
    |> Option.get
  in
  let card name = float_of_int (Base_table.cardinality (Db.find_table db name)) in
  let conns = card "conns" in
  let est = Option.get (Plan.estimate c ij) in
  Alcotest.(check bool)
    "not |parts| x |conns| x 0.05" true
    (est <> card "parts" *. conns *. 0.05);
  (* every connection leaves a part: the join yields |conns| rows *)
  Alcotest.(check bool) "within 2x of |conns|" true
    (est <= 2.0 *. conns && conns <= 2.0 *. est);
  let report = Xnf.Xnf_compile.explain_analyze db Workloads.Oo1.parts_graph_query in
  Alcotest.(check bool)
    "EXPLAIN ANALYZE prints the planner's estimate" true
    (Helpers.contains
       ~affix:(Printf.sprintf "%s  (est=%.0f " (Plan.node_line ij) est)
       report)

let test_explain_analyze_text () =
  let db = Helpers.org_db () in
  match Db.exec db ("EXPLAIN ANALYZE " ^ org_join_sql) with
  | Db.Done report ->
    let has affix = Helpers.contains ~affix report in
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
    let has affix = Helpers.contains ~affix report in
    Alcotest.(check bool) "delta colstore section" true
      (has "== colstore (this statement) ==");
    (* EXPLAIN compiles but never executes: its own window scans nothing *)
    Alcotest.(check bool) "no scan traffic in window" true
      (has "chunks scanned: 0")
  | _ -> Alcotest.fail "EXPLAIN should return Done"

let suite =
  [
    Alcotest.test_case "serial attribution" `Quick test_serial_attribution;
    Alcotest.test_case "analyze on/off identity" `Quick test_analyze_identity;
    Alcotest.test_case "one estimator: est is the planner's" `Quick
      test_one_estimator;
    Alcotest.test_case "oo1 index join estimate" `Quick
      test_oo1_index_join_estimate;
    Alcotest.test_case "explain analyze text" `Quick test_explain_analyze_text;
    Alcotest.test_case "per-statement explain counters" `Quick
      test_explain_per_statement_counters;
  ]
