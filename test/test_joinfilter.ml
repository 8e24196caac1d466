(** Sideways information passing: the build-side join filter (blocked
    Bloom + exact range + exact small set) is never false-negative — by
    qcheck property up to max_int/min_int — and filtering is
    output-invariant: filtered plans produce byte-identical results to
    filter-free references ({!Exec_scalar}, which ignores [jfilter], or
    the same plan with every hint stripped) across all four workloads,
    join methods, domain counts and cache modes.  Also covers the
    filter counters and explain section, adaptive disabling on useless
    filters, and the [Cost.pred_selectivity] conjunct-grouping
    regression (a range pair on one column must cost as one interval,
    not a product). *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec
module Plan = Optimizer.Plan
module Qgm = Starq.Qgm

(* ------------------------------------------------- unfiltered plans -- *)

(* The same plan with every [Hash_join.jfilter] hint dropped: the
   executor then builds no filter anywhere.  [Shared] ids are kept, so
   common subexpressions still materialize once per context. *)
let rec strip_plan (p : Plan.t) : Plan.t =
  match p with
  | Plan.Scan _ | Plan.Values _ -> p
  | Plan.Filter (input, pred) -> Plan.Filter (strip_plan input, strip_pred pred)
  | Plan.Project (input, cols) -> Plan.Project (strip_plan input, cols)
  | Plan.Nl_join { outer; inner; cond } ->
    Plan.Nl_join
      {
        outer = strip_plan outer;
        inner = strip_plan inner;
        cond = strip_pred cond;
      }
  | Plan.Hash_join j ->
    Plan.Hash_join
      {
        j with
        build = strip_plan j.build;
        probe = strip_plan j.probe;
        residual = strip_pred j.residual;
        jfilter = None;
      }
  | Plan.Index_join j ->
    Plan.Index_join
      { j with outer = strip_plan j.outer; residual = strip_pred j.residual }
  | Plan.Distinct input -> Plan.Distinct (strip_plan input)
  | Plan.Aggregate a -> Plan.Aggregate { a with input = strip_plan a.input }
  | Plan.Sort (input, specs) -> Plan.Sort (strip_plan input, specs)
  | Plan.Limit (input, n) -> Plan.Limit (strip_plan input, n)
  | Plan.Union_all inputs -> Plan.Union_all (List.map strip_plan inputs)
  | Plan.Shared (id, input) -> Plan.Shared (id, strip_plan input)

and strip_pred (pred : Plan.ppred) : Plan.ppred =
  match pred with
  | Plan.P_exists p -> Plan.P_exists (strip_plan p)
  | Plan.P_in (s, p) -> Plan.P_in (s, strip_plan p)
  | Plan.P_and (a, b) -> Plan.P_and (strip_pred a, strip_pred b)
  | Plan.P_or (a, b) -> Plan.P_or (strip_pred a, strip_pred b)
  | Plan.P_not a -> Plan.P_not (strip_pred a)
  | Plan.P_true | Plan.P_false | Plan.P_cmp _ | Plan.P_is_null _
  | Plan.P_is_not_null _ | Plan.P_like _ ->
    pred

let strip_compiled (c : Plan.compiled) =
  { c with Plan.plan = strip_plan c.Plan.plan }

(* -------------------------------------------- filter unit properties -- *)

(* int generator biased toward the places a filter can go wrong: the
   extremes of the int range, dense small runs, and power-of-two edges *)
let key_gen =
  QCheck.Gen.(
    oneof
      [
        int;
        oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; 1; -1 ];
        map (fun i -> 1 lsl (abs i mod 62)) int;
        map (fun i -> abs i mod 1000) int;
      ])

let keys_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_bound 300) key_gen)

let test_never_false_negative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"bloom never false-negative" keys_arb
       (fun keys ->
         let bl = Bloom.create ~expected:(List.length keys) in
         List.iter (Bloom.add bl) keys;
         List.for_all (Bloom.mem bl) keys))

let test_filter_unit () =
  let bl = Bloom.create ~expected:16 in
  Alcotest.(check bool) "empty filter rejects" false (Bloom.mem bl 42);
  Alcotest.(check (option (pair int int))) "empty range" None (Bloom.range bl);
  List.iter (Bloom.add bl) [ 5; 900; 17; 5 ];
  Alcotest.(check (option (pair int int)))
    "exact range" (Some (5, 900)) (Bloom.range bl);
  Alcotest.(check bool) "small set stays exact" true (Bloom.is_exact bl);
  (* exact mode: in-range non-members are rejected outright *)
  Alcotest.(check bool) "no false positive in exact mode" false
    (Bloom.mem bl 18);
  Alcotest.(check bool) "member found" true (Bloom.mem bl 900);
  (* overflow the exact set: membership must survive the downgrade *)
  let big = Bloom.create ~expected:400 in
  let keys = List.init 400 (fun i -> (i * 7919) + 3) in
  List.iter (Bloom.add big) keys;
  Alcotest.(check bool) "overflowed set is inexact" false (Bloom.is_exact big);
  Alcotest.(check bool) "all keys survive overflow" true
    (List.for_all (Bloom.mem big) keys);
  (* float probe keys fold through Value.int_key_of_float exactly *)
  let fb = Bloom.create ~expected:8 in
  List.iter (Bloom.add fb) [ 3; 1 lsl 53; min_int ];
  List.iter
    (fun (f, want) ->
      match Value.int_key_of_float f with
      | Some k ->
        Alcotest.(check bool)
          (Printf.sprintf "folded float %h" f)
          want (Bloom.mem fb k)
      | None -> Alcotest.fail (Printf.sprintf "float %h did not fold" f))
    [ (3.0, true); (0x1p53, true); (-0x1p62, true); (4.0, false) ]

(* ------------------------- Cost.pred_selectivity conjunct grouping -- *)

let test_selectivity_grouping () =
  with_colstore true @@ fun () ->
  let t =
    Base_table.create ~name:"selgrp"
      (Schema.make
         [
           Schema.column ~nullable:true "v" Dtype.Tint;
           Schema.column ~nullable:true "w" Dtype.Tint;
         ])
  in
  for i = 0 to 99 do
    ignore (Base_table.insert t [| vi i; vi (i mod 5) |])
  done;
  let resolve _ = Some (Qgm.base_box t) in
  let sel p = Optimizer.Cost.pred_selectivity ~resolve p in
  let cmp op a b = Qgm.Bcmp (op, a, b) in
  let col c = Qgm.Qcol (0, c) and k v = Qgm.Const (vi v) in
  let band a b = Qgm.Band (a, b) in
  (* [40, 60] over span [0, 99]: one interval (~0.2), not the
     0.6 * 0.6 = 0.36 the old per-conjunct product gave *)
  let s_band = sel (band (cmp Sqlkit.Ast.Ge (col 0) (k 40))
                      (cmp Sqlkit.Ast.Le (col 0) (k 60))) in
  Alcotest.(check bool)
    (Printf.sprintf "closed range costs as one interval (got %.3f)" s_band)
    true
    (s_band > 0.1 && s_band < 0.3);
  (* a contradiction on one column bottoms out at the clamp floor *)
  let s_empty = sel (band (cmp Sqlkit.Ast.Ge (col 0) (k 80))
                       (cmp Sqlkit.Ast.Le (col 0) (k 20))) in
  Alcotest.(check (float 1e-9)) "disjoint range hits the floor" 0.02 s_empty;
  (* Eq dominates any range on the same column: adding a redundant
     bound must not shrink the estimate below the Eq selectivity *)
  let s_eq = sel (cmp Sqlkit.Ast.Eq (col 0) (k 50)) in
  let s_eq_band = sel (band (cmp Sqlkit.Ast.Eq (col 0) (k 50))
                         (cmp Sqlkit.Ast.Ge (col 0) (k 0))) in
  Alcotest.(check (float 1e-9)) "eq + redundant range = eq" s_eq s_eq_band;
  (* distinct columns still multiply *)
  let s_two = sel (band (cmp Sqlkit.Ast.Lt (col 0) (k 50))
                     (cmp Sqlkit.Ast.Lt (col 1) (k 1))) in
  Alcotest.(check bool)
    (Printf.sprintf "independent columns multiply (got %.3f)" s_two)
    true
    (s_two < 0.25)

(* ----------------------------------- counters, explain, adaptivity -- *)

let totals () =
  ( Bloom.totals.Bloom.filters_built,
    Bloom.totals.Bloom.chunks_skipped,
    Bloom.totals.Bloom.rows_skipped,
    Bloom.totals.Bloom.filters_dropped )

(* The join order places the cheaper side first, and the streamed
   prefix is the hash join's PROBE; the build is the newly placed,
   larger side.  A filter therefore pays off when the probe is a big
   clustered scan and the (even bigger) build side covers only a narrow
   key band — which is the shape built here. *)
let clustered_db () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE probe_t (fk INT, payload INT)");
  ignore (Db.exec db "CREATE TABLE build_t (k INT, tag STRING)");
  (* probe: 2000 rows, keys clustered 0..1999 (tight 64-row zones) *)
  let buf = Buffer.create 4096 in
  for base = 0 to 19 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO probe_t VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "(%d, %d)" ((base * 100) + i) (i mod 7))
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  (* build: 3000 rows confined to keys 100..107 *)
  for base = 0 to 29 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO build_t VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "(%d, 't%d')" (100 + (i mod 8)) ((base * 100) + i))
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  db

let jf_sql =
  "SELECT COUNT(*) FROM probe_t p, build_t b WHERE b.k = p.fk"

let test_counters_and_explain () =
  with_env "XNFDB_CHUNK_ROWS" "64" @@ fun () ->
  with_colstore true @@ fun () ->
  let db = clustered_db () in
  let c = Db.compile_query db jf_sql in
  let expected = Exec_scalar.run c in
  (* 8 probe keys in the build band, each matching 3000/8 build rows *)
  check_rows "oracle count" [ row [ vi 3000 ] ] expected;
  let b0, c0, r0, _ = totals () in
  let ctx = Exec.make_ctx () in
  check_rows "filtered join result" expected (Exec.run ~ctx c);
  Alcotest.(check int) "one filter built" 1 ctx.Exec.jf_built;
  Alcotest.(check bool) "probe chunks pruned by the key range" true
    (ctx.Exec.jf_chunks_skipped > 0);
  Alcotest.(check bool) "probe rows dropped by the filter" true
    (ctx.Exec.jf_rows_skipped > 0);
  Alcotest.(check int) "nothing dropped" 0 ctx.Exec.jf_dropped;
  let b1, c1, r1, _ = totals () in
  Alcotest.(check int) "process totals: built" (b0 + ctx.Exec.jf_built) b1;
  Alcotest.(check int) "process totals: chunks"
    (c0 + ctx.Exec.jf_chunks_skipped) c1;
  Alcotest.(check int) "process totals: rows" (r0 + ctx.Exec.jf_rows_skipped) r1;
  let ex = Db.explain db jf_sql in
  Alcotest.(check bool) "explain has a join-filter section" true
    (contains ~affix:"== join filters (this statement) ==" ex
    && contains ~affix:"filters built" ex
    && contains ~affix:"jfilter(pass~" ex);
  (* without the hint: no filter is built and no row/chunk is skipped *)
  let ctx = Exec.make_ctx () in
  check_rows "unhinted result" expected (Exec.run ~ctx (strip_compiled c));
  Alcotest.(check int) "no filter built" 0 ctx.Exec.jf_built;
  Alcotest.(check int) "no chunks skipped" 0 ctx.Exec.jf_chunks_skipped;
  Alcotest.(check int) "no rows skipped" 0 ctx.Exec.jf_rows_skipped

(* Multi-key (tuple) hash joins carry the same sideways filter: one
   Bloom over the hash of the whole key tuple, probed before the table
   lookup.  Zone-map chunk pruning does not apply — there is no single
   probe column to take a range over — so only row-level skips count. *)
let multi_clustered_db () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE probe_t (fk1 INT, fk2 INT, payload INT)");
  ignore (Db.exec db "CREATE TABLE build_t (k1 INT, k2 INT, tag STRING)");
  let buf = Buffer.create 4096 in
  (* probe: 2000 rows, composite keys (k, k mod 16) for k = 0..1999 *)
  for base = 0 to 19 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO probe_t VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      let k = (base * 100) + i in
      Buffer.add_string buf
        (Printf.sprintf "(%d, %d, %d)" k (k mod 16) (i mod 7))
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  (* build: 3000 rows confined to the 8 combos the probe keys 100..107
     carry, so only 8 of the 2000 probe rows survive the filter *)
  for base = 0 to 29 do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO build_t VALUES ";
    for i = 0 to 99 do
      if i > 0 then Buffer.add_string buf ", ";
      let k = 100 + (i mod 8) in
      Buffer.add_string buf
        (Printf.sprintf "(%d, %d, 't%d')" k (k mod 16) ((base * 100) + i))
    done;
    ignore (Db.exec db (Buffer.contents buf))
  done;
  db

let test_multi_key_filter () =
  with_env "XNFDB_CHUNK_ROWS" "64" @@ fun () ->
  with_colstore true @@ fun () ->
  let db = multi_clustered_db () in
  let sql =
    "SELECT COUNT(*) FROM probe_t p, build_t b WHERE b.k1 = p.fk1 AND b.k2 = \
     p.fk2"
  in
  let c = Db.compile_query db sql in
  let expected = Exec_scalar.run c in
  (* 8 surviving probe keys, each matching 3000/8 build rows *)
  check_rows "oracle count" [ row [ vi 3000 ] ] expected;
  let ctx = Exec.make_ctx () in
  check_rows "filtered join result" expected (Exec.run ~ctx c);
  Alcotest.(check int) "one tuple-key filter built" 1 ctx.Exec.jf_built;
  Alcotest.(check bool) "probe rows dropped by the tuple filter" true
    (ctx.Exec.jf_rows_skipped > 0);
  Alcotest.(check int) "no chunk pruning for tuple keys" 0
    ctx.Exec.jf_chunks_skipped;
  Alcotest.(check int) "nothing dropped" 0 ctx.Exec.jf_dropped;
  let ex = Db.explain db sql in
  Alcotest.(check bool) "planner hints the tuple-key filter" true
    (contains ~affix:"jfilter(pass~" ex);
  (* without the hint: no filter, identical rows *)
  let ctx = Exec.make_ctx () in
  check_rows "unhinted result" expected (Exec.run ~ctx (strip_compiled c));
  Alcotest.(check int) "no filter built" 0 ctx.Exec.jf_built;
  Alcotest.(check int) "no rows skipped" 0 ctx.Exec.jf_rows_skipped

(* String join keys ride the probe table's dictionary: build strings
   fold onto probe-side codes, the Bloom works over codes, and a build
   string absent from the probe dictionary is dropped at translation.
   Needs the columnar probe (codes live in the colstore). *)
let test_string_key_filter () =
  with_colstore true @@ fun () ->
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE probe_t (k STRING, payload INT)");
  ignore (Db.exec db "CREATE TABLE build_t (k STRING, w INT)");
  let buf = Buffer.create 4096 in
  let fill tbl n key_of =
    for base = 0 to (n / 100) - 1 do
      Buffer.clear buf;
      Buffer.add_string buf (Printf.sprintf "INSERT INTO %s VALUES " tbl);
      for i = 0 to 99 do
        if i > 0 then Buffer.add_string buf ", ";
        let j = (base * 100) + i in
        Buffer.add_string buf (Printf.sprintf "('%s', %d)" (key_of j) j)
      done;
      ignore (Db.exec db (Buffer.contents buf))
    done
  in
  (* probe: 3000 distinct keys; build: same size, 20 hot keys plus one
     per hundred that the probe table has never seen *)
  fill "probe_t" 3000 (fun i -> Printf.sprintf "key%d" i);
  fill "build_t" 3000 (fun i ->
      if i mod 100 = 99 then Printf.sprintf "stranger%d" i
      else Printf.sprintf "key%d" (i mod 20));
  let sql = "SELECT COUNT(*) FROM probe_t p, build_t b WHERE p.k = b.k" in
  let c = Db.compile_query db sql in
  let expected = Exec_scalar.run c in
  (* 20 hot probe keys, each matching 2970/20 build rows *)
  check_rows "oracle count" [ row [ vi 2970 ] ] expected;
  let ctx = Exec.make_ctx () in
  check_rows "filtered join result" expected (Exec.run ~ctx c);
  Alcotest.(check int) "one filter built" 1 ctx.Exec.jf_built;
  Alcotest.(check bool) "probe rows dropped by the filter" true
    (ctx.Exec.jf_rows_skipped > 0);
  (* row path (no colstore): same rows, no filter for string keys *)
  with_colstore false (fun () ->
      let ctx = Exec.make_ctx () in
      check_rows "row-path result" expected (Exec.run ~ctx c);
      Alcotest.(check int) "row path builds no string filter" 0
        ctx.Exec.jf_built)

let test_adaptive_drop () =
  with_colstore false @@ fun () ->
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE build_t (k INT)");
  ignore (Db.exec db "CREATE TABLE probe_t (k INT)");
  let fill tbl n key_of =
    let buf = Buffer.create 4096 in
    for base = 0 to (n / 100) - 1 do
      Buffer.clear buf;
      Buffer.add_string buf (Printf.sprintf "INSERT INTO %s VALUES " tbl);
      for i = 0 to 99 do
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf "(%d)" (key_of ((base * 100) + i)))
      done;
      ignore (Db.exec db (Buffer.contents buf))
    done
  in
  (* build: NDV 100, every key hot.  Probe: 90% of rows carry hot keys
     but 10% are distinct strays, so probe NDV is ~4x the build's — the
     planner predicts a useful filter, while the observed row-level
     pass rate (0.9) exceeds the drop threshold.  The probe must still
     be the placed-first (cheaper) side, hence 3100 < 3200 rows. *)
  let n_probe = Bloom.adaptive_sample + 1052 in
  fill "build_t" 3200 (fun i -> i mod 100);
  fill "probe_t" n_probe (fun i ->
      if i mod 10 = 9 then 1_000_000 + i else i mod 100);
  let c =
    Db.compile_query db
      "SELECT COUNT(*) FROM build_t b, probe_t p WHERE b.k = p.k"
  in
  let hits = n_probe - (n_probe / 10) in
  let expected = [ row [ vi (hits * (3200 / 100)) ] ] in
  check_rows "unfiltered oracle" expected (Exec_scalar.run c);
  let ctx = Exec.make_ctx () in
  check_rows "filtered = unfiltered" expected (Exec.run ~ctx c);
  Alcotest.(check int) "filter was built" 1 ctx.Exec.jf_built;
  Alcotest.(check int) "useless filter dropped" 1 ctx.Exec.jf_dropped;
  (* strays seen before the verdict were still (correctly) skipped *)
  Alcotest.(check bool) "some strays skipped pre-verdict" true
    (ctx.Exec.jf_rows_skipped > 0)

(* --------------- filter equivalence: filtered = filter-free ------- *)

let hetstream_testable : Xnf.Hetstream.t Alcotest.testable =
  Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "stream of %d items" (Xnf.Hetstream.total_items s))
    Xnf.Hetstream.equal

(* filter-free scalar baseline, then the filtered path, with the
   columnar probe path both off and on *)
let check_sql_equiv name db sql =
  let c = Db.compile_query db sql in
  let expected = Exec_scalar.run c in
  List.iter
    (fun colstore ->
      with_colstore colstore @@ fun () ->
      let tag = Printf.sprintf "%s (colstore %b)" name colstore in
      check_rows (tag ^ " serial") expected (Exec.run c))
    [ false; true ]

let test_sql_equiv_workloads () =
  let oo1 = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 400 } in
  check_sql_equiv "oo1 hash join" oo1
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.build < \
     5000";
  check_sql_equiv "oo1 selective build" oo1
    "SELECT c.cto FROM parts p, conns c WHERE p.pid = c.cfrom AND p.pid < 40";
  let bom = Workloads.Bom.generate Workloads.Bom.default in
  check_sql_equiv "bom two-column hash key" bom
    "SELECT a.pid, b.pid FROM part a, part b WHERE a.level = b.level AND \
     a.pname = b.pname";
  check_sql_equiv "bom filter+join" bom
    "SELECT p.pid, c.child FROM part p, contains c WHERE p.pid = c.parent \
     AND p.level < 2";
  let org = Workloads.Org.generate Workloads.Org.default in
  check_sql_equiv "org equi-join" org
    "SELECT d.dno, e.eno FROM dept d, emp e WHERE d.dno = e.edno";
  check_sql_equiv "org subquery" org
    "SELECT eno FROM emp WHERE edno IN (SELECT dno FROM dept WHERE loc = \
     'ARC')";
  let shop = Workloads.Shop.generate Workloads.Shop.default in
  check_sql_equiv "shop string filter join" shop
    "SELECT c.cid, o.oid FROM customer c, orders o WHERE c.cid = o.ocid AND \
     c.region = 'EMEA'"

(* baseline: the same compiled query with every join-filter hint
   stripped (recursive COs plan per fixpoint iteration, so their
   [plans] is empty and the baseline is the filtered evaluator) *)
let check_extraction_equiv name db query =
  let c = Xnf.Xnf_compile.compile db query in
  let baseline =
    Xnf.Xnf_compile.extract ~cache:false
      { c with plans = List.map (fun (n, p) -> (n, strip_compiled p)) c.plans }
  in
  Alcotest.check hetstream_testable (name ^ " (serial)") baseline
    (Xnf.Xnf_compile.extract ~cache:false c);
  Alcotest.check hetstream_testable (name ^ " (cache fill)") baseline
    (Xnf.Xnf_compile.extract ~cache:true c);
  Alcotest.check hetstream_testable (name ^ " (cache hit)") baseline
    (Xnf.Xnf_compile.extract ~cache:true c)

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

let suite =
  [
    test_never_false_negative;
    Alcotest.test_case "filter unit behaviour" `Quick test_filter_unit;
    Alcotest.test_case "selectivity conjunct grouping" `Quick
      test_selectivity_grouping;
    Alcotest.test_case "counters + explain" `Quick test_counters_and_explain;
    Alcotest.test_case "multi-key tuple filter" `Quick test_multi_key_filter;
    Alcotest.test_case "string keys via dictionary codes" `Quick
      test_string_key_filter;
    Alcotest.test_case "adaptive drop of useless filters" `Quick
      test_adaptive_drop;
    Alcotest.test_case "filter equivalence: sql workloads" `Quick
      test_sql_equiv_workloads;
    Alcotest.test_case "filter equivalence: CO extraction" `Quick
      test_extraction_equiv_workloads;
  ]
