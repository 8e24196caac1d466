(** QGM construction, rewrite rules and operation counting. *)

open Helpers
module Qgm = Starq.Qgm
module Db = Engine.Database

let build db sql =
  Starq.Build.build_query (Db.catalog db) (Sqlkit.Parser.parse_query_string sql)

let rewrite g = Starq.Engine.rewrite_graph g

let count_kind g kind =
  List.length
    (List.filter (fun b -> b.Qgm.kind = kind) (Qgm.reachable_boxes [ g.Qgm.top ]))

let count_equants g =
  List.fold_left
    (fun acc b ->
      acc + List.length (List.filter (fun q -> q.Qgm.qkind = Qgm.E) b.Qgm.quants))
    0
    (Qgm.reachable_boxes [ g.Qgm.top ])

let test_build_shape () =
  let db = org_db () in
  let g = build db "SELECT e.eno FROM emp e, dept d WHERE e.edno = d.dno" in
  Alcotest.(check int) "one select box" 1 (count_kind g Qgm.Select);
  Alcotest.(check int) "two quants" 2 (List.length g.Qgm.top.Qgm.quants);
  Alcotest.(check int) "one pred" 1 (List.length g.Qgm.top.Qgm.preds)

let test_exists_becomes_e_quant () =
  let db = org_db () in
  let g =
    build db
      "SELECT eno FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE d.dno \
       = e.edno)"
  in
  Alcotest.(check int) "E quant before rewrite" 1 (count_equants g);
  ignore (rewrite g);
  Alcotest.(check int) "no E quant after rewrite" 0 (count_equants g)

let test_or_exists_stays_predicate () =
  let db = org_db () in
  let g =
    build db
      "SELECT sno FROM skills s WHERE EXISTS (SELECT 1 FROM empskills es \
       WHERE es.essno = s.sno) OR sno = 0"
  in
  Alcotest.(check int) "no E quant (under OR)" 0 (count_equants g);
  let has_bexists =
    List.exists
      (fun b ->
        List.exists
          (fun p -> Qgm.pred_subqueries p <> [])
          b.Qgm.preds)
      (Qgm.reachable_boxes [ g.Qgm.top ])
  in
  Alcotest.(check bool) "predicate-level subquery" true has_bexists

let test_e_to_f_produces_distinct_keys () =
  let db = org_db () in
  let g =
    build db
      "SELECT eno FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE d.loc \
       = 'ARC' AND d.dno = e.edno)"
  in
  let stats = rewrite g in
  Alcotest.(check bool) "e_to_f fired" true
    (List.mem_assoc "e_to_f_conversion" stats);
  (* semantics: the rewritten query must not duplicate employees even if
     several ARC departments existed with the same dno (impossible here,
     but the distinct key box guarantees it structurally) *)
  let has_distinct =
    List.exists (fun b -> b.Qgm.distinct) (Qgm.reachable_boxes [ g.Qgm.top ])
  in
  Alcotest.(check bool) "distinct key box present" true has_distinct

let test_select_merge_collapses_derived () =
  let db = org_db () in
  let g =
    build db "SELECT a.eno FROM (SELECT eno FROM emp WHERE sal > 0) AS a"
  in
  let before = List.length (Qgm.reachable_boxes [ g.Qgm.top ]) in
  let stats = rewrite g in
  let after = List.length (Qgm.reachable_boxes [ g.Qgm.top ]) in
  Alcotest.(check bool) "select_merge fired" true
    (List.mem_assoc "select_merge" stats);
  Alcotest.(check bool) "fewer boxes" true (after < before)

let test_constant_folding () =
  let db = org_db () in
  let g = build db "SELECT eno FROM emp WHERE 1 = 1 AND 2 + 3 = 5" in
  ignore (rewrite g);
  Alcotest.(check int) "all constant preds eliminated" 0
    (List.length g.Qgm.top.Qgm.preds)

let test_rewrite_ablation_flag () =
  let db = org_db () in
  let sql =
    "SELECT eno FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE d.dno = \
     e.edno)"
  in
  let naive = Db.compile_query ~rewrite:false db sql in
  let fast = Db.compile_query ~rewrite:true db sql in
  (* the naive plan interprets the existential per tuple *)
  let rec has_exists (p : Optimizer.Plan.t) =
    match p with
    | Optimizer.Plan.Filter (i, pred) -> pred_has pred || has_exists i
    | Optimizer.Plan.Scan _ | Optimizer.Plan.Values _ -> false
    | Optimizer.Plan.Project (i, _)
    | Optimizer.Plan.Distinct i
    | Optimizer.Plan.Sort (i, _)
    | Optimizer.Plan.Limit (i, _)
    | Optimizer.Plan.Shared (_, i) ->
      has_exists i
    | Optimizer.Plan.Nl_join { outer; inner; _ } ->
      has_exists outer || has_exists inner
    | Optimizer.Plan.Hash_join { build; probe; _ } ->
      has_exists build || has_exists probe
    | Optimizer.Plan.Index_join { outer; _ } -> has_exists outer
    | Optimizer.Plan.Aggregate { input; _ } -> has_exists input
    | Optimizer.Plan.Union_all is -> List.exists has_exists is
  and pred_has = function
    | Optimizer.Plan.P_exists _ | Optimizer.Plan.P_in _ -> true
    | Optimizer.Plan.P_and (a, b) | Optimizer.Plan.P_or (a, b) ->
      pred_has a || pred_has b
    | Optimizer.Plan.P_not a -> pred_has a
    | _ -> false
  in
  Alcotest.(check bool) "naive keeps subquery probe" true
    (has_exists naive.Optimizer.Plan.plan);
  Alcotest.(check bool) "rewrite removes it" false
    (has_exists fast.Optimizer.Plan.plan)

let test_opcount_table1 () =
  (* lock in the Table-1 reproduction: totals must match the paper *)
  let db = Workloads.Org.generate { Workloads.Org.default with n_depts = 5 } in
  let ast = Xnf.Xnf_parser.parse Workloads.Org.deps_arc_query in
  let reorder order rows = List.map (fun n -> (n, List.assoc n rows)) order in
  let sql_rows =
    Starq.Opcount.analyze
      (Xnf.Sql_derivation.component_graphs db ast
      |> reorder Workloads.Org.table1_order)
  in
  let compiled = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  let xnf_rows =
    Starq.Opcount.analyze
      (Xnf.Xnf_rewrite.output_boxes compiled.Xnf.Xnf_compile.rewritten
      |> List.map (fun (n, b) -> (n, [ b ]))
      |> reorder Workloads.Org.table1_order)
  in
  Alcotest.(check int) "SQL total ops (paper: 23)" 23
    (Starq.Opcount.total sql_rows);
  Alcotest.(check int) "SQL replicated ops (paper: 16)" 16
    (Starq.Opcount.total_replicated sql_rows);
  Alcotest.(check int) "XNF total ops (paper: 7)" 7
    (Starq.Opcount.total xnf_rows);
  Alcotest.(check int) "XNF replicated ops" 0
    (Starq.Opcount.total_replicated xnf_rows);
  (* the XNF per-component column matches the paper exactly *)
  Alcotest.(check (list (pair string int)))
    "XNF ops per component"
    [
      ("xdept", 1); ("xemp", 1); ("xproj", 1); ("employment", 0);
      ("ownership", 0); ("xskills", 4); ("empproperty", 0); ("projproperty", 0);
    ]
    (List.map
       (fun (r : Starq.Opcount.row) -> (r.Starq.Opcount.component, r.Starq.Opcount.ops))
       xnf_rows)

let test_dump_readable () =
  let db = org_db () in
  let g = build db "SELECT eno FROM emp WHERE sal > 10" in
  let dump = Qgm.dump_graph g in
  Alcotest.(check bool) "mentions base table" true
    (let has s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has dump "Base(emp)")

let suite =
  [
    Alcotest.test_case "build shape" `Quick test_build_shape;
    Alcotest.test_case "exists -> E quant" `Quick test_exists_becomes_e_quant;
    Alcotest.test_case "or-exists stays predicate" `Quick
      test_or_exists_stays_predicate;
    Alcotest.test_case "e_to_f distinct keys" `Quick
      test_e_to_f_produces_distinct_keys;
    Alcotest.test_case "select merge" `Quick test_select_merge_collapses_derived;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "rewrite ablation flag" `Quick test_rewrite_ablation_flag;
    Alcotest.test_case "opcount reproduces Table 1" `Quick test_opcount_table1;
    Alcotest.test_case "qgm dump" `Quick test_dump_readable;
  ]

let test_opcount_describe () =
  let db = Workloads.Org.generate { Workloads.Org.default with n_depts = 5 } in
  let compiled = Xnf.Xnf_compile.compile db Workloads.Org.deps_arc_query in
  let descrs =
    Starq.Opcount.describe
      (Xnf.Xnf_rewrite.output_boxes compiled.Xnf.Xnf_compile.rewritten
      |> List.map (fun (n, b) -> (n, [ b ])))
  in
  (* the xdept derivation is one selection; relationship outputs add no
     new operations (shared boxes visited earlier) *)
  Alcotest.(check int) "xdept one op" 1 (List.length (List.assoc "xdept" descrs));
  Alcotest.(check int) "employment piggy-backed" 0
    (List.length (List.assoc "employment" descrs));
  List.iter
    (fun d ->
      Alcotest.(check bool) "descriptor names a kind" true
        (String.length d > 4
        && (String.sub d 0 3 = "sel" || String.sub d 0 4 = "join"
          || String.sub d 0 4 = "semi")))
    (List.concat_map snd descrs)

let test_rule_engine_budget () =
  (* a rule that always reports change must stop at the budget *)
  let fired = ref 0 in
  let noisy =
    {
      Starq.Engine.rule_name = "noisy";
      apply =
        (fun _ ->
          incr fired;
          true);
    }
  in
  let db = org_db () in
  let g = build db "SELECT eno FROM emp" in
  let stats = Starq.Engine.run ~rules:[ noisy ] ~budget:7 [ g.Qgm.top ] in
  Alcotest.(check int) "stopped at budget" 7 !fired;
  Alcotest.(check (option int)) "stats recorded" (Some 7)
    (List.assoc_opt "noisy" stats)

let suite =
  suite
  @ [
      Alcotest.test_case "opcount describe" `Quick test_opcount_describe;
      Alcotest.test_case "rule engine budget" `Quick test_rule_engine_budget;
    ]
