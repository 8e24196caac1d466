(** XNF compiler and extraction tests, centred on the paper's running
    example (Fig. 1 deps_ARC) and its stated semantics: reachability,
    object sharing, TAKE projection, recursion, and sharing (CSE). *)

open Helpers
module H = Xnf.Hetstream

let deps_arc_text =
  "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),\n\
  \       xemp AS EMP,\n\
  \       xproj AS PROJ,\n\
  \       xskills AS SKILLS,\n\
  \       employment AS (RELATE xdept VIA EMPLOYS, xemp\n\
  \                      WHERE xdept.dno = xemp.edno),\n\
  \       ownership AS (RELATE xdept VIA HAS, xproj\n\
  \                     WHERE xdept.dno = xproj.pdno),\n\
  \       empproperty AS (RELATE xemp VIA POSSESSES, xskills\n\
  \                       USING EMPSKILLS es\n\
  \                       WHERE xemp.eno = es.eseno AND es.essno = \
   xskills.sno),\n\
  \       projproperty AS (RELATE xproj VIA NEEDS, xskills\n\
  \                        USING PROJSKILLS ps\n\
  \                        WHERE xproj.pno = ps.pspno AND ps.pssno = \
   xskills.sno)\n\
   TAKE *"

let extract_counts ?share db text =
  let stream = Xnf.Xnf_compile.run ?share db text in
  H.counts stream

let test_parse () =
  let q = Xnf.Xnf_parser.parse deps_arc_text in
  Alcotest.(check int) "tables" 4 (List.length q.Xnf.Xnf_ast.tables);
  Alcotest.(check int) "relates" 4 (List.length q.Xnf.Xnf_ast.relates);
  Alcotest.(check (list string)) "roots" [ "xdept" ] (Xnf.Xnf_ast.roots q);
  Alcotest.(check bool) "not recursive" false (Xnf.Xnf_ast.is_recursive q)

let test_deps_arc_counts () =
  let db = org_db () in
  let counts = extract_counts db deps_arc_text in
  (* departments at ARC: d1 d2; their emps: anna ben carol; projects p1 p2;
     reachable skills: ml db ui hw (os unreachable) *)
  Alcotest.(check (list (pair string int)))
    "component cardinalities"
    [
      ("xdept", 2);
      ("xemp", 3);
      ("xproj", 2);
      ("xskills", 4);
      ("employment", 3);
      ("ownership", 2);
      ("empproperty", 4);
      ("projproperty", 3);
    ]
    counts

let test_reachability_excludes_s2 () =
  let db = org_db () in
  let stream = Xnf.Xnf_compile.run db deps_arc_text in
  let skills_info = H.find_comp stream.H.header "xskills" in
  let skill_names =
    List.filter_map
      (function
        | H.Row { comp; values; _ } when comp = skills_info.H.comp_no ->
          Some (Relcore.Value.to_string values.(1))
        | _ -> None)
      stream.H.items
    |> List.sort compare
  in
  Alcotest.(check (list string)) "only reachable skills"
    [ "db"; "hw"; "ml"; "ui" ] skill_names

let test_object_sharing () =
  (* skill 'db' (31) is possessed by anna and ben and needed by p1: one
     tuple, multiple connections *)
  let db = org_db () in
  let stream = Xnf.Xnf_compile.run db deps_arc_text in
  let skills_info = H.find_comp stream.H.header "xskills" in
  let db_skill_ids =
    List.filter_map
      (function
        | H.Row { comp; id; values } when comp = skills_info.H.comp_no ->
          if Relcore.Value.to_string values.(1) = "db" then Some id else None
        | _ -> None)
      stream.H.items
  in
  Alcotest.(check int) "db skill appears once" 1 (List.length db_skill_ids);
  let db_id = List.hd db_skill_ids in
  let empprop = H.find_comp stream.H.header "empproperty" in
  let projprop = H.find_comp stream.H.header "projproperty" in
  let conns_to_db =
    List.filter
      (function
        | H.Conn { rel; children; _ } when rel = empprop.H.comp_no || rel = projprop.H.comp_no ->
          Array.exists (fun c -> c = db_id) children
        | _ -> false)
      stream.H.items
  in
  (* anna possesses db, ben possesses db, p1 needs db *)
  Alcotest.(check int) "three connections to shared skill" 3
    (List.length conns_to_db)

let test_connection_ids_resolve () =
  let db = org_db () in
  let stream = Xnf.Xnf_compile.run db deps_arc_text in
  let row_ids =
    List.filter_map
      (function H.Row { id; _ } -> Some id | H.Conn _ -> None)
      stream.H.items
  in
  List.iter
    (function
      | H.Conn { parent; children; _ } ->
        Alcotest.(check bool) "parent id resolves" true (List.mem parent row_ids);
        Array.iter
          (fun c ->
            Alcotest.(check bool) "child id resolves" true (List.mem c row_ids))
          children
      | H.Row _ -> ())
    stream.H.items

let test_take_projection () =
  let db = org_db () in
  let text =
    "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),\n\
    \       xemp AS EMP,\n\
    \       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = \
     xemp.edno)\n\
     TAKE xdept(dname), employment"
  in
  let stream = Xnf.Xnf_compile.run db text in
  let counts = H.counts stream in
  Alcotest.(check (list (pair string int)))
    "xemp rows suppressed, connections kept"
    [ ("xdept", 2); ("xemp", 0); ("employment", 3) ]
    counts;
  let xdept = H.find_comp stream.H.header "xdept" in
  Alcotest.(check (option (list string))) "projection recorded"
    (Some [ "dname" ]) xdept.H.take_cols

let test_share_vs_noshare_same_result () =
  let db = org_db () in
  let a = extract_counts ~share:true db deps_arc_text in
  let b = extract_counts ~share:false db deps_arc_text in
  Alcotest.(check (list (pair string int))) "sharing preserves semantics" a b

let test_serialization_roundtrip () =
  let db = org_db () in
  let stream = Xnf.Xnf_compile.run db deps_arc_text in
  let data = H.serialize stream in
  let stream' = H.deserialize data in
  Alcotest.(check int) "item count" (H.total_items stream) (H.total_items stream');
  Alcotest.(check (list (pair string int))) "counts" (H.counts stream)
    (H.counts stream')

let test_recursive_bom () =
  (* a recursive CO: assemblies containing sub-assemblies *)
  let db = Engine.Database.create () in
  List.iter
    (fun s -> ignore (Engine.Database.exec db s))
    [
      "CREATE TABLE part (pid INT NOT NULL, pname STRING, PRIMARY KEY (pid))";
      "CREATE TABLE contains (parent INT NOT NULL, child INT NOT NULL, qty INT)";
      "INSERT INTO part VALUES (1, 'engine'), (2, 'piston'), (3, 'ring'), (4, \
       'bolt'), (5, 'unrelated')";
      "INSERT INTO contains VALUES (1, 2, 4), (2, 3, 2), (2, 4, 8), (3, 4, 1)";
    ];
  let text =
    "OUT OF root AS (SELECT * FROM part WHERE pid = 1),\n\
    \       xpart AS part,\n\
    \       top AS (RELATE root VIA CONTAINS, xpart USING contains c WHERE \
     root.pid = c.parent AND c.child = xpart.pid),\n\
    \       sub AS (RELATE xpart VIA ASM, xpart USING contains c WHERE \
     asm.pid = c.parent AND c.child = xpart.pid)\n\
     TAKE *"
  in
  let q = Xnf.Xnf_parser.parse text in
  Alcotest.(check bool) "recursive" true (Xnf.Xnf_ast.is_recursive q);
  let stream = Xnf.Xnf_compile.run db text in
  let counts = H.counts stream in
  (* reachable parts: 2,3,4; root: 1. 'unrelated' (5) excluded *)
  Alcotest.(check (list (pair string int)))
    "fixpoint cardinalities"
    [ ("root", 1); ("xpart", 3); ("top", 1); ("sub", 3) ]
    counts

let test_nary_relationship () =
  let db = org_db () in
  (* ternary: a department with one of its employees and one of its
     projects when the employee has a skill the project needs *)
  let text =
    "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),\n\
    \       xemp AS EMP,\n\
    \       xproj AS PROJ,\n\
    \       staffing AS (RELATE xdept VIA STAFFS, xemp, xproj\n\
    \                    USING EMPSKILLS es, PROJSKILLS ps\n\
    \                    WHERE xdept.dno = xemp.edno AND xdept.dno = \
     xproj.pdno AND xemp.eno = es.eseno AND xproj.pno = ps.pspno AND \
     es.essno = ps.pssno)\n\
     TAKE *"
  in
  let stream = Xnf.Xnf_compile.run db text in
  let counts = H.counts stream in
  (* matches: anna(db skill)-p1(needs db) in dept 1; carol(ui)-p2(needs ui)
     in dept 2 *)
  Alcotest.(check (list (pair string int)))
    "ternary connections"
    [ ("xdept", 2); ("xemp", 3); ("xproj", 2); ("staffing", 3) ]
    counts

let test_explain () =
  let db = org_db () in
  let text = Xnf.Xnf_compile.explain db deps_arc_text in
  Alcotest.(check bool) "mentions XNF operator" true (contains ~affix:"XNF operator" text);
  Alcotest.(check bool) "has shared CSE nodes" true (contains ~affix:"Shared" text)

let test_rel_against_unknown_component () =
  let db = org_db () in
  let text =
    "OUT OF xdept AS DEPT, r AS (RELATE xdept VIA X, nosuch WHERE 1 = 1) TAKE *"
  in
  Alcotest.(check bool) "semantic error raised" true
    (try
       ignore (Xnf.Xnf_compile.compile db text);
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let suite =
  [
    Alcotest.test_case "parse deps_ARC" `Quick test_parse;
    Alcotest.test_case "deps_ARC extraction counts" `Quick test_deps_arc_counts;
    Alcotest.test_case "reachability excludes s2" `Quick
      test_reachability_excludes_s2;
    Alcotest.test_case "object sharing" `Quick test_object_sharing;
    Alcotest.test_case "connection ids resolve" `Quick test_connection_ids_resolve;
    Alcotest.test_case "take projection" `Quick test_take_projection;
    Alcotest.test_case "share ablation equivalence" `Quick
      test_share_vs_noshare_same_result;
    Alcotest.test_case "stream serialization roundtrip" `Quick
      test_serialization_roundtrip;
    Alcotest.test_case "recursive BOM fixpoint" `Quick test_recursive_bom;
    Alcotest.test_case "n-ary relationship" `Quick test_nary_relationship;
    Alcotest.test_case "xnf explain" `Quick test_explain;
    Alcotest.test_case "unknown partner rejected" `Quick
      test_rel_against_unknown_component;
  ]

(* -- view composition (model closure, Sect. 2) ------------------------- *)

let test_sql_over_xnf_component () =
  let db = org_db () in
  ignore
    (Engine.Database.exec db ("CREATE VIEW deps_arc AS " ^ deps_arc_text));
  (* plain SQL over a CO component: reachability applies (dave, dept 3,
     is not an ARC employee) *)
  let rows =
    Engine.Database.query_rows db
      "SELECT ename FROM deps_arc.xemp ORDER BY ename"
  in
  check_rows "reachable employees only"
    [ row [ vs "anna" ]; row [ vs "ben" ]; row [ vs "carol" ] ]
    rows;
  (* aggregation over a component *)
  check_rows "count reachable skills" (rows_of_ints [ [ 4 ] ])
    (Engine.Database.query_rows db "SELECT COUNT(*) FROM deps_arc.xskills")

let test_xnf_over_xnf_view () =
  let db = org_db () in
  ignore
    (Engine.Database.exec db ("CREATE VIEW deps_arc AS " ^ deps_arc_text));
  (* a second CO built from the first one's components *)
  let text =
    "OUT OF bigdept AS (SELECT * FROM deps_arc.xdept WHERE dno = 1),\n\
     staff AS (SELECT * FROM deps_arc.xemp),\n\
     works AS (RELATE bigdept VIA EMPLOYS, staff WHERE bigdept.dno = \
     staff.edno)\n\
     TAKE *"
  in
  let stream = Xnf.Xnf_compile.run db text in
  Alcotest.(check (list (pair string int)))
    "composed CO"
    [ ("bigdept", 1); ("staff", 2); ("works", 2) ]
    (H.counts stream)

let test_cyclic_view_rejected () =
  let db = org_db () in
  ignore
    (Engine.Database.exec db
       "CREATE VIEW v1 AS OUT OF a AS (SELECT * FROM v2.b) TAKE *");
  ignore
    (Engine.Database.exec db
       "CREATE VIEW v2 AS OUT OF b AS (SELECT * FROM v1.a) TAKE *");
  Alcotest.(check bool) "cycle detected" true
    (try
       ignore (Xnf.Xnf_compile.run_view db "v1");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let composition_suite =
  [
    Alcotest.test_case "sql over xnf component" `Quick test_sql_over_xnf_component;
    Alcotest.test_case "xnf over xnf view" `Quick test_xnf_over_xnf_view;
    Alcotest.test_case "cyclic views rejected" `Quick test_cyclic_view_rejected;
  ]

let suite = suite @ composition_suite

let test_aggregate_over_component_join () =
  (* regression: column pruning must not narrow a DISTINCT derivation *)
  let db = Workloads.Org.generate { Workloads.Org.default with n_depts = 6 } in
  ignore
    (Engine.Database.exec db
       ("CREATE VIEW deps_arc AS " ^ Workloads.Org.deps_arc_query));
  let rows =
    Engine.Database.query_rows db
      "SELECT d.dname, COUNT(*) FROM deps_arc.xdept d, deps_arc.xemp e \
       WHERE e.edno = d.dno GROUP BY d.dname ORDER BY d.dname"
  in
  check_rows "headcount through composed components"
    [ row [ vs "dept1"; vi 10 ]; row [ vs "dept2"; vi 10 ] ]
    rows

let suite =
  suite
  @ [
      Alcotest.test_case "aggregate over composed components" `Quick
        test_aggregate_over_component_join;
    ]

let test_sql_dml_on_component () =
  (* updatable-view translation: DML against view.component *)
  let db = org_db () in
  ignore
    (Engine.Database.exec db ("CREATE VIEW deps_arc AS " ^ deps_arc_text));
  (match
     Engine.Database.exec db
       "UPDATE deps_arc.xemp SET sal = sal + 1 WHERE ename = 'anna'"
   with
  | Engine.Database.Affected 1 -> ()
  | _ -> Alcotest.fail "expected one row updated");
  check_rows "written through to base table" (rows_of_ints [ [ 101 ] ])
    (Engine.Database.query_rows db "SELECT sal FROM emp WHERE eno = 10");
  (* the view predicate is conjoined: xdept only covers ARC depts *)
  (match
     Engine.Database.exec db "UPDATE deps_arc.xdept SET dname = 'renamed'"
   with
  | Engine.Database.Affected 2 -> ()
  | Engine.Database.Affected n -> Alcotest.failf "affected %d, expected 2" n
  | _ -> Alcotest.fail "expected Affected");
  check_rows "non-ARC dept untouched" [ row [ vs "remote" ] ]
    (Engine.Database.query_rows db "SELECT dname FROM dept WHERE dno = 3");
  (* insert through the component *)
  ignore
    (Engine.Database.exec db
       "INSERT INTO deps_arc.xemp (eno, ename, sal, edno) VALUES (77, \
        'gina', 95, 2)");
  check_rows "insert landed" [ row [ vs "gina" ] ]
    (Engine.Database.query_rows db "SELECT ename FROM emp WHERE eno = 77");
  (* delete through the component *)
  (match Engine.Database.exec db "DELETE FROM deps_arc.xemp WHERE eno = 77" with
  | Engine.Database.Affected 1 -> ()
  | _ -> Alcotest.fail "expected one row deleted");
  (* non-updatable component rejected *)
  ignore
    (Engine.Database.exec db
       "CREATE VIEW agg_view AS OUT OF x AS (SELECT edno, COUNT(*) AS n \
        FROM EMP GROUP BY edno) TAKE *");
  Alcotest.(check bool) "aggregate component rejected" true
    (try
       ignore (Engine.Database.exec db "UPDATE agg_view.x SET n = 0");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "sql dml on view component" `Quick
        test_sql_dml_on_component;
    ]

let test_relationship_attributes () =
  (* connections may carry attributes (paper Sect. 2: "connections are
     tuples that might have some relationship attributes") *)
  let db = Engine.Database.create () in
  ignore
    (Engine.Database.exec_script db
       "CREATE TABLE part (pid INT NOT NULL, pname STRING, PRIMARY KEY \
        (pid)); CREATE TABLE sub (parent INT, child INT, qty INT);\n\
        INSERT INTO part VALUES (1, 'engine'), (2, 'piston'), (3, 'bolt');\n\
        INSERT INTO sub VALUES (1, 2, 4), (2, 3, 8)");
  let text =
    "OUT OF root AS (SELECT * FROM part WHERE pid = 1),\n\
     xpart AS part,\n\
     holds AS (RELATE root VIA OWNER, xpart USING sub m WITH (m.qty AS \
     qty) WHERE owner.pid = m.parent AND m.child = xpart.pid),\n\
     deep AS (RELATE xpart VIA ASM, xpart USING sub m WITH (m.qty AS qty) \
     WHERE asm.pid = m.parent AND m.child = xpart.pid)\n\
     TAKE *"
  in
  let stream = Xnf.Xnf_compile.run db text in
  let ws = Cocache.Workspace.of_stream stream in
  (* the attribute rides on the connection, visible from the cache *)
  let root = List.hd (Cocache.Workspace.nodes ws "root") in
  (match Cocache.Conode.conns_out root ~rel:"holds" with
  | [ c ] ->
    Alcotest.(check Helpers.value_testable) "qty attribute" (Helpers.vi 4)
      c.Cocache.Conode.attrs.(0)
  | _ -> Alcotest.fail "expected one holds connection");
  (* attribute schema recorded in the header *)
  let info = H.find_comp stream.H.header "holds" in
  Alcotest.(check (list string)) "attr schema" [ "qty" ]
    (Relcore.Schema.column_names info.H.comp_schema);
  (* recursive evaluator path carries them too *)
  let piston =
    List.find
      (fun n ->
        Relcore.Value.to_string (Cocache.Workspace.get ws n "pname") = "piston")
      (Cocache.Workspace.nodes ws "xpart")
  in
  (match Cocache.Conode.conns_out piston ~rel:"deep" with
  | [ c ] ->
    Alcotest.(check Helpers.value_testable) "recursive qty" (Helpers.vi 8)
      c.Cocache.Conode.attrs.(0)
  | _ -> Alcotest.fail "expected one deep connection");
  (* attributes survive persistence *)
  let file = Filename.temp_file "attr_cache" ".xnf" in
  Cocache.Persist.save ws file;
  let ws' = Cocache.Persist.load file in
  Sys.remove file;
  let root' = List.hd (Cocache.Workspace.nodes ws' "root") in
  match Cocache.Conode.conns_out root' ~rel:"holds" with
  | [ c ] ->
    Alcotest.(check Helpers.value_testable) "persisted qty" (Helpers.vi 4)
      c.Cocache.Conode.attrs.(0)
  | _ -> Alcotest.fail "expected one holds connection after reload"

let suite =
  suite
  @ [
      Alcotest.test_case "relationship attributes" `Quick
        test_relationship_attributes;
    ]

(* -- error-path coverage ------------------------------------------------ *)

let expect_semantic f =
  try
    ignore (f ());
    false
  with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true

let test_xnf_error_paths () =
  let db = org_db () in
  let bad text = Alcotest.(check bool) text true (expect_semantic (fun () -> Xnf.Xnf_compile.compile db text)) in
  (* duplicate component names *)
  bad "OUT OF a AS DEPT, a AS EMP TAKE *";
  (* TAKE of unknown component *)
  bad "OUT OF a AS DEPT TAKE nosuch";
  (* relationship predicate referencing a non-partner *)
  bad
    "OUT OF a AS DEPT, b AS EMP, c AS PROJ, r AS (RELATE a VIA X, b WHERE \
     c.pno = b.eno) TAKE *";
  (* no root: every component is a child and none marked ROOT *)
  bad
    "OUT OF a AS DEPT, b AS EMP, r1 AS (RELATE a VIA X, b WHERE a.dno = \
     b.edno), r2 AS (RELATE b VIA Y, a WHERE b.edno = a.dno) TAKE *";
  (* empty CO *)
  Alcotest.(check bool) "no components rejected" true
    (try
       ignore (Xnf.Xnf_parser.parse "OUT OF TAKE *");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Parse_error _, _) -> true)

let test_take_unknown_cols_rejected () =
  let db = org_db () in
  Alcotest.(check bool) "unknown TAKE column" true
    (try
       ignore
         (Xnf.Xnf_compile.run db
            "OUT OF a AS (SELECT * FROM DEPT) TAKE a(nosuchcol)");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "xnf error paths" `Quick test_xnf_error_paths;
      Alcotest.test_case "take unknown columns" `Quick
        test_take_unknown_cols_rejected;
    ]

(* -- additional xnf coverage --------------------------------------------- *)

let test_shorthand_equivalence () =
  (* [xemp AS EMP] is shorthand for [xemp AS (SELECT * FROM EMP)] *)
  let db = org_db () in
  let a =
    Xnf.Xnf_compile.run db
      "OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'), e AS EMP, r AS \
       (RELATE d VIA X, e WHERE d.dno = e.edno) TAKE *"
  in
  let b =
    Xnf.Xnf_compile.run db
      "OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'), e AS (SELECT * \
       FROM EMP), r AS (RELATE d VIA X, e WHERE d.dno = e.edno) TAKE *"
  in
  Alcotest.(check (list (pair string int))) "shorthand = explicit"
    (H.counts a) (H.counts b)

let test_take_rel_only () =
  let db = org_db () in
  let stream =
    Xnf.Xnf_compile.run db
      "OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'), e AS EMP, r AS \
       (RELATE d VIA X, e WHERE d.dno = e.edno) TAKE r"
  in
  Alcotest.(check (list (pair string int)))
    "only connections shipped"
    [ ("d", 0); ("e", 0); ("r", 3) ]
    (H.counts stream);
  (* partner rows were suppressed by TAKE: the cache builds stub nodes
     so the topology stays navigable, but their values are not
     accessible *)
  let ws = Cocache.Workspace.of_stream stream in
  Alcotest.(check int) "stub parents" 2
    (Cocache.Workspace.node_count ws "d");
  Alcotest.(check int) "stub children" 3
    (Cocache.Workspace.node_count ws "e");
  Alcotest.(check int) "connections navigable" 3
    (Cocache.Workspace.connection_count ws);
  let stub = List.hd (Cocache.Workspace.nodes ws "d") in
  Alcotest.(check bool) "stub detected" true (Cocache.Workspace.is_stub ws stub);
  Alcotest.(check bool) "stub values rejected" true
    (try
       ignore (Cocache.Workspace.get ws stub "dno");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let test_extraction_formulas_at_scale () =
  (* closed-form expectations on a deterministic generated org *)
  let p =
    {
      Workloads.Org.default with
      n_depts = 40;
      arc_fraction = 0.25;
      emps_per_dept = 7;
      projs_per_dept = 2;
      skills_per_emp = 2;
      skills_per_proj = 1;
    }
  in
  let db = Workloads.Org.generate p in
  let counts =
    H.counts (Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query)
  in
  let arc = 10 in
  Alcotest.(check int) "xdept" arc (List.assoc "xdept" counts);
  Alcotest.(check int) "xemp" (arc * 7) (List.assoc "xemp" counts);
  Alcotest.(check int) "xproj" (arc * 2) (List.assoc "xproj" counts);
  Alcotest.(check int) "employment" (arc * 7) (List.assoc "employment" counts);
  Alcotest.(check int) "empproperty" (arc * 7 * 2)
    (List.assoc "empproperty" counts);
  Alcotest.(check int) "projproperty" (arc * 2 * 1)
    (List.assoc "projproperty" counts);
  (* skills are sampled without replacement per emp: reachable set is
     bounded by distinct skills drawn *)
  Alcotest.(check bool) "xskills bounded" true
    (List.assoc "xskills" counts <= p.Workloads.Org.n_skills)

(* The SQL derivation treats every root as reachable by definition,
   explicit ROOTs with a self-relationship included, and agrees with
   the XNF counts on the OO1 parts graph. *)
let test_sql_derivation_explicit_root () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let ast = Xnf.Xnf_parser.parse Workloads.Oo1.parts_graph_query in
  let sql =
    List.map
      (fun (name, rows) -> (name, List.length rows))
      (Xnf.Sql_derivation.extract db ast)
  in
  let xnf =
    Xnf.Hetstream.counts
      (Xnf.Xnf_compile.run ~cache:false db Workloads.Oo1.parts_graph_query)
  in
  Alcotest.(check (list (pair string int)))
    "SQL derivation counts = XNF counts" (List.sort compare xnf)
    (List.sort compare sql)

let test_explain_recursive () =
  let db = Workloads.Bom.generate { Workloads.Bom.default with levels = 2 } in
  let text = Xnf.Xnf_compile.explain db Workloads.Bom.assembly_query in
  Alcotest.(check bool) "mentions fixpoint" true
    (let has s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has text "fixpoint")

let suite =
  suite
  @ [
      Alcotest.test_case "shorthand equivalence" `Quick test_shorthand_equivalence;
      Alcotest.test_case "take relationship only" `Quick test_take_rel_only;
      Alcotest.test_case "extraction formulas at scale" `Quick
        test_extraction_formulas_at_scale;
      Alcotest.test_case "explain recursive" `Quick test_explain_recursive;
    ]

(* -- the paper's counts (bench/paper.exe times the same comparisons) -- *)

let org_depts n_depts =
  Workloads.Org.generate { Workloads.Org.default with n_depts }

(* Fig. 5/6: one multi-output graph installs shared derivations once,
   so extraction reads fewer base rows than with sharing ablated *)
let test_paper_sharing_scans_less () =
  let db = org_depts 25 in
  let rows_scanned ~share =
    let ctx = Executor.Exec.make_ctx ~result_cache:false () in
    let c = Xnf.Xnf_compile.compile ~share db Workloads.Org.deps_arc_query in
    ignore (Xnf.Xnf_compile.extract ~ctx ~cache:false c);
    ctx.Executor.Exec.rows_scanned
  in
  let shared = rows_scanned ~share:true
  and unshared = rows_scanned ~share:false in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d < unshared %d base rows" shared unshared)
    true (shared < unshared)

(* Sect. 1: XNF compiles one statement for the whole CO, while the
   navigational walk issues one query per (parent, relationship) *)
let test_paper_one_query_vs_n_plus_one () =
  let statements db =
    let s = Engine.Database.cache_stats db in
    s.Engine.Database.plan_hits + s.Engine.Database.plan_misses
  in
  let db = org_depts 10 in
  let before = statements db in
  ignore (Xnf.Xnf_compile.run ~cache:true db Workloads.Org.deps_arc_query);
  Alcotest.(check int) "XNF looks up one compiled statement" 1
    (statements db - before);
  let nav n_depts =
    let ast = Xnf.Xnf_parser.parse Workloads.Org.deps_arc_query in
    (Xnf.Navigational.extract ~mode:`Prepared (org_depts n_depts) ast)
      .Xnf.Navigational.queries_executed
  in
  Alcotest.(check int) "navigational queries at 10 departments" 46 (nav 10);
  Alcotest.(check int) "navigational queries at 30 departments" 136 (nav 30)

(* Sect. 5: the bulk interface ships the CO in one message; one tuple
   at a time takes a message per item and re-sends the header each time *)
let test_paper_bulk_one_message () =
  let stream =
    Xnf.Xnf_compile.run (org_depts 100) Workloads.Org.deps_arc_query
  in
  let bulk = H.serialize stream in
  let per_tuple =
    List.map
      (fun item -> H.serialize { H.header = stream.H.header; items = [ item ] })
      stream.H.items
  in
  Alcotest.(check int) "one message per item" (H.total_items stream)
    (List.length per_tuple);
  let tuple_bytes =
    List.fold_left (fun acc m -> acc + String.length m) 0 per_tuple
  in
  Alcotest.(check bool)
    (Printf.sprintf "bulk %d bytes < per-tuple %d bytes" (String.length bulk)
       tuple_bytes)
    true
    (String.length bulk < tuple_bytes)

(* Table 1's SQL column, per component: ops (replicated).  Totals are
   the paper's 23 (16); the relationship and M:N property rows each
   differ from the paper's hand attribution by one, cancelling out *)
let test_paper_table1_sql_column () =
  let db = org_depts 5 in
  let ast = Xnf.Xnf_parser.parse Workloads.Org.deps_arc_query in
  let graphs = Xnf.Sql_derivation.component_graphs db ast in
  let rows =
    Starq.Opcount.analyze
      (List.map (fun n -> (n, List.assoc n graphs)) Workloads.Org.table1_order)
  in
  Alcotest.(check (list (pair string (pair int int))))
    "SQL ops (replicated) per component"
    [
      ("xdept", (1, 0)); ("xemp", (2, 1)); ("xproj", (2, 1));
      ("employment", (2, 2)); ("ownership", (2, 2)); ("xskills", (6, 4));
      ("empproperty", (4, 3)); ("projproperty", (4, 3));
    ]
    (List.map
       (fun (r : Starq.Opcount.row) ->
         Starq.Opcount.(r.component, (r.ops, r.replicated)))
       rows)

let suite =
  suite
  @ [
      Alcotest.test_case "paper: sharing scans fewer rows" `Quick
        test_paper_sharing_scans_less;
      Alcotest.test_case "paper: one query vs N+1" `Quick
        test_paper_one_query_vs_n_plus_one;
      Alcotest.test_case "paper: bulk ship is one message" `Quick
        test_paper_bulk_one_message;
      Alcotest.test_case "paper: Table 1 SQL column" `Quick
        test_paper_table1_sql_column;
    ]

(* -- recursive COs honour TAKE column lists ---------------------------- *)

(* The fixpoint evaluator ships TAKE-projected rows under a projected
   header, as the acyclic pipeline does, while object identity stays
   with the full row: the per-component counts match TAKE *. *)
let test_recursive_take_columns () =
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let star = Workloads.Bom.assembly_query in
  let text =
    String.sub star 0 (String.length star - String.length "TAKE *")
    ^ "TAKE asmroot(pid), xpart(pid), topconn, subconn"
  in
  let full = Xnf.Xnf_compile.run ~cache:false db star in
  let s = Xnf.Xnf_compile.run ~cache:false db text in
  Alcotest.(check (list (pair string int)))
    "same items as TAKE *" (H.counts full) (H.counts s);
  Array.iter
    (fun (ci : H.comp_info) ->
      match ci.H.comp_kind with
      | `Node ->
        Alcotest.(check (option (list string)))
          (ci.H.comp_name ^ " take_cols") (Some [ "pid" ]) ci.H.take_cols;
        Alcotest.(check (list string))
          (ci.H.comp_name ^ " header schema")
          [ "pid" ]
          (List.map
             (fun (c : Relcore.Schema.column) -> c.Relcore.Schema.name)
             (Relcore.Schema.columns ci.H.comp_schema))
      | `Rel _ -> ())
    s.H.header.H.components;
  List.iter2
    (fun a b ->
      match (a, b) with
      | H.Row r, H.Row fr ->
        Alcotest.(check int) "row ships one value" 1 (Array.length r.values);
        Alcotest.check tuple_testable "row is the pid projection"
          [| fr.values.(0) |] r.values
      | H.Conn _, H.Conn _ -> ()
      | _ -> Alcotest.fail "item kinds differ from TAKE *")
    s.H.items full.H.items;
  (* the projected stream survives the wire *)
  Alcotest.(check bool) "serialize roundtrip" true
    (H.equal s (H.deserialize (H.serialize s)))

let suite =
  suite
  @ [
      Alcotest.test_case "recursive TAKE column lists" `Quick
        test_recursive_take_columns;
    ]

(* -- golden stream digests -------------------------------------------- *)

(* MD5 of the serialized stream for one extraction per workload.  The
   digests pin byte identity across changes to assembly: ids, item
   order and every value byte.  They hold under every CI leg's knobs
   (result cache off, row store only, tiny colstore chunks): none of
   those may change a stream. *)
let stream_digest s = Digest.to_hex (Digest.string (H.serialize s))

let golden_digests =
  [
    ("org deps_arc", "55d0c681775677afffa0a8da7b9856df");
    ("oo1 parts_graph", "bedc415046d6033b636f834d2788028d");
    ("shop region EMEA", "7d2641ffda0d5974712c62d15edf714d");
    ("bom assembly", "d2890ef95d34b1f028914f11ce61e46c");
  ]

let test_golden_stream_digests () =
  let run db text = stream_digest (Xnf.Xnf_compile.run ~cache:false db text) in
  let oo1 () =
    Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 }
  in
  let actual =
    [
      ( "org deps_arc",
        run (Workloads.Org.generate Workloads.Org.default)
          Workloads.Org.deps_arc_query );
      ("oo1 parts_graph", run (oo1 ()) Workloads.Oo1.parts_graph_query);
      ( "shop region EMEA",
        run
          (Workloads.Shop.generate Workloads.Shop.default)
          (Workloads.Shop.region_query "EMEA") );
      ( "bom assembly",
        run (Workloads.Bom.generate Workloads.Bom.default)
          Workloads.Bom.assembly_query );
    ]
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want (List.assoc name actual))
    golden_digests

let suite =
  suite
  @ [
      Alcotest.test_case "golden stream digests" `Quick
        test_golden_stream_digests;
    ]

(* -- golden plan digests ----------------------------------------------- *)

(* MD5 of the EXPLAIN text of the default plans per workload: every
   output plan of an XNF extraction, the fixpoint's seed and step plans
   for the recursive BOM, and SQL over the OO1 parts graph's components
   (view.component).  EXPLAIN names tables rather than process-global
   table ids, and shared boxes are renumbered below, so the text does
   not depend on what ran earlier in the process.  A change that must
   leave plans alone keeps these digests. *)
let plans_digest plans =
  let text =
    List.map
      (fun (name, (p : Optimizer.Plan.compiled)) ->
        Printf.sprintf "-- %s --\n%s" name (Optimizer.Plan.explain p.plan))
      plans
    |> String.concat ""
  in
  (* QGM box ids come from a process-wide counter: renumber the shared
     boxes by first appearance, which keeps what is shared with what *)
  let seen = Hashtbl.create 8 in
  let renumber line =
    match Scanf.sscanf (String.trim line) "Shared (cse box %d)%!" Fun.id with
    | bid ->
      if not (Hashtbl.mem seen bid) then Hashtbl.add seen bid (Hashtbl.length seen);
      Printf.sprintf "%sShared (cse box #%d)"
        (String.sub line 0 (String.index line 'S'))
        (Hashtbl.find seen bid)
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> line
  in
  String.split_on_char '\n' text
  |> List.map renumber |> String.concat "\n" |> Digest.string |> Digest.to_hex

let golden_plan_digests =
  [
    ("org deps_arc", "3d1495d99b1fb0725890ffd7e44c2441");
    ("oo1 parts_graph", "a436473cc868f893c22911ff7d7b40b4");
    ("shop region EMEA", "a79ea52f7876d32fa6b4fb28227260a5");
    ("bom assembly", "c7250d7030fb703f29c0f1118389ddc9");
    ("oo1 parts_graph sql", "ce712cd564d0d3e2e81285203326c4da");
  ]

let test_golden_plan_digests () =
  let xnf db text = (Xnf.Xnf_compile.compile ~cache:false db text).plans in
  let oo1 = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let bom = Workloads.Bom.generate Workloads.Bom.default in
  ignore
    (Engine.Database.exec oo1
       ("CREATE VIEW graph AS " ^ Workloads.Oo1.parts_graph_query));
  let actual =
    [
      ( "org deps_arc",
        xnf (Workloads.Org.generate Workloads.Org.default)
          Workloads.Org.deps_arc_query );
      ("oo1 parts_graph", xnf oo1 Workloads.Oo1.parts_graph_query);
      ( "shop region EMEA",
        xnf
          (Workloads.Shop.generate Workloads.Shop.default)
          (Workloads.Shop.region_query "EMEA") );
      ( "bom assembly",
        Xnf.Xnf_recursive.plans
          (Xnf.Xnf_compile.compile ~cache:false bom Workloads.Bom.assembly_query)
            .op );
      ( "oo1 parts_graph sql",
        List.map
          (fun sql -> (sql, Engine.Database.compile_query oo1 sql))
          [ "SELECT * FROM graph.xpart"; "SELECT * FROM graph.link" ] );
    ]
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want (plans_digest (List.assoc name actual)))
    golden_plan_digests

let suite =
  suite
  @ [
      Alcotest.test_case "golden plan digests" `Quick test_golden_plan_digests;
    ]

(* -- Tid_map: component-row ids ----------------------------------------- *)

module Tm = Xnf.Tid_map

let check_id msg want got = Alcotest.(check int) msg want got

let test_tid_map_numeric_keys () =
  let t = Tm.create 4 in
  Tm.add t [| vi 3 |] 1;
  Tm.add t [| vi max_int |] 2;
  Tm.add t [| vi min_int |] 3;
  check_id "Float 3.0 is Int 3" 1 (Tm.find t [| vf 3.0 |]);
  check_id "Int 3 in a fresh box" 1 (Tm.find t [| Relcore.Value.Int (2 + 1) |]);
  check_id "Float 2^62 equals no int" Tm.absent (Tm.find t [| vf 0x1p62 |]);
  check_id "Float -2^62 is min_int" 3 (Tm.find t [| vf (-0x1p62) |]);
  check_id "Float 3.5 is no key" Tm.absent (Tm.find t [| vf 3.5 |]);
  Tm.add t [| vf 0x1p62 |] 4;
  check_id "Float 2^62 keyed by itself" 4 (Tm.find t [| vf 0x1p62 |]);
  check_id "max_int unaffected" 2 (Tm.find t [| vi max_int |]);
  (* a span of a wider row, Int against the stored Float *)
  check_id "span probe" 4
    (Tm.find_span t [| vs "x"; vf 0x1p62; vnull |] ~off:1 ~len:1);
  check_id "length" 4 (Tm.length t);
  Alcotest.check_raises "span outside the row"
    (Invalid_argument "Tid_map.find_span") (fun () ->
      ignore (Tm.find_span t [| vi 3 |] ~off:1 ~len:1))

let test_tid_map_null_nan_strings () =
  let t = Tm.create 4 in
  Tm.add t [| vnull; vs "a" |] 1;
  Tm.add t [| vf Float.nan; vs "" |] 2;
  Tm.add t [| vs "a"; vs "b" |] 3;
  check_id "null row" 1 (Tm.find t [| vnull; vs (String.make 1 'a') |]);
  check_id "NaN equals NaN" 2 (Tm.find t [| vf (0.0 /. 0.0); vs "" |]);
  check_id "strings by value" 3
    (Tm.find t [| vs (String.make 1 'a'); vs (String.make 1 'b') |]);
  check_id "null is not the empty string" Tm.absent (Tm.find t [| vs ""; vs "a" |]);
  check_id "arity counts" Tm.absent (Tm.find t [| vnull |]);
  Tm.add t [| vnull; vs "a" |] 9;
  check_id "add rebinds" 9 (Tm.find t [| vnull; vs "a" |]);
  check_id "no new key" 3 (Tm.length t)

let test_tid_map_growth () =
  let t = Tm.create 1 in
  (* from 16 slots at load 1/2: resizes at 9, 17, 33, 65 and 129 keys *)
  let key i = [| vi i; vs (string_of_int i) |] in
  for i = 0 to 199 do
    Tm.add t (key i) (7 * i)
  done;
  check_id "length" 200 (Tm.length t);
  for i = 0 to 199 do
    check_id "id kept across resizes" (7 * i) (Tm.find t (key i));
    check_id "probed as a span" (7 * i)
      (Tm.find_span t (Array.append [| vnull |] (key i)) ~off:1 ~len:2)
  done;
  check_id "absent key" Tm.absent (Tm.find t (key 200));
  Tm.clear t;
  check_id "cleared" 0 (Tm.length t);
  check_id "cleared key" Tm.absent (Tm.find t (key 5))

let test_tid_map_remove_in_chain () =
  (* rows over two strings with equal [Value.hash] hash alike: all eight
     share one home slot and form one probe chain *)
  let s1, s2 = Lazy.force Helpers.colliding_strings in
  let keys =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> List.map (fun c -> [| vs a; vs b; vs c |]) [ s1; s2 ])
          [ s1; s2 ])
      [ s1; s2 ]
  in
  let t = Tm.create 8 in
  List.iteri (fun i k -> Tm.add t k i) keys;
  (* neighbours around the chain *)
  for i = 0 to 40 do
    Tm.add t [| vi i; vi i; vi i |] (100 + i)
  done;
  let live = ref (List.mapi (fun i k -> (k, i)) keys) in
  List.iter
    (fun victim ->
      let k = List.nth keys victim in
      Tm.remove t k;
      live := List.filter (fun (k', _) -> k' != k) !live;
      check_id "removed" Tm.absent (Tm.find t k);
      List.iter (fun (k', id) -> check_id "chain survivor" id (Tm.find t k')) !live;
      for i = 0 to 40 do
        check_id "neighbour" (100 + i) (Tm.find t [| vi i; vi i; vi i |])
      done)
    [ 3; 1; 6; 0; 7 ];
  Tm.remove t [| vs "nosuch" |];
  check_id "length" (3 + 41) (Tm.length t)

let test_tid_map_conns () =
  let c = Tm.Conns.create ~children:2 1 in
  check_id "first" 1 (Tm.Conns.add c 1 [| 2; 3 |]);
  check_id "repeat" 2 (Tm.Conns.add c 1 [| 2; 3 |]);
  check_id "child order matters" 1 (Tm.Conns.add c 1 [| 3; 2 |]);
  for p = 10 to 300 do
    ignore (Tm.Conns.add c p [| p; -p |])
  done;
  check_id "length" (2 + 291) (Tm.Conns.length c);
  check_id "count across resizes" 3 (Tm.Conns.add c 1 [| 2; 3 |]);
  check_id "length unchanged by a repeat" (2 + 291) (Tm.Conns.length c);
  Alcotest.check_raises "key width" (Invalid_argument "Tid_map.Conns: key width")
    (fun () -> ignore (Tm.Conns.add c 1 [| 2 |]))

let suite =
  suite
  @ [
      Alcotest.test_case "tid_map: Int, Float and 2^62" `Quick
        test_tid_map_numeric_keys;
      Alcotest.test_case "tid_map: Null, NaN, strings" `Quick
        test_tid_map_null_nan_strings;
      Alcotest.test_case "tid_map: growth keeps ids" `Quick test_tid_map_growth;
      Alcotest.test_case "tid_map: remove inside a probe chain" `Quick
        test_tid_map_remove_in_chain;
      Alcotest.test_case "tid_map: connection keys" `Quick test_tid_map_conns;
    ]

(* appended last so that no earlier case changes its index *)
let suite =
  suite
  @ [
      Alcotest.test_case "SQL derivation: explicit self-related root" `Quick
        test_sql_derivation_explicit_root;
    ]
