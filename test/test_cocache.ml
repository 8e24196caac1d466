(** CO cache tests: workspace construction, cursors, path expressions,
    updates with write-back, persistence, typed binding. *)

open Helpers
module H = Xnf.Hetstream
module Ws = Cocache.Workspace
module Cur = Cocache.Cursor

let deps_arc_text =
  "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),\n\
  \       xemp AS EMP,\n\
  \       xproj AS PROJ,\n\
  \       xskills AS SKILLS,\n\
  \       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = \
   xemp.edno),\n\
  \       ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = \
   xproj.pdno),\n\
  \       empproperty AS (RELATE xemp VIA POSSESSES, xskills USING \
   EMPSKILLS es WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),\n\
  \       projproperty AS (RELATE xproj VIA NEEDS, xskills USING \
   PROJSKILLS ps WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)\n\
   TAKE *"

let load_workspace db = Ws.of_stream (Xnf.Xnf_compile.run db deps_arc_text)

(* A hub node with many connections in and out: both pointer lists keep
   the stream's arrival order. *)
let test_hub_arrival_order () =
  let open Relcore in
  let schema = Schema.make [ Schema.column "k" Dtype.Tint ] in
  let comp comp_no comp_name comp_kind =
    {
      H.comp_no;
      comp_name;
      comp_kind;
      comp_schema =
        (match comp_kind with `Node -> schema | `Rel _ -> Schema.make []);
      take_cols = None;
      in_take = true;
    }
  in
  let rel role parent child =
    `Rel { H.rm_role = role; rm_parent = parent; rm_children = [ child ] }
  in
  let header =
    {
      H.components =
        [|
          comp 0 "hub" `Node;
          comp 1 "leaf" `Node;
          comp 2 "inward" (rel "FEEDS" "leaf" "hub");
          comp 3 "outward" (rel "OWNS" "hub" "leaf");
        |];
      root_components = [ "hub"; "leaf" ];
    }
  in
  let n = 2000 in
  let leaf i = 2 + i in
  let conn rel id parent child =
    H.Conn { rel; id; parent; children = [| child |]; attrs = [||] }
  in
  let items =
    H.Row { comp = 0; id = 1; values = [| Value.Int 0 |] }
    :: List.concat
         (List.init n (fun i ->
              [
                H.Row { comp = 1; id = leaf i; values = [| Value.Int i |] };
                conn 2 (10_000 + i) (leaf i) 1;
                conn 3 (20_000 + i) 1 (leaf i);
              ]))
  in
  let ws = Ws.of_stream { H.header; items } in
  let hub = Option.get (Ws.find_by_id ws 1) in
  let ids = List.map (fun (c : Cocache.Conode.conn) -> c.Cocache.Conode.conn_id) in
  Alcotest.(check (list int)) "in-connections in arrival order"
    (List.init n (fun i -> 10_000 + i))
    (ids (Cocache.Conode.conns_in hub ~rel:"inward"));
  Alcotest.(check (list int)) "out-connections in arrival order"
    (List.init n (fun i -> 20_000 + i))
    (ids (Cocache.Conode.conns_out hub ~rel:"outward"));
  Alcotest.(check (list int)) "children in arrival order"
    (List.init n leaf)
    (List.map (fun (c : Cocache.Conode.t) -> c.Cocache.Conode.id)
       (Cocache.Conode.children hub ~rel:"outward"));
  Alcotest.(check int) "connections counted" (2 * n) (Ws.connection_count ws)

let test_build () =
  let db = org_db () in
  let ws = load_workspace db in
  Alcotest.(check int) "xdept nodes" 2 (Ws.node_count ws "xdept");
  Alcotest.(check int) "xemp nodes" 3 (Ws.node_count ws "xemp");
  Alcotest.(check int) "total nodes" 11 (Ws.size ws);
  Alcotest.(check int) "connections" 12 (Ws.connection_count ws)

let test_independent_cursor () =
  let db = org_db () in
  let ws = load_workspace db in
  let cur = Cur.open_component ws "xemp" in
  let names =
    Cur.to_list cur
    |> List.map (fun n -> Relcore.Value.to_string (Ws.get ws n "ename"))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "all emps" [ "anna"; "ben"; "carol" ] names

let test_dependent_cursor () =
  let db = org_db () in
  let ws = load_workspace db in
  let tools =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "dname") = "tools")
      (Ws.nodes ws "xdept")
  in
  let cur = Cur.open_children tools ~rel:"employment" in
  let names =
    Cur.to_list cur
    |> List.map (fun n -> Relcore.Value.to_string (Ws.get ws n "ename"))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "tools emps" [ "anna"; "ben" ] names;
  (* reverse navigation *)
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  let parents = Cur.to_list (Cur.open_parents anna ~rel:"employment") in
  Alcotest.(check int) "anna has one dept" 1 (List.length parents);
  Alcotest.(check string) "it is tools" "tools"
    (Relcore.Value.to_string (Ws.get ws (List.hd parents) "dname"))

let test_cursor_reset_count () =
  let db = org_db () in
  let ws = load_workspace db in
  let cur = Cur.open_component ws "xskills" in
  Alcotest.(check int) "count" 4 (Cur.count cur);
  ignore (Cur.next cur);
  ignore (Cur.next cur);
  Cur.reset cur;
  Alcotest.(check int) "after reset all visible" 4 (List.length (Cur.to_list cur))

let test_path_expressions () =
  let db = org_db () in
  let ws = load_workspace db in
  let skills = Cocache.Path.eval ws "xdept.employment.xemp.empproperty.xskills" in
  let names =
    List.map (fun n -> Relcore.Value.to_string (Ws.get ws n "sname")) skills
    |> List.sort compare
  in
  Alcotest.(check (list string)) "skills via employees" [ "db"; "ml"; "ui" ] names;
  (* implicit relationship names *)
  let skills' = Cocache.Path.eval ws "xdept.xemp.xskills" in
  Alcotest.(check int) "implicit path same size" (List.length skills)
    (List.length skills');
  (* sharing: dedup means no duplicates even though 'db' reachable twice *)
  let ids = List.map (fun (n : Cocache.Conode.t) -> n.Cocache.Conode.id) skills in
  Alcotest.(check int) "distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_update_writeback () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  Ws.update ws anna [ ("sal", vi 150) ];
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check int) "one statement" 1 (List.length sqls);
  check_rows "salary written back" (rows_of_ints [ [ 150 ] ])
    (Engine.Database.query_rows db "SELECT sal FROM emp WHERE eno = 10")

let test_insert_delete_writeback () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  ignore (Ws.insert ws "xemp" [ vi 99; vs "zoe"; vi 70; vi 2 ]);
  let carol =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "carol")
      (Ws.nodes ws "xemp")
  in
  Ws.delete ws carol;
  ignore (Cocache.Update.flush db ast ws);
  check_rows "insert + delete applied"
    [ row [ vs "zoe" ] ]
    (Engine.Database.query_rows db
       "SELECT ename FROM emp WHERE eno = 99 OR eno = 12")

let test_connect_disconnect_fk () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let dbdept =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "dname") = "db")
      (Ws.nodes ws "xdept")
  in
  let ben =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "ben")
      (Ws.nodes ws "xemp")
  in
  (* move ben from tools to db: disconnect then connect *)
  let tools = List.hd (Cocache.Conode.parents ben ~rel:"employment") in
  Ws.disconnect ws ~rel:"employment" tools ben;
  ignore (Ws.connect ws ~rel:"employment" dbdept ben);
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check int) "two updates" 2 (List.length sqls);
  check_rows "fk updated" (rows_of_ints [ [ 2 ] ])
    (Engine.Database.query_rows db "SELECT edno FROM emp WHERE eno = 11");
  (* cache topology reflects the change *)
  Alcotest.(check int) "ben under db dept" 2
    (List.length (Cocache.Conode.children dbdept ~rel:"employment"))

let test_connect_disconnect_connect_table () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  let ui =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "sname") = "ui")
      (Ws.nodes ws "xskills")
  in
  ignore (Ws.connect ws ~rel:"empproperty" anna ui);
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check bool) "insert into connect table" true
    (match sqls with
    | [ s ] ->
      String.length s >= 21 && String.sub s 0 21 = "INSERT INTO empskills"
    | _ -> false);
  check_rows "mapping row added" (rows_of_ints [ [ 10; 33 ] ])
    (Engine.Database.query_rows db
       "SELECT eseno, essno FROM empskills WHERE eseno = 10 AND essno = 33");
  (* and back out *)
  Ws.disconnect ws ~rel:"empproperty" anna ui;
  ignore (Cocache.Update.flush db ast ws);
  check_rows "mapping row removed" []
    (Engine.Database.query_rows db
       "SELECT eseno FROM empskills WHERE eseno = 10 AND essno = 33")

let test_persistence_roundtrip () =
  let db = org_db () in
  let ws = load_workspace db in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  Ws.update ws anna [ ("sal", vi 175) ];
  let path = Filename.temp_file "xnfcache" ".bin" in
  Cocache.Persist.save ws path;
  let ws' = Cocache.Persist.load path in
  Sys.remove path;
  Alcotest.(check int) "nodes preserved" (Ws.size ws) (Ws.size ws');
  Alcotest.(check int) "connections preserved" (Ws.connection_count ws)
    (Ws.connection_count ws');
  Alcotest.(check int) "pending ops preserved" 1
    (List.length (Ws.pending_ops ws'));
  (* the pending update still flushes after reload *)
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  ignore (Cocache.Update.flush db ast ws');
  check_rows "flushed after reload" (rows_of_ints [ [ 175 ] ])
    (Engine.Database.query_rows db "SELECT sal FROM emp WHERE eno = 10")

let test_typed_binding () =
  let db = org_db () in
  let ws = load_workspace db in
  let module Emp = struct
    type t = { eno : int; ename : string; sal : int; edno : int }

    let component = "xemp"

    let of_row (r : Relcore.Value.t array) =
      {
        eno = Relcore.Value.as_int r.(0);
        ename = Relcore.Value.as_string r.(1);
        sal = Relcore.Value.as_int r.(2);
        edno = Relcore.Value.as_int r.(3);
      }

    let to_row v =
      [|
        Relcore.Value.Int v.eno;
        Relcore.Value.Str v.ename;
        Relcore.Value.Int v.sal;
        Relcore.Value.Int v.edno;
      |]
  end in
  let module Skill = struct
    type t = { sno : int; sname : string }

    let component = "xskills"

    let of_row (r : Relcore.Value.t array) =
      { sno = Relcore.Value.as_int r.(0); sname = Relcore.Value.as_string r.(1) }

    let to_row v = [| Relcore.Value.Int v.sno; Relcore.Value.Str v.sname |]
  end in
  let module Emps = Cocache.Binding.Make (Emp) in
  let emps = Emps.all ws in
  Alcotest.(check int) "typed container" 3 (List.length emps);
  let anna = Option.get (Emps.find ws (fun e -> e.Emp.ename = "anna")) in
  Alcotest.(check int) "typed field" 100 anna.Emp.sal;
  let skills =
    Emps.children ws (module Skill) ~rel:"empproperty" anna
    |> List.map (fun s -> s.Skill.sname)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "typed navigation" [ "db"; "ml" ] skills

let test_non_updatable_rejected () =
  let db = org_db () in
  let text =
    "OUT OF xd AS (SELECT dno, COUNT(*) AS n FROM DEPT, EMP WHERE dno = \
     edno GROUP BY dno) TAKE *"
  in
  let ws = Ws.of_stream (Xnf.Xnf_compile.run db text) in
  let ast = Xnf.Xnf_parser.parse text in
  let n = List.hd (Ws.nodes ws "xd") in
  Ws.update ws n [ ("n", vi 0) ];
  Alcotest.(check bool) "flush rejects aggregate view" true
    (try
       ignore (Cocache.Update.flush db ast ws);
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

(* An edit a workspace has not flushed yet must not reach the result
   cache: node values are the cached stream's rows, so [Workspace.update]
   copies on write.  Checked on the OO1 graph (a maintained stream) and
   the BOM (a recursive one, whose rows also key its tuple-id maps). *)
let test_unflushed_edit_leaves_cache () =
  let module XC = Xnf.Xnf_compile in
  with_result_cache @@ fun () ->
  let probe db text comp col v =
    let c = XC.compile db text in
    let ws = Ws.of_stream (XC.extract c) in
    let n = List.hd (Ws.nodes ws comp) in
    Ws.update ws n [ (col, v) ];
    Alcotest.(check value_testable) (text ^ ": the edit is in the workspace") v
      (Ws.get ws n col);
    Alcotest.(check bool) (text ^ ": cached = fresh after an unflushed edit")
      true
      (H.equal (XC.extract c) (XC.extract ~cache:false c))
  in
  probe
    (Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 })
    Workloads.Oo1.parts_graph_query "xpart" "x" (vi 424242);
  probe
    (Workloads.Bom.generate Workloads.Bom.default)
    Workloads.Bom.assembly_query "xpart" "pname" (vs "edited")

let suite =
  [
    Alcotest.test_case "workspace build" `Quick test_build;
    Alcotest.test_case "unflushed edit leaves the cache" `Quick
      test_unflushed_edit_leaves_cache;
    Alcotest.test_case "hub keeps arrival order" `Quick test_hub_arrival_order;
    Alcotest.test_case "independent cursor" `Quick test_independent_cursor;
    Alcotest.test_case "dependent cursor" `Quick test_dependent_cursor;
    Alcotest.test_case "cursor reset/count" `Quick test_cursor_reset_count;
    Alcotest.test_case "path expressions" `Quick test_path_expressions;
    Alcotest.test_case "update write-back" `Quick test_update_writeback;
    Alcotest.test_case "insert/delete write-back" `Quick
      test_insert_delete_writeback;
    Alcotest.test_case "connect/disconnect via fk" `Quick
      test_connect_disconnect_fk;
    Alcotest.test_case "connect/disconnect via connect table" `Quick
      test_connect_disconnect_connect_table;
    Alcotest.test_case "persistence roundtrip" `Quick test_persistence_roundtrip;
    Alcotest.test_case "typed binding" `Quick test_typed_binding;
    Alcotest.test_case "non-updatable view rejected" `Quick
      test_non_updatable_rejected;
  ]

let test_atomic_flush_rolls_back () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  (* a good op followed by one violating the primary key *)
  Ws.update ws anna [ ("sal", vi 1) ];
  ignore (Ws.insert ws "xemp" [ vi 10; vs "dup-pk"; vi 1; vi 1 ]);
  Alcotest.(check bool) "flush fails" true
    (try
       ignore (Cocache.Update.flush_atomic db ast ws);
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Constraint_error, _) -> true);
  (* the first statement was rolled back with the failed one *)
  check_rows "no partial write-back" (rows_of_ints [ [ 100 ] ])
    (Engine.Database.query_rows db "SELECT sal FROM emp WHERE eno = 10");
  Alcotest.(check int) "pending preserved for retry" 2
    (List.length (Ws.pending_ops ws))

let suite =
  suite
  @ [
      Alcotest.test_case "atomic flush rollback" `Quick
        test_atomic_flush_rolls_back;
    ]

let test_path_errors () =
  let db = org_db () in
  let ws = load_workspace db in
  let bad path =
    Alcotest.(check bool)
      (Printf.sprintf "reject %S" path)
      true
      (try
         ignore (Cocache.Path.eval ws path);
         false
       with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)
  in
  bad "";
  bad "nosuch.xemp";
  bad "employment.xemp" (* must start at a node *);
  bad "xdept.nosuch";
  bad "xdept.xskills" (* no direct relationship *);
  bad "xdept.employment" (* rel must be followed by a node *)

let test_conode_rels_and_positions () =
  let db = org_db () in
  let ws = load_workspace db in
  let tools =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "dname") = "tools")
      (Ws.nodes ws "xdept")
  in
  Alcotest.(check (list string)) "out rels" [ "employment"; "ownership" ]
    (Cocache.Conode.out_rels tools);
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  Alcotest.(check (list string)) "in rels" [ "employment" ]
    (Cocache.Conode.in_rels anna);
  (* positional dependent cursor on a binary relationship = position 0 *)
  let c0 = Cur.open_children ~position:0 tools ~rel:"employment" in
  Alcotest.(check int) "position 0" 2 (Cur.count c0)

let test_find_comp_unknown () =
  let db = org_db () in
  let stream = Xnf.Xnf_compile.run db deps_arc_text in
  Alcotest.(check bool) "unknown component" true
    (try
       ignore (H.find_comp stream.H.header "nosuch");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let test_corrupt_cache_file_rejected () =
  let file = Filename.temp_file "bad_cache" ".xnf" in
  let oc = open_out file in
  output_string oc "not a cache";
  close_out oc;
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Cocache.Persist.load file);
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Execution_error, _) -> true);
  Sys.remove file

let suite =
  suite
  @ [
      Alcotest.test_case "path errors" `Quick test_path_errors;
      Alcotest.test_case "conode rels/positions" `Quick
        test_conode_rels_and_positions;
      Alcotest.test_case "find_comp unknown" `Quick test_find_comp_unknown;
      Alcotest.test_case "corrupt cache rejected" `Quick
        test_corrupt_cache_file_rejected;
    ]

let test_delete_removes_connections () =
  let db = org_db () in
  let ws = load_workspace db in
  let before = Ws.connection_count ws in
  ignore before;
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  let tools = List.hd (Cocache.Conode.parents anna ~rel:"employment") in
  let tools_emps_before =
    List.length (Cocache.Conode.children tools ~rel:"employment")
  in
  Ws.delete ws anna;
  Alcotest.(check int) "parent lost a child" (tools_emps_before - 1)
    (List.length (Cocache.Conode.children tools ~rel:"employment"));
  Alcotest.(check int) "node count dropped" 2 (Ws.node_count ws "xemp")

let test_insert_connect_flush_order () =
  let db = org_db () in
  let ws = load_workspace db in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let zoe = Ws.insert ws "xemp" [ vi 88; vs "zoe"; vi 70; vnull ] in
  let tools =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "dname") = "tools")
      (Ws.nodes ws "xdept")
  in
  ignore (Ws.connect ws ~rel:"employment" tools zoe);
  let sqls = Cocache.Update.flush_atomic db ast ws in
  Alcotest.(check int) "two statements in order" 2 (List.length sqls);
  check_rows "inserted then connected" (rows_of_ints [ [ 88; 1 ] ])
    (Engine.Database.query_rows db "SELECT eno, edno FROM emp WHERE eno = 88")

let test_get_unknown_column () =
  let db = org_db () in
  let ws = load_workspace db in
  let n = List.hd (Ws.nodes ws "xemp") in
  Alcotest.(check bool) "unknown column" true
    (try
       ignore (Ws.get ws n "nosuch");
       false
     with Relcore.Errors.Db_error (Relcore.Errors.Semantic_error, _) -> true)

let test_binding_insert_roundtrip () =
  let db = org_db () in
  let ws = load_workspace db in
  let module Emp = struct
    type t = { eno : int; ename : string; sal : int; edno : int }

    let component = "xemp"

    let of_row (r : Relcore.Value.t array) =
      {
        eno = Relcore.Value.as_int r.(0);
        ename = Relcore.Value.as_string r.(1);
        sal = Relcore.Value.as_int r.(2);
        edno = Relcore.Value.as_int r.(3);
      }

    let to_row v =
      [|
        Relcore.Value.Int v.eno; Relcore.Value.Str v.ename;
        Relcore.Value.Int v.sal; Relcore.Value.Int v.edno;
      |]
  end in
  let module Emps = Cocache.Binding.Make (Emp) in
  ignore (Emps.insert ws { Emp.eno = 77; ename = "gil"; sal = 60; edno = 1 });
  Alcotest.(check int) "typed insert visible" 4 (Emps.count ws);
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  ignore (Cocache.Update.flush db ast ws);
  check_rows "typed insert flushed" [ row [ vs "gil" ] ]
    (Engine.Database.query_rows db "SELECT ename FROM emp WHERE eno = 77")

let suite =
  suite
  @ [
      Alcotest.test_case "delete removes connections" `Quick
        test_delete_removes_connections;
      Alcotest.test_case "insert+connect flush order" `Quick
        test_insert_connect_flush_order;
      Alcotest.test_case "get unknown column" `Quick test_get_unknown_column;
      Alcotest.test_case "binding insert roundtrip" `Quick
        test_binding_insert_roundtrip;
    ]

(* A cache file cut short or carrying extra bytes is rejected with a
   typed error, never an out-of-bounds exception from the decoder. *)
let test_truncated_cache_file_rejected () =
  let db = org_db () in
  let ws = load_workspace db in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  Ws.update ws anna [ ("sal", vi 175) ];
  let path = Filename.temp_file "xnfcache" ".bin" in
  Cocache.Persist.save ws path;
  let data = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length data in
  let rejected what bytes =
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    Alcotest.(check bool) what true
      (try
         ignore (Cocache.Persist.load path);
         false
       with Relcore.Errors.Db_error (Relcore.Errors.Execution_error, _) -> true)
  in
  rejected "cut at len-1" (String.sub data 0 (len - 1));
  rejected "cut at len/2" (String.sub data 0 (len / 2));
  rejected "cut at 12 bytes" (String.sub data 0 12);
  rejected "trailing byte" (data ^ "\000");
  Sys.remove path

let suite =
  suite
  @ [
      Alcotest.test_case "truncated cache file rejected" `Quick
        test_truncated_cache_file_rejected;
    ]

(* A hand-made stream covering what the load must get right: a
   connection naming a partner before its row arrives (one node, a stub
   until the row fills it in place), a partner component outside TAKE
   (stubs only), and one node with three connections in and three out. *)
let test_load_order_and_stubs () =
  let open Relcore in
  let module C = Cocache.Conode in
  let col name = Schema.make [ Schema.column name Dtype.Tint ] in
  let comp comp_no comp_name comp_kind comp_schema in_take =
    { H.comp_no; comp_name; comp_kind; comp_schema; take_cols = None; in_take }
  in
  let rel role parent child =
    `Rel { H.rm_role = role; rm_parent = parent; rm_children = [ child ] }
  in
  let header =
    {
      H.components =
        [|
          comp 0 "part" `Node (col "k") true;
          comp 1 "supplier" `Node (col "s") false;
          comp 2 "uses" (rel "USES" "part" "part") (Schema.make []) true;
          comp 3 "supplies" (rel "SUPPLIES" "supplier" "part") (Schema.make [])
            true;
        |];
      root_components = [ "part" ];
    }
  in
  let part id = H.Row { comp = 0; id; values = [| Value.Int id |] } in
  let conn rel id parent child =
    H.Conn { rel; id; parent; children = [| child |]; attrs = [||] }
  in
  let items =
    [
      part 1;
      conn 2 100 1 2 (* part 2 before its row: a stub *);
      part 2;
      part 3;
      conn 2 101 1 3;
      conn 3 200 50 1 (* supplier 50 is never shipped *);
      conn 2 102 3 1;
      conn 2 103 2 1;
      conn 2 104 1 2 (* now resolves to the row *);
    ]
  in
  let ws = Ws.of_stream { H.header; items } in
  let ids = List.map (fun (n : C.t) -> n.C.id) in
  let conn_ids = List.map (fun (c : C.conn) -> c.C.conn_id) in
  let parts = Ws.nodes ws "part" in
  Alcotest.(check (list int)) "part nodes in arrival order" [ 1; 2; 3 ]
    (ids parts);
  Alcotest.(check (list bool)) "no part is a stub" [ false; false; false ]
    (List.map (Ws.is_stub ws) parts);
  Alcotest.(check (list int)) "supplier stubs" [ 50 ] (ids (Ws.nodes ws "supplier"));
  let node id = Option.get (Ws.find_by_id ws id) in
  let row2 = List.nth parts 1 in
  Alcotest.(check bool) "find_by_id 2 is the row" true (node 2 == row2);
  Alcotest.(check bool) "row 2 has its values" true
    (row2.C.values = [| Value.Int 2 |]);
  Alcotest.(check bool) "find_by_id 50 is a stub" true (Ws.is_stub ws (node 50));
  Alcotest.(check bool) "find_by_id 99" true (Ws.find_by_id ws 99 = None);
  let hub = node 1 in
  let conn_ids a = conn_ids (Array.to_list a) in
  Alcotest.(check (list int)) "hub out_conns" [ 100; 101; 104 ]
    (conn_ids (C.out_conns hub));
  Alcotest.(check (list int)) "hub in_conns" [ 200; 102; 103 ]
    (conn_ids (C.in_conns hub));
  Alcotest.(check (list int)) "hub children" [ 2; 3; 2 ]
    (ids (C.children hub ~rel:"uses"));
  Alcotest.(check bool) "conns 100 and 104 both reach row 2" true
    (match C.children hub ~rel:"uses" with
    | [ a; _; b ] -> a == row2 && b == row2
    | _ -> false);
  Alcotest.(check (list int)) "row 2 in_conns" [ 100; 104 ] (conn_ids (C.in_conns row2));
  Alcotest.(check (list int)) "row 2 out_conns" [ 103 ] (conn_ids (C.out_conns row2));
  Alcotest.(check (list int)) "supplier out_conns" [ 200 ]
    (conn_ids (C.out_conns (node 50)));
  Alcotest.(check int) "connections" 6 (Ws.connection_count ws);
  let fresh = Ws.insert ws "part" [ Value.Int 9 ] in
  Alcotest.(check int) "insert takes a negative id" (-1) fresh.C.id;
  Alcotest.(check bool) "found under its negative id" true (node (-1) == fresh);
  Alcotest.(check (list int)) "inserted node last" [ 1; 2; 3; -1 ]
    (ids (Ws.nodes ws "part"))

let suite =
  suite
  @ [
      Alcotest.test_case "load: arrival order, stubs, find_by_id" `Quick
        test_load_order_and_stubs;
    ]

(* A one-component graph for hand-made streams: "uses" is binary,
   "pair" names two children, "supplies" comes from a second component
   outside TAKE. *)
let graph_header =
  let open Relcore in
  let col name = Schema.make [ Schema.column name Dtype.Tint ] in
  let comp comp_no comp_name comp_kind comp_schema in_take =
    { H.comp_no; comp_name; comp_kind; comp_schema; take_cols = None; in_take }
  in
  let rel role parent children =
    `Rel { H.rm_role = role; rm_parent = parent; rm_children = children }
  in
  {
    H.components =
      [|
        comp 0 "part" `Node (col "k") true;
        comp 1 "supplier" `Node (col "s") false;
        comp 2 "uses" (rel "USES" "part" [ "part" ]) (Schema.make []) true;
        comp 3 "pair" (rel "PAIR" "part" [ "part"; "part" ]) (Schema.make []) true;
        comp 4 "supplies" (rel "SUPPLIES" "supplier" [ "part" ]) (Schema.make [])
          true;
      |];
    root_components = [ "part" ];
  }

let part id = H.Row { comp = 0; id; values = [| Relcore.Value.Int id |] }

let conn rel id parent children =
  H.Conn { rel; id; parent; children; attrs = [||] }

let save_and_load ws =
  let path = Filename.temp_file "xnfcache" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cocache.Persist.save ws path;
      Cocache.Persist.load path)

(* Deleting a node drops each of its connections from the count once,
   so the count agrees with the same workspace after a save/load. *)
let test_delete_connection_count () =
  let module C = Cocache.Conode in
  let db = org_db () in
  let ws = load_workspace db in
  let anna =
    List.find
      (fun n -> Relcore.Value.to_string (Ws.get ws n "ename") = "anna")
      (Ws.nodes ws "xemp")
  in
  let outs = Array.length (C.out_conns anna) and ins = Array.length (C.in_conns anna) in
  Alcotest.(check bool) "anna is connected both ways" true (outs > 0 && ins > 0);
  let before = Ws.connection_count ws in
  Ws.delete ws anna;
  Alcotest.(check int) "count loses anna's connections" (before - outs - ins)
    (Ws.connection_count ws);
  (* a client insert's negative ids are renumbered on save *)
  let zoe = Ws.insert ws "xemp" [ vi 88; vs "zoe"; vi 70; vnull ] in
  let tools = List.hd (Cocache.Conode.parents (List.hd (Ws.nodes ws "xemp")) ~rel:"employment") in
  ignore (Ws.connect ws ~rel:"employment" tools zoe);
  let ws' = save_and_load ws in
  Alcotest.(check int) "count survives save/load" (Ws.connection_count ws)
    (Ws.connection_count ws');
  Alcotest.(check int) "nodes survive save/load" (Ws.size ws) (Ws.size ws');
  Alcotest.(check (list string)) "insert reloaded under a stream id" [ "zoe" ]
    (List.filter_map
       (fun (n : C.t) ->
         if n.C.id > 0 && Ws.get ws' n "ename" = vs "zoe" then Some "zoe" else None)
       (Ws.nodes ws' "xemp"));
  (* a self-loop and a connection naming the node twice count once *)
  let items =
    [
      part 1;
      part 2;
      conn 2 100 1 [| 1 |];
      conn 2 101 1 [| 2 |];
      conn 2 102 2 [| 1 |];
      conn 3 103 2 [| 1; 1 |];
      conn 3 104 2 [| 2; 2 |];
    ]
  in
  let ws = Ws.of_stream { H.header = graph_header; items } in
  let one = Option.get (Ws.find_by_id ws 1) and two = Option.get (Ws.find_by_id ws 2) in
  Alcotest.(check int) "node 1 fills in_conns per slot" 4 (Array.length (C.in_conns one));
  Ws.delete ws one;
  Alcotest.(check int) "four connections gone" 1 (Ws.connection_count ws);
  Alcotest.(check (list int)) "node 2 keeps only its own pair" [ 104 ]
    (List.map (fun (c : C.conn) -> c.C.conn_id) (Array.to_list (C.out_conns two)));
  Alcotest.(check (list int)) "node 2 in_conns" [ 104; 104 ]
    (List.map (fun (c : C.conn) -> c.C.conn_id) (Array.to_list (C.in_conns two)));
  Alcotest.(check int) "save/load agrees" 1 (Ws.connection_count (save_and_load ws))

(* Ids that break the one-node-per-id contract are refused with a typed
   error before any node is made. *)
let test_load_malformed_ids () =
  let refused what items =
    Alcotest.(check bool) what true
      (match Ws.of_stream { H.header = graph_header; items } with
      | _ -> false
      | exception Relcore.Errors.Db_error (Relcore.Errors.Execution_error, _) ->
        true)
  in
  refused "negative row id" [ part 1; part (-3) ];
  refused "negative partner id" [ part 1; conn 2 100 1 [| -2 |] ];
  refused "negative parent id" [ part 1; conn 2 100 min_int [| 1 |] ];
  refused "two rows under one id" [ part 1; part 2; part 1 ];
  refused "two rows under one id, other component"
    [ part 1; H.Row { comp = 1; id = 1; values = [| Relcore.Value.Int 7 |] } ];
  refused "row stubbed in another component"
    [ part 1; conn 4 200 5 [| 1 |]; part 5 ];
  refused "row of a relationship component"
    [ H.Row { comp = 2; id = 1; values = [||] } ];
  refused "component number out of range" [ conn 9 100 1 [| 1 |] ];
  refused "too many children" [ part 1; conn 2 100 1 [| 1; 1 |] ]

(* Ids past the dense range are legitimate (rows outside TAKE take ids
   too) and are found through the side table; no array is sized from
   them, max_int included. *)
let test_load_sparse_ids () =
  let module C = Cocache.Conode in
  let items = [ part 1; part max_int; conn 2 2 1 [| max_int |] ] in
  let ws = Ws.of_stream { H.header = graph_header; items } in
  let far = Option.get (Ws.find_by_id ws max_int) in
  Alcotest.(check (list int)) "child past the range" [ max_int ]
    (List.map (fun (n : C.t) -> n.C.id)
       (C.children (Option.get (Ws.find_by_id ws 1)) ~rel:"uses"));
  Alcotest.(check bool) "far row has its values" false (Ws.is_stub ws far);
  Alcotest.(check bool) "unused id in range" true (Ws.find_by_id ws 3 = None);
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  ignore (Ws.of_stream { H.header = graph_header; items = [ part 2_000_000 ] });
  Alcotest.(check bool) "no array sized from a large id" true
    (words () -. w0 < 100_000.);
  (* a query whose shipped component follows a larger one outside TAKE *)
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 2000 } in
  let s =
    Xnf.Xnf_compile.run ~cache:false db
      "OUT OF ROOT xpart AS parts, ROOT few AS (SELECT * FROM parts WHERE pid \
       <= 5) TAKE few"
  in
  let ids =
    List.map (function H.Row { id; _ } -> id | H.Conn { id; _ } -> id) s.H.items
  in
  Alcotest.(check bool) "ids past the dense range" true
    (List.for_all (fun id -> id > (4 * List.length ids) + 1024) ids);
  let ws = Ws.of_stream s in
  Alcotest.(check int) "all five rows" 5 (Ws.node_count ws "few");
  Alcotest.(check bool) "each found by id" true
    (List.for_all (fun id -> (Option.get (Ws.find_by_id ws id)).C.id = id) ids)

let suite =
  suite
  @ [
      Alcotest.test_case "delete: connection_count and save/load agree" `Quick
        test_delete_connection_count;
      Alcotest.test_case "load: malformed ids refused" `Quick
        test_load_malformed_ids;
      Alcotest.test_case "load: ids past the dense range" `Quick
        test_load_sparse_ids;
    ]

(* Everything a workspace shows, node by node: values, connection ids
   both ways, and children and parents per relationship. *)
let navigation ws =
  let module C = Cocache.Conode in
  let ids = List.map (fun (n : C.t) -> n.C.id) in
  let conn_ids a = Array.to_list (Array.map (fun (c : C.conn) -> c.C.conn_id) a) in
  List.concat_map
    (fun comp ->
      List.map
        (fun (n : C.t) ->
          ( n.C.id,
            n.C.values,
            conn_ids (C.out_conns n),
            conn_ids (C.in_conns n),
            List.map
              (fun rel -> (ids (C.children n ~rel), ids (C.parents n ~rel)))
              (Ws.rel_component_names ws) ))
        (Ws.nodes ws comp))
    (Ws.node_component_names ws)

(* Edits stay in the workspace that makes them: the stream it was loaded
   from and a second workspace loaded from that stream do not change. *)
let test_edits_stay_local () =
  let module C = Cocache.Conode in
  let items =
    [
      conn 2 100 1 [| 2 |] (* partners named before their rows *);
      part 1;
      part 2;
      part 3;
      conn 2 101 2 [| 3 |];
      conn 3 102 1 [| 2; 3 |];
      conn 2 103 3 [| 3 |] (* a self-loop *);
      conn 4 104 50 [| 1 |];
    ]
  in
  let s = { H.header = graph_header; items } in
  let copy = H.deserialize (H.serialize s) in
  let ws1 = Ws.of_stream s and ws2 = Ws.of_stream s in
  let before = navigation ws2 in
  let node id = Option.get (Ws.find_by_id ws1 id) in
  Ws.update ws1 (node 1) [ ("k", Relcore.Value.Int 11) ];
  ignore (Ws.connect ws1 ~rel:"uses" (node 3) (node 1));
  Ws.disconnect ws1 ~rel:"uses" (node 1) (node 2);
  Ws.delete ws1 (node 3);
  Alcotest.(check bool) "the edits show in their workspace" true
    (navigation ws1 <> before);
  Alcotest.(check bool) "the stream is unchanged" true (H.equal s copy);
  Alcotest.(check bool) "the other workspace navigates as before" true
    (navigation ws2 = before);
  Alcotest.(check int) "and counts as before" 5 (Ws.connection_count ws2)

(* The load allocates the nodes and little else: no record per
   connection. *)
let test_load_allocation () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 2000 } in
  let s = Xnf.Xnf_compile.run ~cache:false db Workloads.Oo1.parts_graph_query in
  ignore (Ws.of_stream s);
  (* this domain's words: [Gc.quick_stat] also counts other domains' *)
  let w0 = Gc.minor_words () in
  let ws = Ws.of_stream s in
  let words = Gc.minor_words () -. w0 in
  let per_item = words /. float_of_int (H.total_items s) in
  Alcotest.(check int) "all parts loaded" 2000 (Ws.node_count ws "xpart");
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per stream item, at most 3" per_item)
    true (per_item <= 3.)

let suite =
  suite
  @ [
      Alcotest.test_case "edits never write through to the stream" `Quick
        test_edits_stay_local;
      Alcotest.test_case "load: minor words per item" `Quick test_load_allocation;
    ]
