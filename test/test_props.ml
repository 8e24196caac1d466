(** Property-based tests (qcheck): algebraic invariants of the kernel
    data structures and end-to-end equivalence of the three CO
    derivation strategies on randomized databases. *)

open Relcore

let value_gen : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (2, map (fun b -> Value.Bool b) bool);
        (4, map (fun i -> Value.Int i) (int_range (-1000) 1000));
        (3, map (fun f -> Value.Float (float_of_int f /. 8.0)) (int_range (-800) 800));
        (4, map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 6)));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_compare_total_order =
  QCheck.Test.make ~name:"Value.compare antisymmetric + transitive" ~count:500
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let ab = Value.compare a b and ba = Value.compare b a in
      let anti = compare ab 0 = compare 0 ba in
      let trans =
        if Value.compare a b <= 0 && Value.compare b c <= 0 then
          Value.compare a c <= 0
        else true
      in
      anti && trans)

let prop_value_hash_respects_equal =
  QCheck.Test.make ~name:"Value equal implies same hash" ~count:500
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* reference LIKE matcher: expand to position sets *)
let like_reference ~pattern s =
  let n = String.length s in
  let step positions c =
    match c with
    | '%' ->
      let reachable = Array.make (n + 1) false in
      List.iter
        (fun p ->
          for i = p to n do
            reachable.(i) <- true
          done)
        positions;
      List.filter (fun i -> reachable.(i)) (List.init (n + 1) Fun.id)
    | '_' -> List.filter_map (fun p -> if p < n then Some (p + 1) else None) positions
    | c ->
      List.filter_map
        (fun p -> if p < n && s.[p] = c then Some (p + 1) else None)
        positions
  in
  let final = String.fold_left step [ 0 ] pattern in
  List.mem n final

let pattern_gen =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'c'; return '%'; return '_' ])
      (int_range 0 8))

let prop_like_matches_reference =
  QCheck.Test.make ~name:"LIKE agrees with reference matcher" ~count:1000
    (QCheck.pair
       (QCheck.make ~print:Fun.id pattern_gen)
       (QCheck.make ~print:Fun.id
          QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 0 10))))
    (fun (pattern, s) ->
      Executor.Eval.like_match ~pattern s = like_reference ~pattern s)

(* model-based heap test *)
type heap_op = Ins of int | Del of int | Upd of int * int

let heap_ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (frequency
         [
           (4, map (fun v -> Ins v) (int_range 0 100));
           (2, map (fun i -> Del i) (int_range 0 30));
           (2, map (fun (i, v) -> Upd (i, v)) (pair (int_range 0 30) (int_range 0 100)));
         ]))

let prop_heap_model =
  QCheck.Test.make ~name:"Heap behaves like a map" ~count:300
    (QCheck.make heap_ops_gen)
    (fun ops ->
      let h = Heap.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let live_rids () = Hashtbl.fold (fun r _ acc -> r :: acc) model [] in
      List.iter
        (fun op ->
          match op with
          | Ins v ->
            let rid = Heap.insert h [| Value.Int v |] in
            Hashtbl.replace model rid v
          | Del i -> begin
            match List.nth_opt (List.sort compare (live_rids ())) i with
            | Some rid ->
              Heap.delete h rid;
              Hashtbl.remove model rid
            | None -> ()
          end
          | Upd (i, v) -> begin
            match List.nth_opt (List.sort compare (live_rids ())) i with
            | Some rid ->
              Heap.update h rid [| Value.Int v |];
              Hashtbl.replace model rid v
            | None -> ()
          end)
        ops;
      Heap.cardinality h = Hashtbl.length model
      && Hashtbl.fold
           (fun rid v acc ->
             acc
             &&
             match Heap.get h rid with
             | Some t -> Value.equal t.(0) (Value.Int v)
             | None -> false)
           model true)

(* vec model *)
let prop_vec_model =
  QCheck.Test.make ~name:"Vec behaves like a list" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 200) QCheck.small_int)
    (fun xs ->
      let v = Vec.create ~dummy:(-1) in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && List.for_all (fun i -> Vec.get v i = List.nth xs i)
           (List.init (min 5 (List.length xs)) Fun.id))

(* tuple ordering *)
let tuple_arb =
  QCheck.make
    ~print:(fun t -> Tuple.to_string t)
    QCheck.Gen.(map Array.of_list (list_size (int_range 0 4) value_gen))

let prop_tuple_compare_consistent =
  QCheck.Test.make ~name:"Tuple compare/equal/hash consistent" ~count:500
    (QCheck.pair tuple_arb tuple_arb)
    (fun (a, b) ->
      let eq = Tuple.equal a b in
      (eq = (Tuple.compare a b = 0)) && ((not eq) || Tuple.hash a = Tuple.hash b))

(* -- end-to-end equivalence on random databases -------------------------- *)

let org_params_gen =
  QCheck.Gen.(
    map
      (fun (n_depts, emps, projs, seed) ->
        {
          Workloads.Org.default with
          n_depts;
          emps_per_dept = emps;
          projs_per_dept = projs;
          n_skills = 12;
          skills_per_emp = 2;
          skills_per_proj = 2;
          seed;
        })
      (quad (int_range 2 8) (int_range 1 5) (int_range 1 3) (int_range 0 10_000)))

let org_params_arb =
  QCheck.make
    ~print:(fun (p : Workloads.Org.params) ->
      Printf.sprintf "depts=%d emps=%d projs=%d seed=%d" p.Workloads.Org.n_depts
        p.Workloads.Org.emps_per_dept p.Workloads.Org.projs_per_dept
        p.Workloads.Org.seed)
    org_params_gen

(** The three derivation strategies must agree on every component
    cardinality: XNF multi-table extraction, per-component SQL queries,
    and the navigational walk. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"XNF = SQL-derivation = navigational (counts)"
    ~count:25 org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let ast = Xnf.Xnf_parser.parse Workloads.Org.deps_arc_query in
      let xnf = Xnf.Hetstream.counts (Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query) in
      let sql =
        List.map
          (fun (n, rows) -> (n, List.length rows))
          (Xnf.Sql_derivation.extract db ast)
      in
      let nav = (Xnf.Navigational.extract ~mode:`Prepared db ast).Xnf.Navigational.counts in
      let sorted l = List.sort compare l in
      sorted xnf = sorted sql && sorted xnf = sorted nav)

(** CSE on/off and NF-rewrite on/off must not change extraction results. *)
let prop_ablations_preserve_semantics =
  QCheck.Test.make ~name:"share/rewrite ablations preserve extraction"
    ~count:20 org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let c ~share ~nf_rewrite =
        Xnf.Hetstream.counts
          (Xnf.Xnf_compile.run ~share ~nf_rewrite db Workloads.Org.deps_arc_query)
      in
      let base = c ~share:true ~nf_rewrite:true in
      base = c ~share:false ~nf_rewrite:true
      && base = c ~share:true ~nf_rewrite:false
      && base = c ~share:false ~nf_rewrite:false)

(** Stream serialization roundtrips on random extractions. *)
let prop_stream_roundtrip =
  QCheck.Test.make ~name:"hetstream serialize/deserialize roundtrip" ~count:20
    org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let s = Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query in
      let s' = Xnf.Hetstream.deserialize (Xnf.Hetstream.serialize s) in
      Xnf.Hetstream.counts s = Xnf.Hetstream.counts s'
      && s.Xnf.Hetstream.items = s'.Xnf.Hetstream.items)

(** Every connection in every random extraction resolves to shipped rows
    (referential integrity of the heterogeneous stream). *)
let prop_connections_resolve =
  QCheck.Test.make ~name:"connections reference shipped tuples" ~count:20
    org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let s = Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query in
      let ids = Hashtbl.create 256 in
      List.iter
        (function
          | Xnf.Hetstream.Row { id; _ } -> Hashtbl.replace ids id ()
          | Xnf.Hetstream.Conn _ -> ())
        s.Xnf.Hetstream.items;
      List.for_all
        (function
          | Xnf.Hetstream.Conn { parent; children; _ } ->
            Hashtbl.mem ids parent
            && Array.for_all (fun c -> Hashtbl.mem ids c) children
          | Xnf.Hetstream.Row _ -> true)
        s.Xnf.Hetstream.items)

(** The recursive fixpoint evaluator agrees with the navigational walk
    (which handles cycles through its dedup maps) on random BOMs. *)
let bom_params_gen =
  QCheck.Gen.(
    map
      (fun (n, levels, k, seed) ->
        {
          Workloads.Bom.default with
          n_assemblies = n;
          levels;
          children_per_part = k;
          seed;
        })
      (quad (int_range 1 3) (int_range 1 4) (int_range 1 3) (int_range 0 10_000)))

let prop_recursive_agrees_with_navigational =
  QCheck.Test.make ~name:"recursive fixpoint = navigational walk" ~count:15
    (QCheck.make
       ~print:(fun (p : Workloads.Bom.params) ->
         Printf.sprintf "asm=%d levels=%d k=%d seed=%d" p.Workloads.Bom.n_assemblies
           p.Workloads.Bom.levels p.Workloads.Bom.children_per_part
           p.Workloads.Bom.seed)
       bom_params_gen)
    (fun params ->
      let db = Workloads.Bom.generate params in
      let ast = Xnf.Xnf_parser.parse Workloads.Bom.assembly_query in
      let fixpoint =
        Xnf.Hetstream.counts (Xnf.Xnf_compile.run db Workloads.Bom.assembly_query)
      in
      let nav = (Xnf.Navigational.extract ~mode:`Prepared db ast).Xnf.Navigational.counts in
      List.sort compare fixpoint = List.sort compare nav)

(** A recursive CO served from the result cache, or patched after a
    value-only commit, is byte-identical to a fresh fixpoint and agrees
    with the navigational walk, after random histories of [pname] and
    [level] updates and [contains] inserts and deletes, some rolled
    back, some read inside the open transaction. *)
let prop_recursive_cache_agrees =
  QCheck.Test.make ~name:"cached recursive CO = fresh fixpoint = walk" ~count:15
    (QCheck.make
       ~print:(fun ((p : Workloads.Bom.params), h) ->
         Printf.sprintf "asm=%d levels=%d k=%d seed=%d history=%d"
           p.Workloads.Bom.n_assemblies p.Workloads.Bom.levels
           p.Workloads.Bom.children_per_part p.Workloads.Bom.seed h)
       QCheck.Gen.(pair bom_params_gen (int_range 0 10_000)))
    (fun (params, history) ->
      let module XC = Xnf.Xnf_compile in
      (* the patch path needs a delta log: pin its capacity *)
      Helpers.with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
      Helpers.with_result_cache @@ fun () ->
      let db = Workloads.Bom.generate params in
      let ast = Xnf.Xnf_parser.parse Workloads.Bom.assembly_query in
      let c = XC.compile db Workloads.Bom.assembly_query in
      let rng = Random.State.make [| history |] in
      let pids () =
        Array.of_list
          (List.map
             (fun (r : Tuple.t) -> Value.as_int r.(0))
             (snd (Engine.Database.query db "SELECT pid FROM part")))
      in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let random_dml () =
        let p = pids () in
        match Random.State.int rng 8 with
        | 0 | 1 | 2 | 3 ->
          Printf.sprintf "UPDATE part SET pname = 'n%d' WHERE pid = %d"
            (Random.State.int rng 1000) (pick p)
        | 4 ->
          Printf.sprintf "UPDATE part SET level = %d WHERE pid = %d"
            (Random.State.int rng 3) (pick p)
        | 5 | 6 ->
          Printf.sprintf "INSERT INTO contains VALUES (%d, %d, 1)" (pick p)
            (pick p)
        | _ ->
          Printf.sprintf "DELETE FROM contains WHERE parent = %d" (pick p)
      in
      let agrees () =
        let warm = XC.extract c in
        Xnf.Hetstream.equal warm (XC.extract ~cache:false c)
        && List.sort compare (Xnf.Hetstream.counts warm)
           = List.sort compare
               (Xnf.Navigational.extract ~mode:`Prepared db ast)
                 .Xnf.Navigational.counts
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 8 do
        let txn = Random.State.int rng 3 in
        if txn > 0 then ignore (Engine.Database.exec db "BEGIN");
        for _ = 1 to 1 + Random.State.int rng 3 do
          ignore (Engine.Database.exec db (random_dml ()))
        done;
        if txn > 0 && Random.State.bool rng then ok := !ok && agrees ();
        if txn = 1 then ignore (Engine.Database.exec db "ROLLBACK")
        else if txn = 2 then ignore (Engine.Database.exec db "COMMIT");
        ok := !ok && agrees ()
      done;
      !ok)

(** Cache persistence roundtrips: save/load preserves structure. *)
let prop_persist_roundtrip =
  QCheck.Test.make ~name:"cache persist/load roundtrip" ~count:10 org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let ws =
        Cocache.Workspace.of_stream
          (Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query)
      in
      let file = Filename.temp_file "prop_cache" ".xnf" in
      Cocache.Persist.save ws file;
      let ws' = Cocache.Persist.load file in
      Sys.remove file;
      Cocache.Workspace.size ws = Cocache.Workspace.size ws'
      && Cocache.Workspace.connection_count ws
         = Cocache.Workspace.connection_count ws')

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_value_compare_total_order;
      prop_value_hash_respects_equal;
      prop_like_matches_reference;
      prop_heap_model;
      prop_vec_model;
      prop_tuple_compare_consistent;
      prop_strategies_agree;
      prop_ablations_preserve_semantics;
      prop_stream_roundtrip;
      prop_connections_resolve;
      prop_recursive_agrees_with_navigational;
      prop_recursive_cache_agrees;
      prop_persist_roundtrip;
    ]

(** The parser must never crash with anything but a [Db_error] on
    arbitrary input. *)
let prop_parser_total =
  let token_gen =
    QCheck.Gen.(
      oneofl
        [
          "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "("; ")"; ","; "*";
          "="; "<"; "3"; "'s'"; "t"; "a"; "GROUP"; "BY"; "EXISTS"; "IN";
          "OUT"; "OF"; "RELATE"; "VIA"; "TAKE"; "USING"; ";"; "."; "INSERT";
          "UPDATE"; "NULL"; "LIKE"; "BETWEEN"; "AS"; "ORDER"; "LIMIT";
        ])
  in
  let input_gen =
    QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 25) token_gen))
  in
  QCheck.Test.make ~name:"parser totality (Db_error only)" ~count:2000
    (QCheck.make ~print:Fun.id input_gen)
    (fun src ->
      (try ignore (Sqlkit.Parser.parse_stmt src)
       with Relcore.Errors.Db_error _ -> ());
      (try ignore (Xnf.Xnf_parser.parse src)
       with Relcore.Errors.Db_error _ -> ());
      true)

(** DML through a view component must match updating the base table
    directly. *)
let prop_component_dml_equiv =
  QCheck.Test.make ~name:"DML on view.component = DML on base (ARC rows)"
    ~count:15 org_params_arb
    (fun params ->
      let db1 = Workloads.Org.generate params in
      let db2 = Workloads.Org.generate params in
      ignore
        (Engine.Database.exec db1
           ("CREATE VIEW v AS " ^ Workloads.Org.deps_arc_query));
      ignore
        (Engine.Database.exec db1 "UPDATE v.xemp SET sal = sal + 7 WHERE sal > 80");
      (* equivalent direct statement: view predicate is TRUE for xemp
         (its table expression is SELECT * FROM EMP) *)
      ignore
        (Engine.Database.exec db2 "UPDATE emp SET sal = sal + 7 WHERE sal > 80");
      let q = "SELECT eno, sal FROM emp ORDER BY eno" in
      Engine.Database.query_rows db1 q = Engine.Database.query_rows db2 q)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_parser_total; prop_component_dml_equiv ]

(** SQL over a composed component must agree with the extraction: the
    component table seen through view.component has exactly the rows the
    heterogeneous stream ships. *)
let prop_composition_agrees_with_extraction =
  QCheck.Test.make ~name:"SELECT FROM view.component = extraction rows"
    ~count:15 org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      ignore
        (Engine.Database.exec db
           ("CREATE VIEW v AS " ^ Workloads.Org.deps_arc_query));
      let stream = Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query in
      List.for_all
        (fun comp ->
          let info = Xnf.Hetstream.find_comp stream.Xnf.Hetstream.header comp in
          let shipped =
            List.filter_map
              (function
                | Xnf.Hetstream.Row { comp = c; values; _ }
                  when c = info.Xnf.Hetstream.comp_no ->
                  Some values
                | _ -> None)
              stream.Xnf.Hetstream.items
            |> List.sort Tuple.compare
          in
          let queried =
            Engine.Database.query_rows db
              (Printf.sprintf "SELECT * FROM v.%s" comp)
            |> List.sort Tuple.compare
          in
          shipped = queried)
        [ "xdept"; "xemp"; "xproj"; "xskills" ])

(** Path expressions must agree with manual pointer navigation. *)
let prop_path_agrees_with_navigation =
  QCheck.Test.make ~name:"path expression = manual navigation" ~count:15
    org_params_arb
    (fun params ->
      let db = Workloads.Org.generate params in
      let ws =
        Cocache.Workspace.of_stream
          (Xnf.Xnf_compile.run db Workloads.Org.deps_arc_query)
      in
      let by_path =
        Cocache.Path.eval ws "xdept.employment.xemp.empproperty.xskills"
        |> List.map (fun (n : Cocache.Conode.t) -> n.Cocache.Conode.id)
        |> List.sort_uniq compare
      in
      let manual =
        Cocache.Workspace.nodes ws "xdept"
        |> List.concat_map (fun d -> Cocache.Conode.children d ~rel:"employment")
        |> List.concat_map (fun e -> Cocache.Conode.children e ~rel:"empproperty")
        |> List.map (fun (n : Cocache.Conode.t) -> n.Cocache.Conode.id)
        |> List.sort_uniq compare
      in
      by_path = manual)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_composition_agrees_with_extraction; prop_path_agrees_with_navigation ]

(** Planner NDV: a column that is the whole key of an index reads the
    index's maintained key count, any other column a version-keyed scan.
    Both must equal a fresh distinct count (NULL once) after every step
    of a DML history, including inside a transaction that is rolled
    back and after a truncate. *)
type ndv_op =
  | N_ins of int * int option * string option * int option
  | N_set_id of int * int (* unique primary key *)
  | N_set_a of int * int option (* non-unique int index, rows id >= k *)
  | N_set_s of int * string option (* non-unique string index *)
  | N_set_u of int * int option (* unindexed *)
  | N_del of int
  | N_del_a of int option
  | N_rollback of ndv_op list
  | N_truncate

let ndv_sql_int = function None -> "NULL" | Some i -> string_of_int i
let ndv_sql_str = function None -> "NULL" | Some s -> Printf.sprintf "'%s'" s

let ndv_sql = function
  | N_ins (id, a, s, u) ->
    Printf.sprintf "INSERT INTO p VALUES (%d, %s, %s, %s)" id (ndv_sql_int a)
      (ndv_sql_str s) (ndv_sql_int u)
  | N_set_id (k, v) -> Printf.sprintf "UPDATE p SET id = %d WHERE id = %d" v k
  | N_set_a (k, v) -> Printf.sprintf "UPDATE p SET a = %s WHERE id >= %d" (ndv_sql_int v) k
  | N_set_s (k, v) -> Printf.sprintf "UPDATE p SET s = %s WHERE id = %d" (ndv_sql_str v) k
  | N_set_u (k, v) -> Printf.sprintf "UPDATE p SET u = %s WHERE id <= %d" (ndv_sql_int v) k
  | N_del k -> Printf.sprintf "DELETE FROM p WHERE id = %d" k
  | N_del_a None -> "DELETE FROM p WHERE a IS NULL"
  | N_del_a (Some a) -> Printf.sprintf "DELETE FROM p WHERE a = %d" a
  | N_rollback _ | N_truncate -> invalid_arg "ndv_sql"

let ndv_ops_gen =
  QCheck.Gen.(
    let id = int_range 0 15 in
    let a = opt ~ratio:0.8 (int_range 0 4) in
    let s = opt ~ratio:0.8 (oneofl [ "x"; "y"; "z"; "" ]) in
    let u = opt ~ratio:0.8 (int_range 0 5) in
    let dml =
      frequency
        [
          (6, map (fun (i, (a, s, u)) -> N_ins (i, a, s, u)) (pair id (triple a s u)));
          (1, map2 (fun k v -> N_set_id (k, v)) id id);
          (2, map2 (fun k v -> N_set_a (k, v)) id a);
          (2, map2 (fun k v -> N_set_s (k, v)) id s);
          (2, map2 (fun k v -> N_set_u (k, v)) id u);
          (2, map (fun k -> N_del k) id);
          (1, map (fun v -> N_del_a v) a);
        ]
    in
    list_size (int_range 0 40)
      (frequency
         [
           (12, dml);
           (1, map (fun ops -> N_rollback ops) (list_size (int_range 1 6) dml));
           (1, return N_truncate);
         ]))

let rec ndv_print = function
  | N_rollback ops -> "BEGIN; " ^ String.concat "; " (List.map ndv_print ops) ^ "; ROLLBACK"
  | N_truncate -> "(Base_table.truncate p)"
  | op -> ndv_sql op

let prop_index_ndv_matches_scan =
  QCheck.Test.make ~name:"index NDV = scan NDV under DML" ~count:200
    (QCheck.make ~print:(fun ops -> String.concat ";\n" (List.map ndv_print ops)) ndv_ops_gen)
    (fun ops ->
      let db = Engine.Database.create () in
      ignore
        (Engine.Database.exec_script db
           "CREATE TABLE p (id INT NOT NULL, a INT, s STRING, u INT, PRIMARY KEY (id));\n\
            CREATE INDEX p_a ON p (a); CREATE INDEX p_s ON p (s)");
      let t = Engine.Database.find_table db "p" in
      let agrees () =
        List.for_all
          (fun col ->
            let scan =
              Base_table.fold (fun acc _ tup -> tup.(col) :: acc) [] t
              |> List.sort_uniq Value.compare |> List.length
            in
            Optimizer.Stats.column_ndv t col = scan)
          [ 0; 1; 2; 3 ]
      in
      let exec op =
        try ignore (Engine.Database.exec db (ndv_sql op))
        with Errors.Db_error (Errors.Constraint_error, _) -> () (* duplicate key *)
      in
      (* indexed columns really take the index path; [u] the scan *)
      List.for_all (fun c -> Base_table.index_on t [| c |] <> None) [ 0; 1; 2 ]
      && Base_table.index_on t [| 3 |] = None
      && List.for_all
           (fun op ->
             match op with
             | N_truncate ->
               Base_table.truncate t;
               agrees ()
             | N_rollback body ->
               ignore (Engine.Database.exec db "BEGIN");
               let inside = List.for_all (fun op -> exec op; agrees ()) body in
               ignore (Engine.Database.exec db "ROLLBACK");
               inside && agrees ()
             | op ->
               exec op;
               agrees ())
           ops)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_index_ndv_matches_scan ]

(* -- span-probed assembly = the Tuple.Tbl reference ------------------- *)

let assemble_query =
  "OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),\n\
  \       xemp AS EMP,\n\
  \       xproj AS PROJ,\n\
  \       xskills AS SKILLS,\n\
  \       employment AS (RELATE xdept VIA EMPLOYS, xemp\n\
  \                      WHERE xdept.dno = xemp.edno),\n\
  \       staffing AS (RELATE xdept VIA STAFFS, xemp, xproj\n\
  \                    USING EMPSKILLS es, PROJSKILLS ps\n\
  \                    WHERE xdept.dno = xemp.edno AND xdept.dno = xproj.pdno\n\
  \                    AND xemp.eno = es.eseno AND xproj.pno = ps.pspno\n\
  \                    AND es.essno = ps.pssno),\n\
  \       empproperty AS (RELATE xemp VIA POSSESSES, xskills\n\
  \                       USING EMPSKILLS es WITH (es.essno AS sk)\n\
  \                       WHERE xemp.eno = es.eseno AND es.essno = xskills.sno)\n\
   TAKE xdept(dname), xemp, xproj(pname, pno), employment, staffing, empproperty"

(* Per-output batches for [c]'s layout, drawn from a small value pool so
   node rows repeat (also as Int vs integral Float and as the colliding
   strings).  Relationship rows copy each partner's span from a node row,
   either sharing its boxes or as fresh equal boxes; some connections
   repeat, and now and then a partner is missing from its component. *)
let gen_assembly_batches (c : Xnf.Xnf_compile.compiled) seed :
    (string * Batch.t list) list =
  let module R = Xnf.Xnf_rewrite in
  let rs = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let chance p = Random.State.float rs 1.0 < p in
  let s1, s2 = Lazy.force Helpers.colliding_strings in
  let pool =
    [|
      Value.Null; Value.Bool true; Value.Int 0; Value.Int 1; Value.Int 3;
      Value.Float 3.0; Value.Float 0.5; Value.Float Float.nan;
      Value.Float 0x1p62; Value.Str "a"; Value.Str s1; Value.Str s2;
    |]
  in
  (* an equal value in a freshly allocated box, numbers at times as the
     other numeric kind *)
  let fresh_box (v : Value.t) : Value.t =
    match v with
    | Value.Int i when chance 0.5 -> Value.Float (float_of_int i)
    | Value.Int i -> Value.Int i
    | Value.Float f -> (
      match Value.int_key_of_float f with
      | Some i when chance 0.5 -> Value.Int i
      | _ -> Value.Float f)
    | Value.Str s -> Value.Str (Bytes.to_string (Bytes.of_string s))
    | Value.Bool b -> Value.Bool b
    | Value.Null -> Value.Null
  in
  let batches rows =
    Batch.of_list ~capacity:(1 + Random.State.int rs 4) (List.rev rows)
  in
  let node_rows =
    List.map
      (fun (n : R.node_output) ->
        let name = n.R.no_name in
        let w =
          Schema.arity
            (List.assoc name c.Xnf.Xnf_compile.plans).Optimizer.Plan.out_schema
        in
        let rows = ref [] in
        for _ = 1 to Random.State.int rs 10 do
          let row =
            match !rows with
            | _ :: _ when chance 0.3 ->
              (* a previous row again, or one differing in one position *)
              let twin = Array.map fresh_box (pick (Array.of_list !rows)) in
              if chance 0.5 then twin.(Random.State.int rs w) <- pick pool;
              twin
            | _ -> Array.init w (fun _ -> pick pool)
          in
          rows := row :: !rows
        done;
        (name, !rows))
      c.Xnf.Xnf_compile.rewritten.R.node_outputs
  in
  let rel_rows =
    List.filter_map
      (fun (ro : R.rel_output) ->
        let partners =
          (ro.R.ro_parent, ro.R.ro_parent_span) :: ro.R.ro_child_spans
        in
        let width =
          List.fold_left
            (fun acc (_, (off, w)) -> max acc (off + w))
            (fst ro.R.ro_attr_span + snd ro.R.ro_attr_span)
            partners
        in
        if List.exists (fun (comp, _) -> List.assoc comp node_rows = []) partners
        then None
        else begin
          let rows = ref [] in
          for _ = 1 to Random.State.int rs 14 do
            let row =
              match !rows with
              | _ :: _ when chance 0.25 ->
                (* a repeated connection, possibly with other attrs *)
                let r = Array.copy (pick (Array.of_list !rows)) in
                let off, w = ro.R.ro_attr_span in
                for i = off to off + w - 1 do
                  r.(i) <- pick pool
                done;
                r
              | _ ->
                let r = Array.init width (fun _ -> pick pool) in
                List.iter
                  (fun (comp, (off, w)) ->
                    let src = pick (Array.of_list (List.assoc comp node_rows)) in
                    let shared = chance 0.5 in
                    for i = 0 to w - 1 do
                      r.(off + i) <- (if shared then src.(i) else fresh_box src.(i))
                    done;
                    if chance 0.02 then r.(off) <- Value.Str "missing")
                  partners;
                r
            in
            rows := row :: !rows
          done;
          Some (ro.R.ro_name, batches !rows)
        end)
      c.Xnf.Xnf_compile.rewritten.R.rel_outputs
  in
  List.map (fun (name, rows) -> (name, batches rows)) node_rows @ rel_rows

let prop_assemble_matches_reference =
  let c =
    lazy
      (Xnf.Xnf_compile.compile ~cache:false (Helpers.org_db ()) assemble_query)
  in
  QCheck.Test.make ~name:"span-probed assembly = Tuple.Tbl reference"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Lazy.force c in
      let outputs = gen_assembly_batches c seed in
      let batches_of name =
        Option.value (List.assoc_opt name outputs) ~default:[]
      in
      let run f =
        try Ok (f c batches_of)
        with Errors.Db_error (kind, _) -> Error (Errors.kind_to_string kind)
      in
      match
        (run Helpers.reference_assemble, run Xnf.Xnf_compile.assemble)
      with
      | Ok a, Ok b -> Xnf.Hetstream.equal a b
      | Error a, Error b -> a = b
      | Ok _, Error e | Error e, Ok _ ->
        QCheck.Test.fail_reportf "only one assembler failed: %s" e)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_assemble_matches_reference ]

(* -- workspace load against a list-based reference ------------------- *)

module Hs = Xnf.Hetstream
module C = Cocache.Conode
module Ws = Cocache.Workspace

(* A random stream that keeps the stream contract: one id per node and
   per connection, numbered from 1, and every partner inside its
   relationship's declared component.  Node components may be outside
   TAKE (their nodes appear only as partners), relationships name one to
   three children and may carry an attribute, and the items are shuffled
   so that partners are often named before their rows. *)
let load_stream_gen : Hs.t QCheck.Gen.t =
 fun st ->
  let int n = Random.State.int st n in
  let schema cols =
    Schema.make (List.map (fun c -> Schema.column c Dtype.Tint) cols)
  in
  let n_nodes = 1 + int 3 and n_rels = 1 + int 3 in
  let nodes =
    Array.init n_nodes (fun c ->
        {
          Hs.comp_no = c;
          comp_name = Printf.sprintf "n%d" c;
          comp_kind = `Node;
          comp_schema = schema [ "k" ];
          take_cols = None;
          in_take = c = 0 || Random.State.bool st;
        })
  in
  let parent = Array.init n_rels (fun _ -> int n_nodes) in
  let children = Array.init n_rels (fun _ -> Array.init (1 + int 3) (fun _ -> int n_nodes)) in
  let has_attr = Array.init n_rels (fun _ -> Random.State.bool st) in
  let rels =
    Array.init n_rels (fun r ->
        let name c = nodes.(c).Hs.comp_name in
        {
          Hs.comp_no = n_nodes + r;
          comp_name = Printf.sprintf "r%d" r;
          comp_kind =
            `Rel
              {
                Hs.rm_role = "R";
                rm_parent = name parent.(r);
                rm_children = Array.to_list (Array.map name children.(r));
              };
          comp_schema = schema (if has_attr.(r) then [ "w" ] else []);
          take_cols = None;
          in_take = true;
        })
  in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let members = Array.init n_nodes (fun _ -> Array.init (1 + int 6) (fun _ -> fresh ())) in
  let rows =
    List.concat
      (List.init n_nodes (fun c ->
           if not nodes.(c).Hs.in_take then []
           else
             Array.to_list
               (Array.map
                  (fun id -> Hs.Row { comp = c; id; values = [| Value.Int (int 100) |] })
                  members.(c))))
  in
  let pick c = members.(c).(int (Array.length members.(c))) in
  let conns =
    List.init (int 30) (fun _ ->
        let r = int n_rels in
        Hs.Conn
          {
            rel = n_nodes + r;
            id = fresh ();
            parent = pick parent.(r);
            children = Array.map pick children.(r);
            attrs = (if has_attr.(r) then [| Value.Int (int 9) |] else [||]);
          })
  in
  let items = Array.of_list (rows @ conns) in
  for i = Array.length items - 1 downto 1 do
    let j = int (i + 1) in
    let t = items.(i) in
    items.(i) <- items.(j);
    items.(j) <- t
  done;
  {
    Hs.header = { Hs.components = Array.append nodes rels; root_components = [ "n0" ] };
    items = Array.to_list items;
  }

let print_load_stream (s : Hs.t) =
  String.concat "; "
    (List.map
       (function
         | Hs.Row { comp; id; _ } -> Printf.sprintf "row n%d #%d" comp id
         | Hs.Conn { rel; id; parent; children; _ } ->
           Printf.sprintf "conn %d #%d %d->[%s]" rel id parent
             (String.concat "," (Array.to_list (Array.map string_of_int children))))
       s.Hs.items)

(* The load contract, list by list: a node per id, made at its first
   mention in the component that mentions it; its values from its row,
   if one arrives; its connections in arrival order, in [in_conns] once
   per child slot. *)
type ref_node = {
  r_comp : string;
  mutable r_values : Tuple.t option;
  mutable r_out : int list; (* connection ids, newest first *)
  mutable r_in : int list;
}

let reference_load (s : Hs.t) =
  let comps = s.Hs.header.Hs.components in
  let by_id = Hashtbl.create 16 and order = Hashtbl.create 8 in
  let conns = Hashtbl.create 16 in
  let mention comp id =
    match Hashtbl.find_opt by_id id with
    | Some n -> n
    | None ->
      let n = { r_comp = comp; r_values = None; r_out = []; r_in = [] } in
      Hashtbl.add by_id id n;
      Hashtbl.replace order comp
        (id :: Option.value (Hashtbl.find_opt order comp) ~default:[]);
      n
  in
  List.iter
    (function
      | Hs.Row { comp; id; values } ->
        (mention comps.(comp).Hs.comp_name id).r_values <- Some values
      | Hs.Conn { rel; id; parent; children; _ } ->
        let m =
          match comps.(rel).Hs.comp_kind with `Rel m -> m | `Node -> assert false
        in
        let p = mention m.Hs.rm_parent parent in
        p.r_out <- id :: p.r_out;
        Array.iteri
          (fun i c ->
            let n = mention (List.nth m.Hs.rm_children i) c in
            n.r_in <- id :: n.r_in)
          children;
        Hashtbl.add conns id (comps.(rel).Hs.comp_name, children))
    s.Hs.items;
  (by_id, (fun comp -> List.rev (Option.value (Hashtbl.find_opt order comp) ~default:[])), conns)

(* A workspace as positions: per node component, each live node's
   values, its out-connections (relationship, attributes, children as
   component and position) in order, and its in-connections as a sorted
   list (a save writes connections grouped by parent). *)
let canonical_graph ws =
  let pos = Hashtbl.create 64 in
  let names = Ws.node_component_names ws in
  List.iter
    (fun comp -> List.iteri (fun i (n : C.t) -> Hashtbl.replace pos n.C.id (comp, i)) (Ws.nodes ws comp))
    names;
  let at (n : C.t) = Hashtbl.find pos n.C.id in
  List.map
    (fun comp ->
      List.map
        (fun (n : C.t) ->
          ( n.C.values,
            Array.to_list
              (Array.map
                 (fun (c : C.conn) ->
                   (c.C.rel, c.C.attrs, Array.to_list (Array.map at c.C.children)))
                 n.C.out_conns),
            List.sort compare
              (Array.to_list (Array.map (fun (c : C.conn) -> (c.C.rel, at c.C.parent)) n.C.in_conns)) ))
        (Ws.nodes ws comp))
    names

let prop_load_matches_reference =
  QCheck.Test.make ~name:"workspace load = list-based reference" ~count:300
    (QCheck.make ~print:print_load_stream load_stream_gen)
    (fun s ->
      let ws = Ws.of_stream s in
      let by_id, order, conns = reference_load s in
      let ids = List.map (fun (n : C.t) -> n.C.id) in
      let conn_ids a = Array.to_list (Array.map (fun (c : C.conn) -> c.C.conn_id) a) in
      let rels = Ws.rel_component_names ws in
      let children_of out rel =
        List.concat_map
          (fun id ->
            let r, cs = Hashtbl.find conns id in
            if r = rel then Array.to_list cs else [])
          out
      in
      let node_ok id r =
        match Ws.find_by_id ws id with
        | None -> false
        | Some n ->
          n.C.id = id
          && n.C.comp = r.r_comp
          && conn_ids n.C.out_conns = List.rev r.r_out
          && conn_ids n.C.in_conns = List.rev r.r_in
          && Ws.is_stub ws n = (r.r_values = None)
          && (match r.r_values with Some v -> n.C.values == v | None -> true)
          && List.for_all
               (fun rel -> ids (C.children n ~rel) = children_of (List.rev r.r_out) rel)
               rels
      in
      let reloaded = Ws.of_stream (Cocache.Persist.stream_of_workspace ws) in
      List.for_all (fun comp -> ids (Ws.nodes ws comp) = order comp) (Ws.node_component_names ws)
      && Hashtbl.fold (fun id r ok -> ok && node_ok id r) by_id true
      && Ws.find_by_id ws 0 = None
      && Ws.find_by_id ws (Hs.total_items s + 1000) = None
      && Ws.connection_count ws = Hashtbl.length conns
      && Ws.connection_count reloaded = Ws.connection_count ws
      && canonical_graph reloaded = canonical_graph ws)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_load_matches_reference ]
