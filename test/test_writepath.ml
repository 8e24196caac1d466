(** Write-path tests: batched DML victim scans, MVCC-lite snapshot
    reconstruction ([Heap.frozen_at] / [Snapshot]), snapshot-isolated
    reads through the daemon (committed pre-images while a writer's
    transaction is open), group commit, and cocache flush coalescing of
    adjacent DELETEs and UPDATEs. *)

open Helpers
open Relcore
module Db = Engine.Database
module Exec = Executor.Exec
module H = Xnf.Hetstream
module Client = Net.Client
module Server = Net.Server
module Ws = Cocache.Workspace

let deps_arc_view = "CREATE VIEW deps_arc AS " ^ Workloads.Org.deps_arc_query

let deps_db () =
  let db = org_db () in
  ignore (Db.exec db deps_arc_view);
  db

let serialize_view db = H.serialize (Xnf.Xnf_compile.run_view db "deps_arc")

(* ------------------------------------------------- batched DML ---------- *)

let test_batched_dml () =
  let db = org_db () in
  let tbl = Catalog.find_table (Db.catalog db) "emp" in
  (match Db.exec db "UPDATE emp SET sal = sal + 1 WHERE sal >= 90" with
  | Db.Affected 3 -> ()
  | _ -> Alcotest.fail "batched UPDATE should affect 3 rows");
  check_rows "update applied"
    (rows_of_ints [ [ 101 ]; [ 91 ]; [ 121 ]; [ 80 ] ])
    (Db.query_rows db "SELECT sal FROM emp ORDER BY eno");
  (* autocommit published the new version *)
  Alcotest.(check int) "version published" (Base_table.version tbl)
    (Base_table.committed_version tbl);
  (match Db.exec db "DELETE FROM emp WHERE edno = 3" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "batched DELETE should affect 1 row");
  check_rows "delete applied" (rows_of_ints [ [ 10 ]; [ 11 ]; [ 12 ] ])
    (Db.query_rows db "SELECT eno FROM emp ORDER BY eno");
  Alcotest.(check int) "version published after delete"
    (Base_table.version tbl)
    (Base_table.committed_version tbl)

(* The victim scan visits rows in descending rid order; [SET k = k + 1]
   on a dense unique column then frees each key before the next row
   claims it, so the statement succeeds end to end.  Pins the historical
   fold order the batch layer must preserve. *)
let test_dml_victim_order () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE u (k INT NOT NULL, PRIMARY KEY (k))");
  ignore (Db.exec db "INSERT INTO u VALUES (1), (2), (3), (4), (5)");
  (match Db.exec db "UPDATE u SET k = k + 1" with
  | Db.Affected 5 -> ()
  | _ -> Alcotest.fail "shift should affect all 5 rows");
  check_rows "keys shifted"
    (rows_of_ints [ [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 6 ] ])
    (Db.query_rows db "SELECT k FROM u ORDER BY k")

(* ------------------------------------------- frozen_at / Snapshot ------- *)

let test_frozen_at () =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (k INT, v INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  let tbl = Catalog.find_table (Db.catalog db) "t" in
  let v0 = Base_table.committed_version tbl in
  (* churn: overwrite, tombstone, append *)
  ignore (Db.exec db "UPDATE t SET v = 99 WHERE k = 2");
  ignore (Db.exec db "DELETE FROM t WHERE k = 3");
  ignore (Db.exec db "INSERT INTO t VALUES (4, 40)");
  let rows_of arr =
    Array.to_list arr
    |> List.filter_map Fun.id
    |> List.sort Tuple.compare
  in
  (match Base_table.frozen_at tbl v0 with
  | Some arr ->
    check_rows "pre-image reconstructed"
      (List.map (fun (k, v) -> row [ vi k; vi v ]) [ (1, 10); (2, 20); (3, 30) ])
      (rows_of arr)
  | None -> Alcotest.fail "undo window should answer for v0");
  (match Base_table.frozen_at tbl (Base_table.committed_version tbl) with
  | Some arr ->
    check_rows "current version = live rows"
      (List.map (fun (k, v) -> row [ vi k; vi v ]) [ (1, 10); (2, 99); (4, 40) ])
      (rows_of arr)
  | None -> Alcotest.fail "current version must be answerable");
  (* a version pinned inside a rolled-back txn lands in the rewind hole *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE t SET v = 0 WHERE k = 1");
  let v_dirty = Base_table.version tbl in
  ignore (Db.exec db "ROLLBACK");
  Alcotest.(check bool) "rewind hole refused" true
    (Base_table.frozen_at tbl v_dirty = None);
  (* ... while the pre-txn snapshot stays maintainable, and the rewind
     discards only the rolled-back txn's entries, not the committed
     churn logged just before it *)
  match Base_table.frozen_at tbl v0 with
  | Some arr ->
    check_rows "pre-txn snapshot survives rollback"
      (List.map (fun (k, v) -> row [ vi k; vi v ]) [ (1, 10); (2, 20); (3, 30) ])
      (rows_of arr)
  | None -> Alcotest.fail "pre-txn snapshot should survive rollback"

let test_snapshot_extract_quiesced () =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = deps_db () in
  (* churn, all autocommitted *)
  ignore (Db.exec db "UPDATE emp SET sal = sal + 5 WHERE edno = 1");
  ignore (Db.exec db "DELETE FROM projskills WHERE pssno = 34");
  ignore (Db.exec db "INSERT INTO emp VALUES (14, 'eve', 70, 2)");
  let reference = serialize_view db in
  let s = Snapshot.pin (Db.catalog db) in
  Fun.protect
    ~finally:(fun () -> Snapshot.release s)
    (fun () ->
      let ctx =
        Exec.make_ctx ~result_cache:false ~snapshot:(Snapshot.rows s) ()
      in
      let snap =
        H.serialize (Xnf.Xnf_compile.run ~ctx db Workloads.Org.deps_arc_query)
      in
      Alcotest.(check string)
        "snapshot extraction byte-identical on a quiesced db" reference snap;
      let sql = "SELECT eno, sal FROM emp ORDER BY eno" in
      check_rows "snapshot SQL query identical"
        (Db.query_rows db sql)
        (Db.query_rows ~ctx db sql))

let test_snapshot_sees_committed_only () =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = deps_db () in
  let before = Db.query_rows db "SELECT sal FROM emp WHERE eno = 10" in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE emp SET sal = sal * 2 WHERE eno = 10");
  (* pin while the txn is open: only published state is visible *)
  let s = Snapshot.pin (Db.catalog db) in
  Fun.protect
    ~finally:(fun () -> Snapshot.release s)
    (fun () ->
      let ctx =
        Exec.make_ctx ~result_cache:false ~snapshot:(Snapshot.rows s) ()
      in
      check_rows "snapshot hides uncommitted update" before
        (Db.query_rows ~ctx db "SELECT sal FROM emp WHERE eno = 10"));
  ignore (Db.exec db "ROLLBACK");
  check_rows "rollback restores" before
    (Db.query_rows db "SELECT sal FROM emp WHERE eno = 10")

(* ------------------------------------------------- group commit --------- *)

let test_group_commit_unit () =
  let gc = Engine.Group_commit.create () in
  let m = Mutex.create () in
  let inside = ref 0 and peak = ref 0 and total = ref 0 in
  let exclusive f =
    Mutex.protect m (fun () ->
        incr inside;
        if !inside > !peak then peak := !inside;
        f ();
        decr inside)
  in
  let n = 6 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Engine.Group_commit.submit gc ~exclusive (fun () -> incr total)))
  in
  let batches_seen = List.map Domain.join domains in
  Alcotest.(check int) "every job ran exactly once" n !total;
  Alcotest.(check int) "exclusive sections never overlap" 1 !peak;
  List.iter
    (fun b -> Alcotest.(check bool) "batch size sane" true (b >= 1 && b <= n))
    batches_seen;
  let batches, committed, max_batch = Engine.Group_commit.stats gc in
  Alcotest.(check int) "all jobs committed" n committed;
  Alcotest.(check bool) "batches cover jobs" true (batches >= 1 && batches <= n);
  Alcotest.(check bool) "max batch sane" true (max_batch >= 1 && max_batch <= n);
  (* a job's own exception re-raises on its submitter, nobody else *)
  (match
     Engine.Group_commit.submit gc ~exclusive (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "job exception must re-raise"
  | exception Failure m -> Alcotest.(check string) "same exn" "boom" m);
  Alcotest.(check int) "failed job still drained" (n + 1)
    (let _, c, _ = Engine.Group_commit.stats gc in
     c)

(* ------------------------------------------- flush coalescing ----------- *)

let deps_arc_text = Workloads.Org.deps_arc_query

let load_workspace db = Ws.of_stream (Xnf.Xnf_compile.run db deps_arc_text)

let node_named ws comp col name =
  List.find
    (fun n -> Value.to_string (Ws.get ws n col) = name)
    (Ws.nodes ws comp)

let test_flush_coalesces_deletes () =
  let db = org_db () in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let ws = load_workspace db in
  Ws.delete ws (node_named ws "xemp" "ename" "ben");
  Ws.delete ws (node_named ws "xemp" "ename" "carol");
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check int) "two deletes ride one statement" 1 (List.length sqls);
  check_rows "both rows gone, others intact" (rows_of_ints [ [ 10 ]; [ 13 ] ])
    (Db.query_rows db "SELECT eno FROM emp ORDER BY eno")

let test_flush_coalesces_updates () =
  let db = org_db () in
  let ast = Xnf.Xnf_parser.parse deps_arc_text in
  let ws = load_workspace db in
  (* identical constant SET on two nodes: guarded OR-merge *)
  Ws.update ws (node_named ws "xemp" "ename" "anna") [ ("sal", vi 200) ];
  Ws.update ws (node_named ws "xemp" "ename" "ben") [ ("sal", vi 200) ];
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check int) "two updates ride one statement" 1 (List.length sqls);
  check_rows "both updated"
    (rows_of_ints [ [ 200 ]; [ 200 ]; [ 120 ]; [ 80 ] ])
    (Db.query_rows db "SELECT sal FROM emp ORDER BY eno");
  (* different SET values must NOT merge *)
  let ws = load_workspace db in
  Ws.update ws (node_named ws "xemp" "ename" "anna") [ ("sal", vi 300) ];
  Ws.update ws (node_named ws "xemp" "ename" "ben") [ ("sal", vi 301) ];
  let sqls = Cocache.Update.flush db ast ws in
  Alcotest.(check int) "distinct sets stay separate" 2 (List.length sqls);
  check_rows "applied independently"
    (rows_of_ints [ [ 300 ]; [ 301 ] ])
    (Db.query_rows db "SELECT sal FROM emp WHERE eno <= 11 ORDER BY eno")

(* ------------------------------------------- daemon: snapshot reads ----- *)

let test_server_snapshot_read () =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  Test_net.with_server ~setup:Test_net.org_setup (fun addr _db t ->
      let reference = serialize_view (deps_db ()) in
      let writer = Client.connect addr in
      let reader = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close writer;
          Client.close reader)
        (fun () ->
          ignore (Client.exec writer "BEGIN");
          ignore (Client.exec writer "UPDATE emp SET sal = sal * 2 WHERE eno = 10");
          (* another session's open txn: the reader must see committed
             pre-images, served lock-free off a snapshot *)
          check_rows "reader sees committed value"
            (rows_of_ints [ [ 100 ] ])
            (Client.query_rows reader "SELECT sal FROM emp WHERE eno = 10");
          Alcotest.(check bool) "stream byte-identical to pre-txn state" true
            (H.serialize (Client.extract reader "deps_arc") = reference);
          let c = Server.counters t in
          Alcotest.(check bool) "snapshot path engaged" true
            (c.Server.snap_reads >= 1);
          ignore (Client.exec writer "ROLLBACK");
          check_rows "after rollback everyone agrees"
            (rows_of_ints [ [ 100 ] ])
            (Client.query_rows reader "SELECT sal FROM emp WHERE eno = 10");
          Alcotest.(check bool) "stream back to reference" true
            (H.serialize (Client.extract reader "deps_arc") = reference);
          let text = Client.stats reader in
          Alcotest.(check bool) "stats mention snapshot" true
            (contains ~affix:"snapshot" text);
          Alcotest.(check bool) "stats mention group commit" true
            (contains ~affix:"group commit" text)))

(* Randomized soak: one writer races DML (committed and rolled back)
   against extracting readers; every stream a reader ever observes must
   be byte-identical to SOME committed state — never a torn or dirty
   cut.  The committed states are generated on a reference database
   BEFORE the server applies them, so the server can only lag the
   reference list. *)
let test_server_soak () =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  Test_net.with_server ~setup:Test_net.org_setup (fun addr _db t ->
      let refdb = deps_db () in
      let refs_mu = Mutex.create () in
      let refs = ref [ serialize_view refdb ] in
      let stop = Atomic.make false in
      let writer () =
        let cl = Client.connect addr in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Client.close cl)
          (fun () ->
            for r = 1 to 12 do
              if r mod 3 = 0 then begin
                (* rolled back: must never be observed *)
                ignore (Client.exec cl "BEGIN");
                ignore
                  (Client.exec cl
                     "UPDATE emp SET sal = sal + 1000 WHERE edno = 1");
                ignore (Client.exec cl "ROLLBACK")
              end
              else begin
                let sql =
                  Printf.sprintf
                    "UPDATE emp SET sal = sal + 7 WHERE edno = %d"
                    ((r mod 2) + 1)
                in
                (* reference first: server state always lags [refs] *)
                ignore (Db.exec refdb sql);
                let snap = serialize_view refdb in
                Mutex.protect refs_mu (fun () -> refs := snap :: !refs);
                ignore (Client.exec cl "BEGIN");
                ignore (Client.exec cl sql);
                ignore (Client.exec cl "COMMIT")
              end
            done;
            Ok 0)
      in
      let reader i () =
        try
          let cl = Client.connect ~client_name:(Printf.sprintf "r%d" i) addr in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              let n = ref 0 in
              while (not (Atomic.get stop)) && !n < 200 do
                incr n;
                let s = H.serialize (Client.extract cl "deps_arc") in
                let known =
                  Mutex.protect refs_mu (fun () -> List.mem s !refs)
                in
                if not known then
                  failwith
                    (Printf.sprintf "r%d: observed a non-committed state" i)
              done;
              Ok !n)
        with e -> Stdlib.Error (Printexc.to_string e)
      in
      let domains =
        Domain.spawn writer :: List.init 3 (fun i -> Domain.spawn (reader i))
      in
      let results = List.map Domain.join domains in
      List.iter
        (function
          | Ok _ -> ()
          | Stdlib.Error m -> Alcotest.failf "soak worker failed: %s" m)
        results;
      (* quiesced: the server converged on the last committed state *)
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          Alcotest.(check bool) "final state = last reference" true
            (H.serialize (Client.extract cl "deps_arc")
            = List.hd !refs));
      let c = Server.counters t in
      Alcotest.(check bool) "no protocol errors" true (c.Server.errors = 0);
      Alcotest.(check bool) "group commit drained the COMMITs" true
        (c.Server.gc_commits >= 8))

(* Autocommit DML plus an explicit COMMIT and a ROLLBACK through the
   daemon produce byte-identical results to the same script run
   embedded; the explicit COMMIT drains through group commit. *)
let test_server_autocommit () =
  Test_net.with_server ~setup:Test_net.org_setup (fun addr _db t ->
      let refdb = deps_db () in
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          List.iter
            (fun sql ->
              ignore (Db.exec refdb sql);
              ignore (Client.exec cl sql))
            [
              "UPDATE emp SET sal = sal + 3 WHERE edno = 1";
              "DELETE FROM projskills WHERE pssno = 34";
              "INSERT INTO emp VALUES (15, 'fred', 75, 2)";
            ];
          ignore (Client.exec cl "BEGIN");
          ignore (Client.exec cl "UPDATE emp SET sal = sal - 2 WHERE eno = 15");
          ignore (Client.exec cl "COMMIT");
          ignore (Db.exec refdb "UPDATE emp SET sal = sal - 2 WHERE eno = 15");
          ignore (Client.exec cl "BEGIN");
          ignore (Client.exec cl "UPDATE emp SET sal = 1 WHERE eno = 15");
          ignore (Client.exec cl "ROLLBACK");
          Alcotest.(check bool) "daemon byte-identical" true
            (H.serialize (Client.extract cl "deps_arc")
            = serialize_view refdb);
          let c = Server.counters t in
          Alcotest.(check bool) "the COMMIT took group commit" true
            (c.Server.gc_commits >= 1)))

let suite =
  [
    Alcotest.test_case "batched UPDATE/DELETE" `Quick test_batched_dml;
    Alcotest.test_case "victim scan order" `Quick test_dml_victim_order;
    Alcotest.test_case "frozen_at reconstruction" `Quick test_frozen_at;
    Alcotest.test_case "snapshot extract quiesced" `Quick
      test_snapshot_extract_quiesced;
    Alcotest.test_case "snapshot hides uncommitted" `Quick
      test_snapshot_sees_committed_only;
    Alcotest.test_case "group commit unit" `Quick test_group_commit_unit;
    Alcotest.test_case "flush coalesces deletes" `Quick
      test_flush_coalesces_deletes;
    Alcotest.test_case "flush coalesces updates" `Quick
      test_flush_coalesces_updates;
    Alcotest.test_case "daemon: snapshot read" `Quick test_server_snapshot_read;
    Alcotest.test_case "daemon: mixed r/w soak" `Quick test_server_soak;
    Alcotest.test_case "daemon: autocommit + COMMIT/ROLLBACK" `Quick
      test_server_autocommit;
  ]
