(** Cached CO streams across DML ({!Xnf.Xnf_ivm}): the per-table row
    delta log, transactional publish/discard, the value-only patch and
    the recompute fallback, and a randomized DML soak over every
    workload generator.  Correctness bar throughout: a cached stream
    must be byte-identical ([Hetstream.equal]) to a cold recomputation,
    whatever interleaving of inserts, updates, deletes, and rolled-back
    transactions came before it. *)

open Helpers
module Db = Engine.Database
module RC = Executor.Result_cache
module H = Xnf.Hetstream
module XC = Xnf.Xnf_compile
module Ivm = Xnf.Xnf_ivm
module BT = Relcore.Base_table
module Schema = Relcore.Schema
module Dtype = Relcore.Dtype
module Value = Relcore.Value

(* ---- delta log -------------------------------------------------------- *)

let two_int_table () =
  BT.create ~name:"t"
    (Schema.make
       [
         Schema.column ~nullable:false "id" Dtype.Tint;
         Schema.column "v" Dtype.Tint;
       ])

let test_delta_log_records () =
  (* the premise needs a delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let t = two_int_table () in
  let v0 = BT.version t in
  let rid = BT.insert t [| Value.Int 1; Value.Int 10 |] in
  let n_since v =
    match BT.deltas_since t v with
    | None -> Alcotest.fail "delta log unexpectedly overflowed"
    | Some ops -> List.length ops
  in
  Alcotest.(check int) "insert logs one op" 1 (n_since v0);
  BT.update t rid [| Value.Int 1; Value.Int 11 |];
  (* an update is a retire + a re-insert at the same version *)
  Alcotest.(check int) "update logs two ops" 3 (n_since v0);
  BT.delete t rid;
  Alcotest.(check int) "delete logs one op" 4 (n_since v0);
  Alcotest.(check int) "current version has no pending deltas" 0
    (n_since (BT.version t));
  (* ops replay in version order *)
  let versions =
    match BT.deltas_since t v0 with
    | None -> []
    | Some ops -> List.map fst ops
  in
  Alcotest.(check bool) "ops sorted by version" true
    (versions = List.sort compare versions)

let test_delta_log_overflow () =
  with_env "XNFDB_DELTA_LOG" "4" @@ fun () ->
  let t = two_int_table () in
  let v0 = BT.version t in
  for i = 1 to 10 do
    ignore (BT.insert t [| Value.Int i; Value.Int i |])
  done;
  Alcotest.(check bool) "overflow forgets old snapshots" true
    (BT.deltas_since t v0 = None);
  (* the log recovers for snapshots taken after the overflow *)
  let v1 = BT.version t in
  ignore (BT.insert t [| Value.Int 99; Value.Int 99 |]);
  Alcotest.(check bool) "post-overflow snapshot is maintainable" true
    (match BT.deltas_since t v1 with Some [ _ ] -> true | _ -> false)

let test_truncate_floors_log () =
  let t = two_int_table () in
  ignore (BT.insert t [| Value.Int 1; Value.Int 1 |]);
  let v0 = BT.version t in
  BT.truncate t;
  Alcotest.(check bool) "pre-truncate snapshots are beyond repair" true
    (BT.deltas_since t v0 = None)

let test_rewind_hole () =
  (* the premise needs a delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let t = two_int_table () in
  ignore (BT.insert t [| Value.Int 1; Value.Int 1 |]);
  let v_keep = BT.version t in
  let mark = BT.delta_mark t in
  ignore (BT.insert t [| Value.Int 2; Value.Int 2 |]);
  let v_inside = BT.version t in
  BT.delta_rewind t mark;
  Alcotest.(check bool) "snapshot at the mark stays maintainable" true
    (BT.deltas_since t v_keep = Some []);
  Alcotest.(check bool) "snapshot inside the rewound range is refused" true
    (BT.deltas_since t v_inside = None)

let test_rollback_discards_deltas () =
  (* pin the log capacity: the assertions below expect the txn's entries
     to fit without overflow *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = org_db () in
  let emp = Relcore.Catalog.find_table (Db.catalog db) "emp" in
  let v0 = BT.version emp in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO emp VALUES (99, 'zed', 50, 1)");
  ignore (Db.exec db "UPDATE emp SET sal = 51 WHERE eno = 99");
  ignore (Db.exec db "ROLLBACK");
  (* versions advance past the txn, but the published delta is empty *)
  Alcotest.(check bool) "rollback bumps the version" true
    (BT.version emp > v0);
  Alcotest.(check bool) "rollback publishes no deltas" true
    (BT.deltas_since emp v0 = Some []);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO emp VALUES (99, 'zed', 50, 1)");
  ignore (Db.exec db "COMMIT");
  Alcotest.(check bool) "commit publishes the txn's deltas" true
    (match BT.deltas_since emp v0 with
    | Some (_ :: _) -> true
    | _ -> false)

(* A transaction whose first write lands exactly on the log-overflow
   boundary records a stale (even negative) rewind mark; ROLLBACK must
   survive it and readers of pre-overflow snapshots must be refused,
   not crashed or served wrong deltas.  The parity loop makes sure some
   iteration hits the boundary whatever the post-generation log fill. *)
let test_rollback_overflow_boundary () =
  with_env "XNFDB_DELTA_LOG" "4" @@ fun () ->
  let db = org_db () in
  let emp = Relcore.Catalog.find_table (Db.catalog db) "emp" in
  let salaries () =
    Db.query db "SELECT eno, sal FROM emp ORDER BY eno"
  in
  let before = salaries () in
  for i = 0 to 5 do
    if i mod 2 = 1 then begin
      ignore (Db.exec db (Printf.sprintf
        "INSERT INTO emp VALUES (%d, 'tmp', 1, 1)" (900 + i)));
      ignore (Db.exec db (Printf.sprintf
        "DELETE FROM emp WHERE eno = %d" (900 + i)))
    end;
    ignore (Db.exec db "BEGIN");
    ignore (Db.exec db "UPDATE emp SET sal = sal + 7 WHERE eno = 1");
    ignore (Db.exec db "ROLLBACK")
  done;
  Alcotest.(check bool) "rolled-back txns left no trace" true
    (salaries () = before);
  (* a snapshot at the current version is always answerable *)
  Alcotest.(check bool) "current snapshot still answerable" true
    (BT.deltas_since emp (BT.version emp) = Some [])

(* ---- randomized DML soak ---------------------------------------------- *)

(* Render a fresh SQL row literal for [sch]; int and string values come
   from a monotonic counter so generated keys never collide. *)
let fresh = ref 5_000_000

let fresh_row sch =
  Schema.columns sch
  |> List.map (fun (c : Schema.column) ->
         incr fresh;
         match c.Schema.dtype with
         | Dtype.Tint -> string_of_int !fresh
         | Dtype.Tstr -> Printf.sprintf "'zz%d'" !fresh
         | Dtype.Tfloat -> Printf.sprintf "%d.5" (!fresh mod 1000)
         | Dtype.Tbool -> "TRUE")
  |> String.concat ", "

let value_lit = function
  | Value.Int i -> string_of_int i
  | Value.Str s ->
    "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Value.Float f -> Printf.sprintf "%.6f" f
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Null -> "NULL"

(* One random DML statement against [t]: an insert of a fresh row, or
   an update/delete keyed on the first column of an existing row (the
   workload schemas all lead with an int key). *)
let random_dml rng (t : BT.t) =
  let sch = BT.schema t in
  let name = BT.name t in
  let pick_row () =
    let rows = BT.to_list t in
    match rows with
    | [] -> None
    | _ -> Some (snd (List.nth rows (Random.State.int rng (List.length rows))))
  in
  match Random.State.int rng 3 with
  | 0 -> Printf.sprintf "INSERT INTO %s VALUES (%s)" name (fresh_row sch)
  | 1 -> (
    (* update a random int column of a random row *)
    match pick_row () with
    | None -> Printf.sprintf "INSERT INTO %s VALUES (%s)" name (fresh_row sch)
    | Some row ->
      let cols = Array.of_list (Schema.columns sch) in
      let ints =
        Array.to_list cols
        |> List.filteri (fun i _ -> i > 0)
        |> List.filter (fun (c : Schema.column) -> c.Schema.dtype = Dtype.Tint)
      in
      (match ints with
      | [] -> Printf.sprintf "INSERT INTO %s VALUES (%s)" name (fresh_row sch)
      | _ ->
        let c = List.nth ints (Random.State.int rng (List.length ints)) in
        Printf.sprintf "UPDATE %s SET %s = %d WHERE %s = %s" name
          c.Schema.name
          (Random.State.int rng 10_000)
          cols.(0).Schema.name (value_lit row.(0))))
  | _ -> (
    match pick_row () with
    | None -> Printf.sprintf "INSERT INTO %s VALUES (%s)" name (fresh_row sch)
    | Some row ->
      Printf.sprintf "DELETE FROM %s WHERE %s = %s" name
        (List.hd (Schema.column_names sch))
        (value_lit row.(0)))

(* [rounds] batches of random DML, each followed by a byte-identity
   check of the maintained cached stream against a cold recomputation.
   Every fourth round wraps its batch in BEGIN..ROLLBACK, so the
   maintained stream must also survive discarded transactions. *)
let soak ?(rounds = 10) ~seed db query table_names =
  with_result_cache @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let tables =
    List.map (Relcore.Catalog.find_table (Db.catalog db)) table_names
  in
  let c = XC.compile db query in
  ignore (XC.extract ~cache:true c);
  for round = 1 to rounds do
    let rollback = round mod 4 = 0 in
    if rollback then ignore (Db.exec db "BEGIN");
    for _ = 1 to 1 + Random.State.int rng 3 do
      let t = List.nth tables (Random.State.int rng (List.length tables)) in
      ignore (Db.exec db (random_dml rng t))
    done;
    if rollback then ignore (Db.exec db "ROLLBACK");
    let cold = XC.extract ~cache:false c in
    let warm = XC.extract ~cache:true c in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: maintained stream = cold recomputation"
         round)
      true (H.equal cold warm)
  done

(* The hard rollback case: an extraction cached *inside* an open
   transaction mirrors uncommitted state; after ROLLBACK rewinds the
   delta log, maintenance must refuse that snapshot (rewind hole) and
   recompute rather than serve the uncommitted mirror. *)
let test_midtxn_snapshot_rollback () =
  with_result_cache @@ fun () ->
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let c = XC.compile db Workloads.Oo1.parts_graph_query in
  ignore (XC.extract ~cache:true c);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE parts SET x = x + 100 WHERE pid < 10");
  (* cache the uncommitted state mid-txn *)
  ignore (XC.extract ~cache:true c);
  ignore (Db.exec db "ROLLBACK");
  let cold = XC.extract ~cache:false c in
  let warm = XC.extract ~cache:true c in
  Alcotest.(check bool) "post-rollback read matches cold recompute" true
    (H.equal cold warm)

(* The daemon encodes a stream after releasing the lock it was computed
   under, so a stream once returned must never change: IVM patches build
   new item lists and value arrays, and heap updates replace a slot's
   tuple instead of mutating it. *)
let test_published_stream_immutable () =
  (* the premise needs a delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  with_result_cache @@ fun () ->
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  let c = XC.compile db Workloads.Oo1.parts_graph_query in
  let bump pid =
    ignore
      (Db.exec db
         (Printf.sprintf "UPDATE parts SET build = build + 1 WHERE pid = %d" pid))
  in
  (* the first extraction seeds the entry each write is patched into *)
  ignore (XC.extract ~cache:true c);
  bump 4;
  let s1 = XC.extract ~cache:true c in
  let bytes1 = H.serialize s1 in
  Ivm.reset ();
  bump 5;
  let s2 = XC.extract ~cache:true c in
  Alcotest.(check int) "the update was patched into the held state" 1
    Ivm.stats.Ivm.patches;
  Alcotest.(check bool) "the re-extraction sees the update" false
    (String.equal bytes1 (H.serialize s2));
  Alcotest.(check bool) "the held stream is unchanged" true
    (String.equal bytes1 (H.serialize s1));
  Alcotest.(check bool) "maintained stream = cold recomputation" true
    (H.equal (XC.extract ~cache:false c) s2)

let test_soak_oo1 () =
  (* the premise needs a delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  Ivm.reset ();
  soak ~seed:11 db Workloads.Oo1.parts_graph_query [ "parts"; "conns" ];
  (* at least some reads must have been served by the patch rather
     than by a recompute *)
  Alcotest.(check bool) "delta maintenance actually ran" true
    (Ivm.stats.Ivm.patches > 0)

let test_soak_org () =
  let db = Workloads.Org.generate { Workloads.Org.default with n_depts = 8 } in
  soak ~seed:23 db Workloads.Org.deps_arc_query
    [ "dept"; "emp"; "empskills"; "skills" ]

let test_soak_shop () =
  let db =
    Workloads.Shop.generate { Workloads.Shop.default with n_customers = 25 }
  in
  soak ~seed:37 db
    (Workloads.Shop.region_query "EMEA")
    [ "customer"; "orders"; "lineitem" ]

(* BOM is recursive: no [Xnf_compile] stream-cache key; its entry is
   keyed by the fixpoint's skeleton instead.  This soak's DML (inserts,
   deletes, [level] updates) always recomputes the fixpoint over the
   memoized skeleton's shared delta tables, which must reproduce cold
   results exactly.  The patch path has its own cases below. *)
let test_soak_bom_recursive () =
  let db =
    Workloads.Bom.generate
      { Workloads.Bom.default with n_assemblies = 2; levels = 3 }
  in
  let c = XC.compile db Workloads.Bom.assembly_query in
  Alcotest.(check bool) "recursive CO has no cache key" true
    (XC.stream_cache_key c = None);
  soak ~seed:41 db Workloads.Bom.assembly_query [ "part"; "contains" ]

(* With a zero-capacity delta log every window overflows, so each read
   after a write recomputes: same answers, no patches. *)
let test_soak_recompute () =
  with_env "XNFDB_DELTA_LOG" "0" @@ fun () ->
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  Ivm.reset ();
  soak ~seed:11 db Workloads.Oo1.parts_graph_query [ "parts"; "conns" ];
  Alcotest.(check int) "no maintained reads with the delta log off" 0
    Ivm.stats.Ivm.patches;
  (* the first fill, then each round's cold oracle and its warm read *)
  Alcotest.(check int) "reads fell back to recompute" (1 + (2 * 10))
    Ivm.stats.Ivm.recomputes

(* ---- recursive COs ---------------------------------------------------- *)

(* A recursive CO's stream is cached under the versions of the base
   tables its fixpoint reads, and patched when the only change since the
   last stream is a value-only update of columns it does not read
   structurally. *)

let rec_stats () =
  Ivm.stats.Ivm.hits, Ivm.stats.Ivm.patches, Ivm.stats.Ivm.recomputes

let with_rec_cache ?(mb = 64) f =
  (* the patch premise needs a delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  with_result_cache @@ fun () ->
  RC.set_budget_mb (Some mb);
  f ()

(* Warm the cache, run [dml], extract through the cache once more and
   check that stream against a fresh fixpoint; answers the stream and
   the (hits, patches, recomputes) of that one extraction. *)
let rec_after db c dml =
  ignore (XC.extract c);
  List.iter (fun sql -> ignore (Db.exec db sql)) dml;
  Ivm.reset ();
  let s = XC.extract c in
  let counted = rec_stats () in
  Alcotest.(check bool)
    (String.concat "; " dml ^ ": cached stream = fresh fixpoint")
    true
    (H.equal s (XC.extract ~cache:false c));
  (s, counted)

let has_affix affix s = contains ~affix (H.serialize s)

(* How a patch rebuilt [next] from [prev]: the two align item for item,
   and an item is a new record only where its row's values changed.
   Answers the rows rebuilt, the unchanged items re-consed after the
   last of them, and the length of the list tail the two share. *)
let patch_shape (prev : H.t) (next : H.t) =
  let rec go rebuilt reconsed a b =
    if a == b then (rebuilt, reconsed, List.length a)
    else
      match (a, b) with
      | x :: a', y :: b' when x == y -> go rebuilt (reconsed + 1) a' b'
      | H.Row r :: a', H.Row r' :: b'
        when r.id = r'.id && not (Relcore.Tuple.equal r.values r'.values) ->
        go (rebuilt + 1) 0 a' b'
      | _ -> Alcotest.fail "the patched stream does not align with the last"
  in
  go 0 0 prev.H.items next.H.items

let check_patch_shape what prev next ~rows =
  let rebuilt, reconsed, shared = patch_shape prev next in
  Alcotest.(check int) (what ^ ": only the changed rows are rebuilt") rows
    rebuilt;
  Alcotest.(check int) (what ^ ": nothing after the last of them is re-consed")
    0 reconsed;
  Alcotest.(check bool) (what ^ ": the rest is the last stream's own tail")
    true (shared > 0)

let test_recursive_value_update_patched () =
  with_rec_cache @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = XC.compile db Workloads.Bom.assembly_query in
  let before = XC.extract c in
  let bytes = H.serialize before in
  let s, counted =
    rec_after db c
      [
        "BEGIN";
        "UPDATE part SET pname = 'renamed-a' WHERE pid = 2";
        "UPDATE part SET pname = 'renamed-b' WHERE pid = 9";
        "UPDATE part SET pname = 'renamed-c' WHERE pid = 9";
        "COMMIT";
      ]
  in
  Alcotest.(check (triple int int int)) "pname-only commit: one patch" (0, 1, 0)
    counted;
  Alcotest.(check bool) "patched stream shows the new names" true
    (has_affix "renamed-a" s && has_affix "renamed-c" s
   && not (has_affix "renamed-b" s));
  Alcotest.(check bool) "the earlier stream is unchanged" true
    (String.equal bytes (H.serialize before));
  let renamed = function
    | H.Row r ->
      Array.exists (fun v -> v = vs "renamed-a" || v = vs "renamed-c") r.values
    | H.Conn _ -> false
  in
  check_patch_shape "bom" before s
    ~rows:(List.length (List.filter renamed s.H.items));
  ignore (XC.extract c);
  Alcotest.(check int) "a repeat is a cache hit" 1 Ivm.stats.Ivm.hits;
  (* [qty] is read by no predicate, join or attribute: nothing moves *)
  let s', counted =
    rec_after db c [ "UPDATE contains SET qty = qty + 5 WHERE parent = 1" ]
  in
  Alcotest.(check (triple int int int)) "unread column: one patch" (0, 1, 0)
    counted;
  Alcotest.(check bool) "unread column: the same stream" true (s' == s)

(* Each of [dmls] alone recomputes; so does the first read after a
   ROLLBACK of a transaction whose [ghost] update (to the string
   'ghost') was read, and so cached, inside it. *)
let check_recomputes db c dmls ~ghost =
  List.iter
    (fun dml ->
      let _, counted = rec_after db c [ dml ] in
      Alcotest.(check (triple int int int)) (dml ^ ": recomputed") (0, 0, 1)
        counted)
    dmls;
  (* a rolled-back transaction whose state was cached leaves a hole *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db ghost);
  Alcotest.(check bool) "in-txn read sees the uncommitted name" true
    (has_affix "ghost" (XC.extract c));
  ignore (Db.exec db "ROLLBACK");
  Ivm.reset ();
  let s = XC.extract c in
  Alcotest.(check (triple int int int)) "after ROLLBACK: recomputed" (0, 0, 1)
    (rec_stats ());
  Alcotest.(check bool) "after ROLLBACK: no ghost" false (has_affix "ghost" s)

let test_recursive_structural_change_recomputes () =
  with_rec_cache @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = XC.compile db Workloads.Bom.assembly_query in
  check_recomputes db c
    [
      "UPDATE part SET level = 3 WHERE pid = 7";
      "INSERT INTO contains VALUES (1, 7, 2)";
      "DELETE FROM contains WHERE parent = 1 AND child = 7";
      "INSERT INTO part VALUES (9999, 'loose', 1)";
      "DELETE FROM part WHERE pid = 9999";
    ]
    ~ghost:"UPDATE part SET pname = 'ghost' WHERE pid = 2"

(* ---- non-recursive COs: the same patch, on the OO1 parts graph -------- *)

let oo1_300 () =
  Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 }

let test_oo1_value_update_patched () =
  with_rec_cache @@ fun () ->
  let db = oo1_300 () in
  let c = XC.compile db Workloads.Oo1.parts_graph_query in
  let before = XC.extract c in
  let s, counted =
    rec_after db c
      [
        "UPDATE parts SET build = build + 1 WHERE pid = 4";
        "UPDATE parts SET build = build + 1 WHERE pid = 7";
      ]
  in
  Alcotest.(check (triple int int int)) "build-only commits: one patch"
    (0, 1, 0) counted;
  check_patch_shape "oo1" before s ~rows:2;
  ignore (XC.extract c);
  Alcotest.(check int) "a repeat is a cache hit" 1 Ivm.stats.Ivm.hits

let test_oo1_structural_change_recomputes () =
  with_rec_cache @@ fun () ->
  let db = oo1_300 () in
  let c = XC.compile db Workloads.Oo1.parts_graph_query in
  check_recomputes db c
    [
      "UPDATE parts SET pid = 9999 WHERE pid = 7";
      "INSERT INTO conns VALUES (1, 2, 'new', 5)";
      "DELETE FROM conns WHERE cfrom = 1 AND cto = 2";
    ]
    ~ghost:"UPDATE parts SET ptype = 'ghost' WHERE pid = 2"

let test_recursive_no_log_recomputes () =
  with_rec_cache @@ fun () ->
  with_env "XNFDB_DELTA_LOG" "0" @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = XC.compile db Workloads.Bom.assembly_query in
  let _, counted =
    rec_after db c [ "UPDATE part SET pname = 'renamed' WHERE pid = 2" ]
  in
  Alcotest.(check (triple int int int)) "delta log off: recomputed" (0, 0, 1)
    counted

let test_recursive_cache_off_recomputes () =
  with_rec_cache ~mb:0 @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = XC.compile db Workloads.Bom.assembly_query in
  let _, counted =
    rec_after db c [ "UPDATE part SET pname = 'renamed' WHERE pid = 2" ]
  in
  Alcotest.(check (triple int int int)) "0 MB cache: recomputed" (0, 0, 1)
    counted;
  Ivm.reset ();
  ignore (XC.extract c);
  Alcotest.(check (triple int int int)) "0 MB cache: a repeat recomputes too"
    (0, 0, 1) (rec_stats ())

(* Under a snapshot the fixpoint reads base tables at the pin (its delta
   tables stay live) and never reads or fills the cache. *)
let test_recursive_snapshot () =
  with_rec_cache @@ fun () ->
  let db = Workloads.Bom.generate Workloads.Bom.default in
  let c = XC.compile db Workloads.Bom.assembly_query in
  let committed = XC.extract c in
  (* the generator loads rows without a commit: publish them *)
  Relcore.Snapshot.publish_catalog (Db.catalog db);
  let pin = Relcore.Snapshot.pin (Db.catalog db) in
  Fun.protect ~finally:(fun () ->
      Relcore.Snapshot.release pin;
      ignore (Db.exec db "ROLLBACK"))
  @@ fun () ->
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE part SET pname = 'dirty' WHERE level = 0");
  Alcotest.(check bool) "the live read sees the open transaction" true
    (has_affix "dirty" (XC.extract ~cache:false c));
  let entries = (RC.stats ()).RC.entries in
  Ivm.reset ();
  let ctx =
    Executor.Exec.make_ctx ~result_cache:false
      ~snapshot:(Relcore.Snapshot.rows pin) ()
  in
  let s = XC.extract ~ctx c in
  Alcotest.(check bool) "snapshot read = the pinned committed stream" true
    (H.equal committed s);
  Alcotest.(check (triple int int int)) "snapshot read: fixpoint, no cache"
    (0, 0, 1) (rec_stats ());
  Alcotest.(check int) "snapshot read stored nothing" entries
    (RC.stats ()).RC.entries

let suite =
  [
    Alcotest.test_case "delta log records row ops" `Quick
      test_delta_log_records;
    Alcotest.test_case "delta log overflow" `Quick test_delta_log_overflow;
    Alcotest.test_case "truncate floors the log" `Quick
      test_truncate_floors_log;
    Alcotest.test_case "rewind hole refuses in-txn snapshots" `Quick
      test_rewind_hole;
    Alcotest.test_case "rollback discards, commit publishes" `Quick
      test_rollback_discards_deltas;
    Alcotest.test_case "rollback across log overflow boundary" `Quick
      test_rollback_overflow_boundary;
    Alcotest.test_case "mid-txn cached snapshot + rollback" `Quick
      test_midtxn_snapshot_rollback;
    Alcotest.test_case "soak: oo1 parts graph" `Quick test_soak_oo1;
    Alcotest.test_case "soak: org deps" `Quick test_soak_org;
    Alcotest.test_case "soak: shop region" `Quick test_soak_shop;
    Alcotest.test_case "soak: bom recursive fixpoint" `Quick
      test_soak_bom_recursive;
    Alcotest.test_case "soak: recompute (delta log off)" `Quick
      test_soak_recompute;
    Alcotest.test_case "published streams are immutable" `Quick
      test_published_stream_immutable;
    Alcotest.test_case "recursive: value-only commit patched" `Quick
      test_recursive_value_update_patched;
    Alcotest.test_case "recursive: structural change recomputes" `Quick
      test_recursive_structural_change_recomputes;
    Alcotest.test_case "recursive: delta log off recomputes" `Quick
      test_recursive_no_log_recomputes;
    Alcotest.test_case "recursive: cache off recomputes" `Quick
      test_recursive_cache_off_recomputes;
    Alcotest.test_case "recursive: snapshot reads the pin" `Quick
      test_recursive_snapshot;
    Alcotest.test_case "oo1: value-only commit patched" `Quick
      test_oo1_value_update_patched;
    Alcotest.test_case "oo1: structural change recomputes" `Quick
      test_oo1_structural_change_recomputes;
  ]
