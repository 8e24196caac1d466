(** Wire-codec hardening and daemon tests: round-trips for every frame,
    malformed-frame handling, concurrent sessions byte-identical to
    in-process execution, crash isolation, and graceful shutdown. *)

open Helpers
module Db = Engine.Database
module H = Xnf.Hetstream
module Wire = Net.Wire
module Client = Net.Client
module Server = Net.Server

let exec_rows db sql =
  match Db.exec db sql with
  | Db.Rows (schema, rows) -> (schema, rows)
  | _ -> Alcotest.failf "%s: expected rows" sql

let deps_arc_view = "CREATE VIEW deps_arc AS " ^ Workloads.Org.deps_arc_query

(** [org_db] plus the paper's deps_arc XNF view, for extraction. *)
let deps_db () =
  let db = org_db () in
  ignore (Db.exec db deps_arc_view);
  db

(* -- codec: byte-stable round-trips -------------------------------------- *)

(** A frame survives decode∘encode byte-identically.  Byte stability is
    the oracle (rather than structural equality) so NaN and −0.0 are
    covered without a float-aware comparator. *)
let payload_of frame = String.sub frame 4 (String.length frame - 4)

let check_response_stable msg (r : Wire.response) =
  let enc = Wire.encode_response r in
  let enc' = Wire.encode_response (Wire.decode_response (payload_of enc)) in
  Alcotest.(check string) msg enc enc'

let check_request_stable msg (r : Wire.request) =
  let enc = Wire.encode_request r in
  let enc' = Wire.encode_request (Wire.decode_request (payload_of enc)) in
  Alcotest.(check string) msg enc enc'

let value_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun i -> vi i) int);
      ( 2,
        oneofl
          [ vi max_int; vi min_int; vi 0; vi (-1); vi 0x7fffffff; vi (1 lsl 62) ]
      );
      (3, map (fun f -> vf f) float);
      ( 2,
        oneofl
          [
            vf Float.nan;
            vf (-0.0);
            vf Float.infinity;
            vf Float.neg_infinity;
            vf (-1.0);
            vf Float.min_float;
          ] );
      (3, map (fun s -> vs s) (string_size (int_bound 40)));
      (1, map (fun b -> vb b) bool);
      (1, return vnull);
    ]

let tuple_gen =
  QCheck.Gen.(map Relcore.Tuple.of_list (list_size (int_bound 6) value_gen))

let batch_response_arb =
  QCheck.make
    ~print:(fun rows -> Printf.sprintf "<batch of %d rows>" (List.length rows))
    QCheck.Gen.(list_size (int_bound 8) tuple_gen)

let prop_row_batch_stable =
  QCheck.Test.make ~count:300 ~name:"Row_batch round-trips byte-identically"
    batch_response_arb (fun rows ->
      let r = Wire.Row_batch rows in
      let enc = Wire.encode_response r in
      Wire.encode_response (Wire.decode_response (payload_of enc)) = enc)

let string_arb = QCheck.make ~print:String.escaped QCheck.Gen.(string_size (int_bound 60))

let prop_requests_stable =
  QCheck.Test.make ~count:200 ~name:"request frames round-trip" string_arb
    (fun s ->
      List.for_all
        (fun (r : Wire.request) ->
          let enc = Wire.encode_request r in
          Wire.encode_request (Wire.decode_request (payload_of enc)) = enc)
        [
          Hello { client = s; version = Wire.version };
          Query { sql = s; analyze = false };
          Query { sql = s; analyze = true };
          Extract { text = s; chunk = String.length s; analyze = false; base = false };
          Extract { text = s; chunk = String.length s; analyze = true; base = false };
          Extract { text = s; chunk = String.length s; analyze = false; base = true };
          Stmt { sql = s };
          Stats;
          Bye;
        ])

let prop_scalar_responses_stable =
  QCheck.Test.make ~count:200 ~name:"scalar response frames round-trip"
    string_arb (fun s ->
      let n = String.length s in
      List.for_all
        (fun (r : Wire.response) ->
          let enc = Wire.encode_response r in
          Wire.encode_response (Wire.decode_response (payload_of enc)) = enc)
        [
          Hello_ok { server = s; version = Wire.version; session_id = n };
          Row_end { rows = n };
          Stream_end { items = n };
          Affected n;
          Done s;
          Error { kind = "exec"; msg = s };
          Stats_reply s;
          Bye_ok;
        ])

let test_empty_batch () =
  check_response_stable "empty batch" (Wire.Row_batch []);
  check_response_stable "empty chunk" (Wire.Stream_chunk []);
  check_response_stable "empty header"
    (Wire.Row_header (Relcore.Schema.make []))

let test_schema_frame () =
  let schema, _ = exec_rows (org_db ()) "SELECT * FROM emp" in
  check_response_stable "row header" (Wire.Row_header schema)

(* Regression: Hetstream once encoded floats via [Int64.to_int], losing
   bit 63 — negative floats came back positive.  Pin the sign bit. *)
let test_float_sign_bits () =
  let roundtrip v =
    let enc = Wire.encode_response (Wire.Row_batch [ row [ v ] ]) in
    match Wire.decode_response (payload_of enc) with
    | Wire.Row_batch [ t ] -> Relcore.Tuple.get t 0
    | _ -> Alcotest.fail "unexpected frame"
  in
  List.iter
    (fun f ->
      match roundtrip (vf f) with
      | Relcore.Value.Float f' ->
        Alcotest.(check int64)
          (Printf.sprintf "bits of %h" f)
          (Int64.bits_of_float f) (Int64.bits_of_float f')
      | _ -> Alcotest.fail "not a float")
    [ -1.0; -0.0; 0.0; Float.nan; Float.neg_infinity; -4.25e-300 ]

let test_stream_frames_roundtrip () =
  let stream = Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc" in
  check_response_stable "stream header" (Wire.Stream_header stream.H.header);
  check_response_stable "stream chunk" (Wire.Stream_chunk stream.H.items);
  (* reassembly from single-item chunks equals the original stream *)
  let frames =
    List.map
      (fun item ->
        Wire.encode_response (Wire.Stream_chunk [ item ]))
      stream.H.items
  in
  let items =
    List.concat_map
      (fun f ->
        match Wire.decode_response (payload_of f) with
        | Wire.Stream_chunk items -> items
        | _ -> Alcotest.fail "unexpected frame")
      frames
  in
  Alcotest.(check bool)
    "tuple-at-a-time reassembly is byte-identical" true
    (H.equal stream { stream with H.items })

(* The framing before one-pass encoding: the payload built in a buffer
   of its own, then copied behind its length prefix by [Wire.frame]. *)
let two_pass_response (r : Wire.response) =
  let framed tag body =
    let b = Buffer.create 64 in
    Buffer.add_char b tag;
    body b;
    Wire.frame (Buffer.contents b)
  in
  let row b (t : Relcore.Tuple.t) =
    H.write_int b (Array.length t);
    Array.iter (H.write_value b) t
  in
  match r with
  | Hello_ok { server; version; session_id } ->
    framed 'H' (fun b ->
        H.write_string b server;
        H.write_int b version;
        H.write_int b session_id)
  | Row_header schema -> framed 'T' (fun b -> H.write_schema b schema)
  | Row_batch rows ->
    framed 'B' (fun b ->
        H.write_int b (List.length rows);
        List.iter (row b) rows)
  | Row_end { rows } -> framed 'E' (fun b -> H.write_int b rows)
  | Stream_header h -> framed 'r' (fun b -> H.write_header b h)
  | Stream_chunk items ->
    framed 'i' (fun b ->
        H.write_int b (List.length items);
        List.iter (H.write_item b) items)
  | Stream_same { items } -> framed 'm' (fun b -> H.write_int b items)
  | Stream_end { items } -> framed 'z' (fun b -> H.write_int b items)
  | Affected n -> framed 'A' (fun b -> H.write_int b n)
  | Done msg -> framed 'D' (fun b -> H.write_string b msg)
  | Error { kind; msg } ->
    framed 'X' (fun b ->
        H.write_string b kind;
        H.write_string b msg)
  | Stats_reply text -> framed 'Y' (fun b -> H.write_string b text)
  | Bye_ok -> framed 'Z' (fun _ -> ())

let test_one_pass_framing () =
  let stream = Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc" in
  let schema, rows = exec_rows (deps_db ()) "SELECT * FROM emp ORDER BY eno" in
  let long = String.make 70_000 'x' in
  List.iter
    (fun (r : Wire.response) ->
      let enc = Wire.encode_response r in
      Alcotest.(check string)
        (Printf.sprintf "tag %C: same bytes as two-pass framing" enc.[4])
        (two_pass_response r) enc)
    [
      Hello_ok { server = "xnfdb"; version = Wire.version; session_id = 7 };
      Row_header schema;
      Row_batch rows;
      Row_batch [];
      Row_end { rows = List.length rows };
      Stream_header stream.H.header;
      Stream_chunk stream.H.items;
      Stream_chunk [];
      Stream_same { items = 512 };
      Stream_end { items = H.total_items stream };
      Affected 3;
      Done long;
      Error { kind = "exec"; msg = "boom" };
      Stats_reply "== server ==";
      Bye_ok;
    ]

let expect_malformed msg (f : unit -> unit) =
  match f () with
  | () -> Alcotest.failf "%s: expected Malformed" msg
  | exception Wire.Malformed _ -> ()

let test_malformed_payloads () =
  expect_malformed "empty payload" (fun () ->
      ignore (Wire.decode_request ""));
  expect_malformed "unknown request tag" (fun () ->
      ignore (Wire.decode_request "\xff junk"));
  expect_malformed "unknown response tag" (fun () ->
      ignore (Wire.decode_response "? junk"));
  expect_malformed "truncated body" (fun () ->
      let enc = Wire.encode_request (Wire.Query { sql = "SELECT 1"; analyze = false }) in
      ignore (Wire.decode_request (String.sub enc 4 5)));
  expect_malformed "trailing garbage" (fun () ->
      let enc = Wire.encode_request Wire.Bye in
      ignore (Wire.decode_request (payload_of enc ^ "x")))

(* -- codec: varints, the chunk writer, truncation --------------------------- *)

let varint n =
  let b = Buffer.create 10 in
  H.write_int b n;
  Buffer.contents b

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let enc = varint n in
      let r = { H.data = enc; pos = 0 } in
      Alcotest.(check int) (Printf.sprintf "%d round-trips" n) n (H.read_int r);
      Alcotest.(check int)
        (Printf.sprintf "%d: every byte read" n)
        (String.length enc) r.H.pos)
    [ min_int; -1; 0; 1; 63; 64; 127; 128; 8191; 8192; max_int ];
  (* zig-zag then little-endian base-128, high bit = more *)
  List.iter
    (fun (n, bytes) ->
      Alcotest.(check string) (Printf.sprintf "bytes of %d" n) bytes (varint n))
    [
      (0, "\000");
      (-1, "\001");
      (1, "\002");
      (63, "\126");
      (64, "\128\001");
      (8191, "\254\127");
      (8192, "\128\128\001");
      (max_int, "\254\255\255\255\255\255\255\255\127");
      (min_int, "\255\255\255\255\255\255\255\255\127");
    ]

(* [Wire.encode_chunk] ships a prefix straight off the item list: the
   same frame as encoding that prefix as a [Stream_chunk]. *)
let test_chunk_writer () =
  let items = (Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc").H.items in
  let total = List.length items in
  List.iter
    (fun chunk ->
      let rec go items =
        match items with
        | [] -> ()
        | _ ->
          let frame, n, rest = Wire.encode_chunk ~chunk items in
          let prefix = List.filteri (fun i _ -> i < n) items in
          Alcotest.(check int) "chunk size" (min chunk (List.length items)) n;
          Alcotest.(check string)
            (Printf.sprintf "chunk %d: same bytes as Stream_chunk" chunk)
            (Wire.encode_response (Wire.Stream_chunk prefix))
            frame;
          let rec tail k l = if k = 0 then l else tail (k - 1) (List.tl l) in
          Alcotest.(check bool) "rest is the list's own tail" true
            (rest == tail n items);
          go rest
      in
      go items)
    [ 1; 7; total; total + 1 ]

(* Every proper prefix of a payload is malformed, and says so with
   [Malformed] alone: never an index error, never a short success. *)
let check_truncations name payload decode =
  for k = 1 to String.length payload - 1 do
    match decode (String.sub payload 0 k) with
    | _ -> Alcotest.failf "%s cut at %d bytes decoded" name k
    | exception Wire.Malformed _ -> ()
    | exception e ->
      Alcotest.failf "%s cut at %d bytes raised %s" name k (Printexc.to_string e)
  done

let test_truncated_payloads () =
  let stream = Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc" in
  let chunk = payload_of (Wire.encode_response (Wire.Stream_chunk stream.H.items)) in
  check_truncations "Stream_chunk" chunk Wire.decode_response;
  check_truncations "Stream_chunk (reversed)" chunk (fun p ->
      Wire.decode_chunk_rev p []);
  let rows =
    snd (exec_rows (org_db ()) "SELECT * FROM emp ORDER BY eno")
    @ [ row [ vf (-2.5); vnull; vb true; vs "tail"; vi min_int ] ]
  in
  check_truncations "Row_batch"
    (payload_of (Wire.encode_response (Wire.Row_batch rows)))
    Wire.decode_response;
  (* a row arity larger than the bytes left is refused before it sizes
     an array *)
  expect_malformed "oversized arity" (fun () ->
      ignore (Wire.decode_response ("B\002" ^ varint (1 lsl 40))))

(* -- daemon fixtures ------------------------------------------------------ *)

let next_sock =
  let c = Atomic.make 0 in
  fun () ->
    Printf.sprintf "%s/xnfdb_test_%d_%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) (Atomic.fetch_and_add c 1)

(** Run [f addr db server] against a live daemon on a fresh unix socket;
    always drains and joins the serve domain. *)
let with_server ?(setup = fun (_ : Db.t) -> ()) ?(tweak = fun c -> c) f =
  let db = Db.create () in
  setup db;
  let path = next_sock () in
  let addr = Unix.ADDR_UNIX path in
  let config = tweak (Server.default_config ~addr ()) in
  let t = Server.create ~config db in
  let d = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f addr db t)

let org_setup db =
  let src = deps_db () in
  List.iter
    (fun tbl -> Relcore.Catalog.add_table (Db.catalog db) tbl)
    (Relcore.Catalog.tables (Db.catalog src));
  ignore (Db.exec db deps_arc_view)

(* -- daemon: basic equivalence ------------------------------------------- *)

let test_query_matches_inprocess () =
  with_server ~setup:org_setup (fun addr _db _t ->
      let reference = deps_db () in
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          List.iter
            (fun sql ->
              let rschema, rrows = exec_rows reference sql in
              let schema, rows = Client.query cl sql in
              Alcotest.(check string)
                (sql ^ ": schema")
                (Relcore.Schema.to_string rschema)
                (Relcore.Schema.to_string schema);
              check_rows (sql ^ ": rows") rrows rows)
            [
              "SELECT * FROM emp ORDER BY eno";
              "SELECT dname, COUNT(*) FROM dept, emp WHERE dno = edno GROUP \
               BY dname ORDER BY dname";
              "SELECT eno FROM emp WHERE sal > 95 ORDER BY eno";
            ]))

let test_extract_matches_inprocess () =
  with_server ~setup:org_setup (fun addr _db _t ->
      let reference = Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc" in
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let bulk = Client.extract cl "deps_arc" in
          Alcotest.(check bool)
            "bulk extraction byte-identical to in-process" true
            (H.equal reference bulk);
          let frames_before = Client.frames_in cl in
          let tuple_at_a_time = Client.extract ~chunk:1 cl "deps_arc" in
          let tat_frames = Client.frames_in cl - frames_before in
          Alcotest.(check bool)
            "tuple-at-a-time byte-identical too" true
            (H.equal reference tuple_at_a_time);
          Alcotest.(check bool)
            "chunk=1 ships one frame per item" true
            (tat_frames >= H.total_items reference)))

let test_dml_and_txn () =
  with_server (fun addr db _t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (match Client.exec cl "CREATE TABLE kv (k INT, v STRING)" with
          | Client.Done _ -> ()
          | _ -> Alcotest.fail "CREATE should report Done");
          (match Client.exec cl "INSERT INTO kv VALUES (1, 'a'), (2, 'b')" with
          | Client.Affected 2 -> ()
          | _ -> Alcotest.fail "INSERT should affect 2 rows");
          ignore (Client.exec cl "BEGIN");
          ignore (Client.exec cl "INSERT INTO kv VALUES (3, 'c')");
          check_rows "uncommitted insert visible in-session"
            (rows_of_ints [ [ 3 ] ])
            (Client.query_rows cl "SELECT COUNT(*) FROM kv");
          ignore (Client.exec cl "ROLLBACK");
          check_rows "rollback undoes it"
            (rows_of_ints [ [ 2 ] ])
            (Client.query_rows cl "SELECT COUNT(*) FROM kv");
          (* server-side error surfaces as Server_error, session survives *)
          (match Client.query cl "SELECT nope FROM kv" with
          | _ -> Alcotest.fail "bad column should raise"
          | exception Client.Server_error _ -> ());
          check_rows "session alive after error"
            (rows_of_ints [ [ 2 ] ])
            (Client.query_rows cl "SELECT COUNT(*) FROM kv");
          let tbl = Relcore.Catalog.find_table (Db.catalog db) "kv" in
          Alcotest.(check int)
            "base table agrees" 2
            (Relcore.Base_table.cardinality tbl)))

(* DDL and COMMIT are told by their first SQL token, so a newline, a tab
   or a comment around the keyword changes nothing: session [a]'s
   prepared plan over a dropped and re-created [t] must be invalidated,
   and a spaced-out COMMIT must still go through group commit. *)
let test_statement_class_by_token () =
  with_server (fun addr _db _t ->
      let a = Client.connect addr and b = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          let recreate drop create rows =
            ignore (Client.exec b drop);
            ignore (Client.exec b create);
            ignore (Client.exec b ("INSERT INTO t VALUES " ^ rows))
          in
          ignore (Client.exec b "CREATE TABLE t (x INT)");
          ignore (Client.exec b "INSERT INTO t VALUES (1)");
          check_rows "a reads the first t" (rows_of_ints [ [ 1 ] ])
            (Client.query_rows a "SELECT * FROM t");
          recreate "DROP\nTABLE t" "CREATE\tTABLE t (x INT)" "(2), (3)";
          check_rows "a reads t re-created after a newline DROP"
            (rows_of_ints [ [ 2 ]; [ 3 ] ])
            (Client.query_rows a "SELECT * FROM t");
          recreate "-- again\nDROP TABLE t" "CREATE TABLE t (x INT)" "(4)";
          check_rows "a reads t re-created after a commented DROP"
            (rows_of_ints [ [ 4 ] ])
            (Client.query_rows a "SELECT * FROM t");
          ignore (Client.exec b "BEGIN");
          ignore (Client.exec b "INSERT INTO t VALUES (5)");
          ignore (Client.exec b "COMMIT ;");
          Alcotest.(check bool)
            "spaced COMMIT took group commit" true
            (contains ~affix:"/ 1 commits" (Client.stats b))))

(* -- daemon: concurrency -------------------------------------------------- *)

let test_concurrent_sessions () =
  with_server ~setup:org_setup (fun addr _db t ->
      let reference = H.serialize (Xnf.Xnf_compile.run_view (deps_db ()) "deps_arc") in
      let n = 8 and rounds = 4 in
      let worker i () =
        try
          let cl = Client.connect ~client_name:(Printf.sprintf "w%d" i) addr in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              ignore
                (Client.exec cl
                   (Printf.sprintf "CREATE TABLE own_%d (x INT)" i));
              for r = 1 to rounds do
                ignore
                  (Client.exec cl
                     (Printf.sprintf "INSERT INTO own_%d VALUES (%d)" i r));
                let got =
                  Client.query_rows cl
                    (Printf.sprintf "SELECT COUNT(*) FROM own_%d" i)
                in
                if got <> rows_of_ints [ [ r ] ] then
                  failwith (Printf.sprintf "w%d: wrong count at round %d" i r);
                ignore (Client.exec cl "BEGIN");
                ignore
                  (Client.exec cl
                     (Printf.sprintf "INSERT INTO own_%d VALUES (-1)" i));
                ignore (Client.exec cl "ROLLBACK");
                let stream = Client.extract cl "deps_arc" in
                if H.serialize stream <> reference then
                  failwith (Printf.sprintf "w%d: extract diverged" i)
              done;
              Ok i)
        with e -> Stdlib.Error (Printexc.to_string e)
      in
      let domains = List.init n (fun i -> Domain.spawn (worker i)) in
      let results = List.map Domain.join domains in
      List.iter
        (function
          | Ok _ -> () | Stdlib.Error m -> Alcotest.failf "worker failed: %s" m)
        results;
      let c = Server.counters t in
      Alcotest.(check bool)
        "peak sessions saw concurrency" true (c.Server.peak_sessions >= 2);
      Alcotest.(check bool) "no protocol errors" true (c.Server.errors = 0))

let test_crash_isolation () =
  with_server ~setup:org_setup (fun addr _db t ->
      let survivor = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close survivor)
        (fun () ->
          (* crash a client mid-request: queue an extraction, slam the
             socket, never read *)
          let victim = Client.connect addr in
          Client.send_raw victim
            (Wire.encode_request (Wire.Extract
               { text = "deps_arc"; chunk = 1; analyze = false; base = false }));
          Client.abort victim;
          (* the survivor keeps getting correct answers *)
          for _ = 1 to 3 do
            check_rows "survivor unaffected"
              (rows_of_ints [ [ 4 ] ])
              (Client.query_rows survivor "SELECT COUNT(*) FROM emp")
          done;
          (* the daemon reaps the dead session *)
          let rec wait_reaped n =
            let c = Server.counters t in
            if c.Server.active_sessions <= 1 then ()
            else if n = 0 then Alcotest.fail "victim session never reaped"
            else begin
              Unix.sleepf 0.05;
              wait_reaped (n - 1)
            end
          in
          wait_reaped 100))

let test_malformed_frame_closes_session_only () =
  with_server ~setup:org_setup (fun addr _db _t ->
      let cl = Client.connect addr in
      Client.send_raw cl (Wire.frame "\xffgarbage");
      (match Client.recv_any cl with
      | Wire.Error { kind; _ } ->
        Alcotest.(check string) "malformed kind" "malformed" kind
      | _ -> Alcotest.fail "expected an error frame");
      (* ... and the session is gone *)
      (match Client.recv_any cl with
      | _ -> Alcotest.fail "session should be closed"
      | exception Wire.Connection_lost -> ());
      Client.abort cl;
      (* the daemon itself survives and serves new sessions *)
      let cl2 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl2)
        (fun () ->
          check_rows "daemon survives malformed frame"
            (rows_of_ints [ [ 3 ] ])
            (Client.query_rows cl2 "SELECT COUNT(*) FROM dept")))

let test_oversized_frame () =
  with_server ~setup:org_setup (fun addr _db _t ->
      let cl = Client.connect addr in
      let b = Buffer.create 4 in
      Buffer.add_int32_be b (Int32.of_int (Wire.max_frame + 1));
      Client.send_raw cl (Buffer.contents b);
      (match Client.recv_any cl with
      | Wire.Error _ -> ()
      | _ -> Alcotest.fail "expected an error frame"
      | exception Wire.Connection_lost -> ());
      Client.abort cl;
      let cl2 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl2)
        (fun () ->
          check_rows "daemon survives oversized frame"
            (rows_of_ints [ [ 3 ] ])
            (Client.query_rows cl2 "SELECT COUNT(*) FROM dept")))

let test_hello_version_mismatch () =
  with_server (fun addr _db _t ->
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.connect fd addr;
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Wire.send_frame fd
            (Wire.encode_request (Wire.Hello { client = "old"; version = 999 }));
          match Wire.decode_response (Wire.recv_payload fd) with
          | Wire.Error { kind; _ } ->
            Alcotest.(check string) "protocol error" "protocol" kind
          | _ -> Alcotest.fail "expected an error frame"))

let test_stats_and_counters () =
  with_server ~setup:org_setup (fun addr _db t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          ignore (Client.query_rows cl "SELECT COUNT(*) FROM emp");
          ignore (Client.extract cl "deps_arc");
          let text = Client.stats cl in
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "stats mentions %S" needle)
                true (contains ~affix:needle text))
            [ "server"; "sessions"; "lock: readers held" ];
          let c = Server.counters t in
          Alcotest.(check bool)
            "reader lock-hold time counted" true (c.Server.read_hold_us > 0);
          Alcotest.(check int) "one active session" 1 c.Server.active_sessions;
          Alcotest.(check bool) "query counted" true (c.Server.queries >= 1);
          Alcotest.(check bool) "extract counted" true (c.Server.extracts >= 1);
          Alcotest.(check bool)
            "bytes flowed" true
            (c.Server.bytes_in > 0 && c.Server.bytes_out > 0)))

let test_max_sessions () =
  with_server ~setup:org_setup
    ~tweak:(fun c -> { c with Server.max_sessions = 1 })
    (fun addr _db _t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (match Client.connect addr with
          | cl2 ->
            Client.abort cl2;
            Alcotest.fail "second session should be rejected"
          | exception Client.Server_error { kind; _ } ->
            Alcotest.(check string) "busy kind" "busy" kind
          | exception Wire.Connection_lost -> ());
          check_rows "first session unaffected"
            (rows_of_ints [ [ 3 ] ])
            (Client.query_rows cl "SELECT COUNT(*) FROM dept")))

let test_shutdown_rolls_back_check () =
  (* open a transaction, insert, then shut the daemon down: the drain
     must roll the open transaction back, committing nothing *)
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE audit (x INT)");
  ignore (Db.exec db "INSERT INTO audit VALUES (1)");
  let path = next_sock () in
  let config = Server.default_config ~addr:(Unix.ADDR_UNIX path) () in
  let t = Server.create ~config db in
  let d = Domain.spawn (fun () -> Server.serve t) in
  let cl = Client.connect (Unix.ADDR_UNIX path) in
  ignore (Client.exec cl "BEGIN");
  ignore (Client.exec cl "INSERT INTO audit VALUES (2)");
  Server.stop t;
  Domain.join d;
  Client.abort cl;
  (try Sys.remove path with Sys_error _ -> ());
  let tbl = Relcore.Catalog.find_table (Db.catalog db) "audit" in
  Alcotest.(check int) "open txn rolled back on shutdown" 1
    (Relcore.Base_table.cardinality tbl)

(* -- daemon: frames encoded after the lock is released -------------------- *)

let oo1_setup db =
  let src = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts = 300 } in
  List.iter
    (fun tbl -> Relcore.Catalog.add_table (Db.catalog db) tbl)
    (Relcore.Catalog.tables (Db.catalog src));
  ignore
    (Db.exec db ("CREATE VIEW parts_co AS " ^ Workloads.Oo1.parts_graph_query))

(* [build] of part [pid] in an extracted parts_co stream *)
let build_of (s : H.t) pid =
  let c = H.find_comp s.H.header "xpart" in
  let ipid = Relcore.Schema.find c.H.comp_schema "pid"
  and ibuild = Relcore.Schema.find c.H.comp_schema "build" in
  let found =
    List.find_map
      (function
        | H.Row { comp; values; _ }
          when comp = c.H.comp_no && values.(ipid) = Relcore.Value.Int pid -> (
          match values.(ibuild) with Relcore.Value.Int b -> Some b | _ -> None)
        | _ -> None)
      s.H.items
  in
  match found with
  | Some b -> b
  | None -> Alcotest.failf "part %d missing from the stream" pid

(* A committer races repeated extractions of the same view.  Frames
   are encoded after the reader lock is released, and a repeat ships
   whatever it shares with the connection's last stream as same-run
   frames: no extraction may ship a [build] older than a commit
   acknowledged before its request was sent. *)
let test_memo_race () =
  with_server ~setup:oo1_setup (fun addr db t ->
      let pid = 1 in
      let reader = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close reader)
        (fun () ->
          let base = build_of (Client.extract reader "parts_co") pid in
          let acked = Atomic.make 0 and stop = Atomic.make false in
          let committer =
            Domain.spawn (fun () ->
                let cl = Client.connect addr in
                Fun.protect
                  ~finally:(fun () -> Client.close cl)
                  (fun () ->
                    let k = ref 0 in
                    while not (Atomic.get stop) do
                      incr k;
                      (* alternate autocommit and explicit transactions *)
                      let txn = !k mod 2 = 0 in
                      if txn then ignore (Client.exec cl "BEGIN");
                      ignore
                        (Client.exec cl
                           (Printf.sprintf
                              "UPDATE parts SET build = %d WHERE pid = %d"
                              (base + !k) pid));
                      if txn then ignore (Client.exec cl "COMMIT");
                      Atomic.set acked !k;
                      (* leave each committed state up long enough for
                         stale bytes to be served *)
                      Unix.sleepf 0.001
                    done;
                    !k))
          in
          let commits = ref 0 in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              commits := Domain.join committer)
            (fun () ->
              for i = 1 to 300 do
                let floor = Atomic.get acked in
                let got = build_of (Client.extract reader "parts_co") pid - base in
                if got < floor then
                  Alcotest.failf
                    "extraction %d shipped build +%d after commit +%d was \
                     acknowledged"
                    i got floor
              done);
          (* quiesced: a repeat that ships only same-run frames must
             equal in-process extraction.  Same runs need a stable
             stream identity, which only the result cache gives. *)
          let first, again =
            with_result_cache (fun () ->
                let first = Client.extract reader "parts_co" in
                let hits = (Server.counters t).Server.memo_hits in
                let again = Client.extract reader "parts_co" in
                Alcotest.(check int)
                  "repeat extraction served from the memo" (hits + 1)
                  (Server.counters t).Server.memo_hits;
                (first, again))
          in
          let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
          Alcotest.(check int) "last commit visible" !commits
            (build_of first pid - base);
          Alcotest.(check bool) "memo hit equals in-process extraction" true
            (H.equal reference again && H.equal reference first)))

(* -- daemon: EXPLAIN ANALYZE over the wire -------------------------------- *)

let test_analyze_over_wire () =
  with_server ~setup:org_setup (fun addr _db _t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let report =
            Client.query_analyze cl "SELECT eno FROM emp WHERE sal > 95"
          in
          List.iter
            (fun affix ->
              Alcotest.(check bool)
                ("query report has " ^ affix)
                true
                (contains ~affix report))
            [ "== plan (analyzed) =="; "act="; "rows returned:" ];
          let xreport = Client.extract_analyze cl "deps_arc" in
          List.iter
            (fun affix ->
              Alcotest.(check bool)
                ("extract report has " ^ affix)
                true
                (contains ~affix xreport))
            [ "== plans (analyzed) =="; "act="; "stream items:" ];
          (* the connection still answers plain requests afterwards *)
          check_rows "post-analyze query"
            (rows_of_ints [ [ 4 ] ])
            (Client.query_rows cl "SELECT COUNT(*) FROM emp")))

(* A recursive CO read while another session holds an open transaction
   takes the lock-free snapshot path, and the fixpoint must read the
   pinned committed state, not the other session's uncommitted rows. *)
let test_recursive_snapshot_read () =
  (* the pin is rebuilt from the delta log: pin its capacity *)
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () ->
  let bom () = Workloads.Bom.generate Workloads.Bom.default in
  let setup db =
    List.iter
      (fun tbl -> Relcore.Catalog.add_table (Db.catalog db) tbl)
      (Relcore.Catalog.tables (Db.catalog (bom ())))
  in
  with_server ~setup (fun addr _db t ->
      let reference = Xnf.Xnf_compile.run (bom ()) Workloads.Bom.assembly_query in
      let writer = Client.connect addr and reader = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close writer;
          Client.close reader)
        (fun () ->
          ignore (Client.exec writer "BEGIN");
          ignore
            (Client.exec writer "UPDATE part SET pname = 'dirty' WHERE level = 0");
          let snaps = (Server.counters t).Server.snap_reads in
          let s = Client.extract reader Workloads.Bom.assembly_query in
          Alcotest.(check bool) "served off a snapshot" true
            ((Server.counters t).Server.snap_reads > snaps);
          Alcotest.(check bool) "the snapshot read is the committed stream" true
            (H.equal reference s);
          ignore (Client.exec writer "ROLLBACK")))

(* The same read when the snapshot cannot be built (no delta log to
   rebuild the pin from) falls back to the blocking lock, and must still
   not see the other session's uncommitted rows: it gets the committed
   stream or a typed refusal. *)
let test_fallback_hides_uncommitted () =
  with_env "XNFDB_DELTA_LOG" "0" @@ fun () ->
  let bom () = Workloads.Bom.generate Workloads.Bom.default in
  let setup db =
    List.iter
      (fun tbl -> Relcore.Catalog.add_table (Db.catalog db) tbl)
      (Relcore.Catalog.tables (Db.catalog (bom ())))
  in
  with_server ~setup (fun addr _db _t ->
      let writer = Client.connect addr and reader = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close writer;
          Client.close reader)
        (fun () ->
          ignore (Client.exec writer "BEGIN");
          ignore
            (Client.exec writer "UPDATE part SET pname = 'dirty' WHERE level = 0");
          (match Client.extract reader Workloads.Bom.assembly_query with
          | s ->
            Alcotest.(check bool) "no uncommitted row reaches the reader" false
              (contains ~affix:"dirty" (H.serialize s))
          | exception Client.Server_error { kind; msg } ->
            Alcotest.(check string) "a typed refusal"
              "execution error: no committed snapshot; retry"
              (kind ^ ": " ^ msg));
          ignore (Client.exec writer "ROLLBACK")))

(* -- delta check-out ------------------------------------------------------- *)

let test_same_frame_codec () =
  List.iter
    (fun n ->
      let r = Wire.Stream_same { items = n } in
      check_response_stable (Printf.sprintf "same run of %d" n) r;
      match Wire.decode_response (payload_of (Wire.encode_response r)) with
      | Wire.Stream_same { items } -> Alcotest.(check int) "run length" n items
      | _ -> Alcotest.fail "not decoded as a same run")
    [ 0; 1; 512; 1 lsl 40; max_int ];
  List.iter
    (fun base ->
      let r = Wire.Extract { text = "parts_co"; chunk = 7; analyze = false; base } in
      check_request_stable "extract with base flag" r;
      match Wire.decode_request (payload_of (Wire.encode_request r)) with
      | Wire.Extract e -> Alcotest.(check bool) "base flag" base e.base
      | _ -> Alcotest.fail "not decoded as an extraction")
    [ false; true ];
  expect_malformed "negative same-run length" (fun () ->
      ignore (Wire.decode_response ("m" ^ varint (-1))));
  check_truncations "Stream_same"
    (payload_of (Wire.encode_response (Wire.Stream_same { items = 1 lsl 40 })))
    Wire.decode_response;
  Alcotest.(check bool) "a same run is not a chunk" true
    (Wire.decode_chunk_rev
       (payload_of (Wire.encode_response (Wire.Stream_same { items = 3 })))
       []
    = None)

(* The part row of [pid] in a parts_co stream: its position. *)
let part_index (s : H.t) pid =
  let c = H.find_comp s.H.header "xpart" in
  let ipid = Relcore.Schema.find c.H.comp_schema "pid" in
  let rec go i = function
    | H.Row { comp; values; _ } :: _
      when comp = c.H.comp_no && values.(ipid) = Relcore.Value.Int pid -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> Alcotest.failf "part %d missing from the stream" pid
  in
  go 0 s.H.items

(* The reply to a delta check-out of [s] at [chunk] whose base differs
   from [s] only at the positions [changed]: every chunk holding one of
   them in full, each run of the others as one same-run frame. *)
let delta_frames ~chunk (s : H.t) changed =
  let items = Array.of_list s.H.items in
  let n = Array.length items in
  let same k acc = if k > 0 then Wire.Stream_same { items = k } :: acc else acc in
  let rec go lo run acc =
    if lo >= n then List.rev (same run acc)
    else
      let hi = min n (lo + chunk) in
      if List.exists (fun i -> i >= lo && i < hi) changed then
        go hi 0
          (Wire.Stream_chunk (Array.to_list (Array.sub items lo (hi - lo)))
          :: same run acc)
      else go hi (run + hi - lo) acc
  in
  (Wire.Stream_header s.H.header :: go 0 0 []) @ [ Wire.Stream_end { items = n } ]

(* the reply that ships every chunk of [s] *)
let full_reply ~chunk (s : H.t) =
  delta_frames ~chunk s (List.init (H.total_items s) Fun.id)

(* [Client.extract], checked to equal [reference] and to have received
   exactly [expected]'s frames and bytes *)
let extract_expecting cl ~chunk ~reference expected msg =
  let f0 = Client.frames_in cl and b0 = Client.bytes_in cl in
  let s = Client.extract ~chunk cl "parts_co" in
  Alcotest.(check bool) (msg ^ ": equals in-process extraction") true
    (H.equal reference s);
  Alcotest.(check int) (msg ^ ": frames") (List.length expected)
    (Client.frames_in cl - f0);
  Alcotest.(check int) (msg ^ ": bytes")
    (List.fold_left
       (fun n r -> n + String.length (Wire.encode_response r))
       0 expected)
    (Client.bytes_in cl - b0)

let bump cl pid =
  ignore
    (Client.exec cl
       (Printf.sprintf "UPDATE parts SET build = build + 1 WHERE pid = %d" pid))

(* Same runs need the stream's items to survive a value-only commit
   physically, which the result cache's patch gives (off the delta
   log). *)
let with_patched_streams f =
  with_env "XNFDB_DELTA_LOG" "4096" @@ fun () -> with_result_cache f

let memo_hits t = (Server.counters t).Server.memo_hits

let test_delta_after_update () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let chunk = 100 in
          let first = Client.extract ~chunk cl "parts_co" in
          Alcotest.(check bool) "several chunks" true
            (List.length (full_reply ~chunk first) > 6);
          List.iter
            (fun pid ->
              bump cl pid;
              let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
              let hits = memo_hits t in
              extract_expecting cl ~chunk ~reference
                (delta_frames ~chunk reference [ part_index reference pid ])
                (Printf.sprintf "after updating part %d" pid);
              Alcotest.(check int) "counted as a delta" (hits + 1) (memo_hits t))
            [ 1; 150; 300 ];
          (* nothing changed: one same run *)
          let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
          extract_expecting cl ~chunk ~reference
            (delta_frames ~chunk reference [])
            "unchanged repeat"))

(* A workspace loaded from a check-out edits its own copy: the client's
   stream, which is the base of its next delta check-out, stays as it
   was, so the repeat ships as one same run and decodes right. *)
let test_delta_after_local_edits () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db _t ->
      let cl = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let chunk = 100 in
          let first = Client.extract ~chunk cl "parts_co" in
          let copy = H.deserialize (H.serialize first) in
          let module Ws = Cocache.Workspace in
          let ws = Ws.of_stream first in
          let part i = List.nth (Ws.nodes ws "xpart") i in
          Ws.update ws (part 0) [ ("x", Relcore.Value.Int (-5)) ];
          ignore (Ws.connect ws ~rel:"link" (part 1) (part 2));
          (match Cocache.Conode.children (part 3) ~rel:"link" with
          | c :: _ -> Ws.disconnect ws ~rel:"link" (part 3) c
          | [] -> Alcotest.fail "part 3 has no link");
          Ws.delete ws (part 4);
          Alcotest.(check bool) "the checked-out stream is unchanged" true
            (H.equal copy first);
          let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
          extract_expecting cl ~chunk ~reference
            (delta_frames ~chunk reference [])
            "repeat after local edits"))

(* A frame relay in front of the daemon at [upstream] for one client.
   While [tamper] holds a function, each reply frame's payload passes
   through it: [Some p] sends [p] in that frame's place and swallows the
   rest of the reply, so the client meets an error or a bad frame
   mid-stream while the connection stays in step. *)
let with_relay upstream f =
  let path = next_sock () in
  let addr = Unix.ADDR_UNIX path in
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd addr;
  Unix.listen lfd 1;
  let tamper : (string -> string option) option Atomic.t = Atomic.make None in
  let streaming p =
    match Wire.decode_response p with
    | Wire.Row_header _ | Wire.Row_batch _ | Wire.Stream_header _
    | Wire.Stream_chunk _ | Wire.Stream_same _ ->
      true
    | _ -> false
  in
  let relay () =
    let cfd, _ = Unix.accept ~cloexec:true lfd in
    let sfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec reply () =
      let p = Wire.recv_payload sfd in
      match Option.bind (Atomic.get tamper) (fun f -> f p) with
      | Some p' ->
        Wire.send_frame cfd (Wire.frame p');
        swallow p
      | None ->
        Wire.send_frame cfd (Wire.frame p);
        if streaming p then reply ()
    and swallow p = if streaming p then swallow (Wire.recv_payload sfd) in
    Fun.protect
      ~finally:(fun () ->
        Unix.close cfd;
        Unix.close sfd)
      (fun () ->
        try
          Unix.connect sfd upstream;
          while true do
            Wire.send_frame sfd (Wire.frame (Wire.recv_payload cfd));
            reply ()
          done
        with Wire.Connection_lost -> ())
  in
  let d = Domain.spawn relay in
  Fun.protect
    ~finally:(fun () ->
      (* a body that failed before connecting leaves the relay in
         [accept]: a connection that closes at once lets it finish *)
      (try
         let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd addr with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Domain.join d;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f addr tamper)

(* a tamper that replaces the first frame after the stream header *)
let after_header (r : Wire.response) p =
  match Wire.decode_response p with
  | Wire.Stream_header _ -> None
  | _ -> Some (payload_of (Wire.encode_response r))

let test_delta_error_mid_stream () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db t ->
      with_relay addr (fun raddr tamper ->
          let cl = Client.connect raddr in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              let chunk = 100 in
              ignore (Client.extract ~chunk cl "parts_co");
              bump cl 7;
              (* the daemon finishes this reply and keeps its base; the
                 client meets an error after the header *)
              Atomic.set tamper
                (Some (after_header (Wire.Error { kind = "relay"; msg = "cut" })));
              (match Client.extract ~chunk cl "parts_co" with
              | _ -> Alcotest.fail "the cut extraction returned"
              | exception Client.Server_error { kind = "relay"; _ } -> ());
              Atomic.set tamper None;
              (* one round trip: the relay forwards it only after it has
                 swallowed the cut reply to its end, so the daemon has
                 counted that reply before [hits] is read *)
              ignore (Client.stats cl);
              let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
              let hits = memo_hits t in
              let s = Client.extract ~chunk cl "parts_co" in
              Alcotest.(check bool) "the next extraction is correct" true
                (H.equal reference s);
              Alcotest.(check int) "and ships in full" hits (memo_hits t);
              (* which re-establishes the base on both sides *)
              extract_expecting cl ~chunk ~reference
                (delta_frames ~chunk reference [])
                "repeat after the full shipment")))

let test_delta_same_past_base () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db _t ->
      with_relay addr (fun raddr tamper ->
          let cl = Client.connect raddr in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              let chunk = 100 in
              let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
              let n = H.total_items reference in
              ignore (Client.extract ~chunk cl "parts_co");
              let expect_malformed_extract msg r =
                Atomic.set tamper (Some (after_header r));
                expect_malformed msg (fun () ->
                    ignore (Client.extract ~chunk cl "parts_co"));
                Atomic.set tamper None
              in
              expect_malformed_extract "a same run past the base's end"
                (Wire.Stream_same { items = n + 1 });
              (* the Malformed dropped the base: any same run is past it *)
              expect_malformed_extract "a same run with no base"
                (Wire.Stream_same { items = 1 });
              extract_expecting cl ~chunk ~reference
                (full_reply ~chunk reference)
                "full shipment after the bad frames")))

let test_delta_two_sessions () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db _t ->
      let a = Client.connect addr
      and b = Client.connect addr
      and w = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close [ a; b; w ])
        (fun () ->
          (* different chunks too: each session's base is its own *)
          let sessions = [| (a, 100, ref []); (b, 64, ref []) |] in
          Array.iter
            (fun (cl, chunk, _) -> ignore (Client.extract ~chunk cl "parts_co"))
            sessions;
          List.iteri
            (fun k pid ->
              bump w pid;
              Array.iter (fun (_, _, pending) -> pending := pid :: !pending) sessions;
              (* one session checks out after each commit, in turn *)
              let cl, chunk, pending = sessions.(k mod 2) in
              let reference = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
              extract_expecting cl ~chunk ~reference
                (delta_frames ~chunk reference
                   (List.map (part_index reference) !pending))
                (Printf.sprintf "session %d after commit %d" (k mod 2) k);
              pending := [])
            [ 3; 290; 120; 45; 200 ]))

let test_delta_snapshot_read () =
  with_patched_streams @@ fun () ->
  with_server ~setup:oo1_setup (fun addr db t ->
      let reader = Client.connect addr and writer = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close writer;
          Client.close reader)
        (fun () ->
          let chunk = 100 in
          let committed = Xnf.Xnf_compile.run_view ~cache:false db "parts_co" in
          ignore (Client.extract ~chunk reader "parts_co");
          ignore (Client.exec writer "BEGIN");
          bump writer 5;
          (* another session's uncommitted row: served off a snapshot,
             which ships every chunk although the reader has a base *)
          let snaps = (Server.counters t).Server.snap_reads in
          let hits = memo_hits t in
          extract_expecting reader ~chunk ~reference:committed
            (full_reply ~chunk committed)
            "snapshot read";
          Alcotest.(check bool) "served off a snapshot" true
            ((Server.counters t).Server.snap_reads > snaps);
          Alcotest.(check int) "no same run" hits (memo_hits t);
          ignore (Client.exec writer "ROLLBACK");
          (* the snapshot's items are the base now: they share nothing
             with the cached stream, so the next read ships whole *)
          extract_expecting reader ~chunk ~reference:committed
            (full_reply ~chunk committed)
            "first read off the lock";
          extract_expecting reader ~chunk ~reference:committed
            (delta_frames ~chunk committed [])
            "repeat off the lock"))

let suite =
  [
    Alcotest.test_case "codec: empty frames" `Quick test_empty_batch;
    Alcotest.test_case "codec: schema frame" `Quick test_schema_frame;
    Alcotest.test_case "codec: float sign bits" `Quick test_float_sign_bits;
    Alcotest.test_case "codec: stream frames" `Quick test_stream_frames_roundtrip;
    Alcotest.test_case "codec: malformed payloads" `Quick test_malformed_payloads;
    Alcotest.test_case "codec: one-pass framing" `Quick test_one_pass_framing;
    QCheck_alcotest.to_alcotest prop_row_batch_stable;
    QCheck_alcotest.to_alcotest prop_requests_stable;
    QCheck_alcotest.to_alcotest prop_scalar_responses_stable;
    Alcotest.test_case "daemon: query equivalence" `Quick
      test_query_matches_inprocess;
    Alcotest.test_case "daemon: extract equivalence" `Quick
      test_extract_matches_inprocess;
    Alcotest.test_case "daemon: DML and transactions" `Quick test_dml_and_txn;
    Alcotest.test_case "daemon: DDL and COMMIT by first token" `Quick
      test_statement_class_by_token;
    Alcotest.test_case "daemon: concurrent sessions" `Quick
      test_concurrent_sessions;
    Alcotest.test_case "daemon: crash isolation" `Quick test_crash_isolation;
    Alcotest.test_case "daemon: malformed frame" `Quick
      test_malformed_frame_closes_session_only;
    Alcotest.test_case "daemon: oversized frame" `Quick test_oversized_frame;
    Alcotest.test_case "daemon: hello version" `Quick
      test_hello_version_mismatch;
    Alcotest.test_case "daemon: stats and counters" `Quick
      test_stats_and_counters;
    Alcotest.test_case "daemon: max sessions" `Quick test_max_sessions;
    Alcotest.test_case "daemon: shutdown rolls back" `Quick
      test_shutdown_rolls_back_check;
    Alcotest.test_case "daemon: analyze over the wire" `Quick
      test_analyze_over_wire;
    Alcotest.test_case "daemon: frame memo vs racing commits" `Quick
      test_memo_race;
    Alcotest.test_case "daemon: recursive CO off a snapshot" `Quick
      test_recursive_snapshot_read;
    Alcotest.test_case "daemon: lock fallback hides uncommitted rows" `Quick
      test_fallback_hides_uncommitted;
    Alcotest.test_case "codec: varint round-trip and bytes" `Quick
      test_varint_roundtrip;
    Alcotest.test_case "codec: chunk writer" `Quick test_chunk_writer;
    Alcotest.test_case "codec: every truncation is Malformed" `Quick
      test_truncated_payloads;
    Alcotest.test_case "codec: same-run frame and base flag" `Quick
      test_same_frame_codec;
    Alcotest.test_case "daemon: delta check-out after a one-row UPDATE" `Quick
      test_delta_after_update;
    Alcotest.test_case "daemon: delta check-out after local workspace edits"
      `Quick test_delta_after_local_edits;
    Alcotest.test_case "daemon: delta check-out after an error mid-stream"
      `Quick test_delta_error_mid_stream;
    Alcotest.test_case "daemon: same run past the base is Malformed" `Quick
      test_delta_same_past_base;
    Alcotest.test_case "daemon: two sessions keep their own bases" `Quick
      test_delta_two_sessions;
    Alcotest.test_case "daemon: snapshot-served read ships in full" `Quick
      test_delta_snapshot_read;
  ]
