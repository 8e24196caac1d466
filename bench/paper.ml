(* The paper's own timing figures (Pirahesh et al., Information Systems
   19(1), 1994), measured in one run and written to BENCH_paper.json:

     F3   Fig. 3 / Sect. 3.2: existential subquery, naive evaluation vs
          the E-to-F join rewrite
     F56  Fig. 5/6: cross-output common-subexpression sharing on vs off
     E1   Sect. 1: one set-oriented XNF query vs one SQL query per
          component vs the navigational walk (one query per parent)
     E3   Sect. 5: bulk shipping vs one tuple per frame over the
          daemon's real socket

   Every comparison first checks that its strategies return the same
   result; a disagreement exits 1.  Timings are medians over a few
   repeats and carry no gates: the counts behind these claims are
   asserted in the test suite, end-to-end speed lives in perfbench/.
   EXPERIMENTS.md quotes this artifact, and a runtest check
   (check_figures) keeps its quotes equal to the committed file.

   Run from the directory that should receive BENCH_paper.json:
     dune build bench/paper.exe && ./_build/default/bench/paper.exe *)

module Db = Engine.Database
module H = Xnf.Hetstream

let repeats = 5

(** Median wall-clock milliseconds of [f x] over [repeats] runs, after
    one warm-up run; each run gets a fresh [x = setup ()], untimed and
    handed to [teardown] afterwards. *)
let time_ms_on ~setup ~teardown f =
  let run () =
    let x = setup () in
    Fun.protect
      ~finally:(fun () -> teardown x)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        ignore (f x);
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  ignore (run ());
  let samples = List.init repeats (fun _ -> run ()) |> List.sort compare in
  List.nth samples (repeats / 2)

let time_ms f = time_ms_on ~setup:ignore ~teardown:ignore f

(* -- figures ------------------------------------------------------------ *)

(* (key, value, decimals), in emission order *)
let figures : (string * float * int) list ref = ref []

let fig key ?(decimals = 3) v = figures := (key, v, decimals) :: !figures
let count key n = fig key ~decimals:0 (float_of_int n)

let disagreements = ref []

let agree what ok =
  if not ok then begin
    Printf.printf "  DISAGREE: %s\n%!" what;
    disagreements := what :: !disagreements
  end

let header title = Printf.printf "\n%s\n%s\n%!" title (String.make 72 '-')

let org n_depts = Workloads.Org.generate { Workloads.Org.default with n_depts }

(* -- F3 ----------------------------------------------------------------- *)

let exists_query =
  "SELECT eno FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE d.loc = \
   'ARC' AND d.dno = e.edno)"

let bench_f3 () =
  header "F3  existential subquery: naive vs E-to-F join rewrite";
  Printf.printf "%-8s %8s %12s %12s %9s\n" "depts" "rows" "naive ms"
    "rewrite ms" "speedup";
  List.iter
    (fun n ->
      let db =
        Workloads.Org.generate
          {
            Workloads.Org.default with
            n_depts = n;
            emps_per_dept = 20;
            indexes = false;
          }
      in
      let naive = Db.compile_query ~rewrite:false db exists_query in
      let fast = Db.compile_query ~rewrite:true db exists_query in
      let rows = Executor.Exec.run fast in
      agree
        (Printf.sprintf "F3 at %d depts: naive and rewritten rows" n)
        (List.sort compare rows
        = List.sort compare (Executor.Exec.run naive));
      let t_naive = time_ms (fun () -> Executor.Exec.run naive) in
      let t_fast = time_ms (fun () -> Executor.Exec.run fast) in
      let k = Printf.sprintf "f3.d%d." n in
      count (k ^ "rows") (List.length rows);
      fig (k ^ "naive_ms") t_naive;
      fig (k ^ "rewrite_ms") t_fast;
      fig (k ^ "speedup") ~decimals:1 (t_naive /. t_fast);
      Printf.printf "%-8d %8d %12.3f %12.3f %8.1fx\n" n (List.length rows)
        t_naive t_fast (t_naive /. t_fast))
    [ 20; 50; 100; 200 ]

(* -- F56 ---------------------------------------------------------------- *)

let bench_f56 () =
  header "F56 common-subexpression sharing across the multi-table query";
  Printf.printf "%-8s %11s %11s %15s %15s\n" "depts" "shared ms" "no-CSE ms"
    "rows (shared)" "rows (no CSE)";
  List.iter
    (fun n ->
      let db = org n in
      (* result cache off: the ablation measures executor work *)
      let run ~share () =
        let ctx = Executor.Exec.make_ctx ~result_cache:false () in
        let c = Xnf.Xnf_compile.compile ~share db Workloads.Org.deps_arc_query in
        let s = Xnf.Xnf_compile.extract ~ctx ~cache:false c in
        (s, ctx.Executor.Exec.rows_scanned)
      in
      let s_on, rows_on = run ~share:true () in
      let s_off, rows_off = run ~share:false () in
      agree
        (Printf.sprintf "F56 at %d depts: shared and unshared streams" n)
        (H.equal s_on s_off);
      let t_on = time_ms (run ~share:true) in
      let t_off = time_ms (run ~share:false) in
      let k = Printf.sprintf "f56.d%d." n in
      fig (k ^ "shared_ms") t_on;
      fig (k ^ "unshared_ms") t_off;
      count (k ^ "rows_scanned_shared") rows_on;
      count (k ^ "rows_scanned_unshared") rows_off;
      Printf.printf "%-8d %11.3f %11.3f %15d %15d\n" n t_on t_off rows_on
        rows_off)
    [ 25; 50; 100 ]

(* -- E1 ----------------------------------------------------------------- *)

let bench_e1 () =
  header "E1  set-oriented XNF extraction vs per-component SQL vs N+1 queries";
  Printf.printf "%-8s %-26s %11s %9s\n" "depts" "strategy" "ms" "queries";
  List.iter
    (fun n ->
      let db = org n in
      let text = Workloads.Org.deps_arc_query in
      let ast = Xnf.Xnf_parser.parse text in
      let sorted l = List.sort compare l in
      let xnf = sorted (H.counts (Xnf.Xnf_compile.run ~cache:false db text)) in
      let sql = Xnf.Sql_derivation.extract db ast in
      let nav_p = Xnf.Navigational.extract ~mode:`Prepared db ast in
      let nav_t = Xnf.Navigational.extract ~mode:`Sql_text db ast in
      let what = Printf.sprintf "E1 at %d depts: component counts" n in
      agree what
        (xnf = sorted (List.map (fun (c, rows) -> (c, List.length rows)) sql));
      agree what (xnf = sorted nav_p.Xnf.Navigational.counts);
      agree what (xnf = sorted nav_t.Xnf.Navigational.counts);
      let k = Printf.sprintf "e1.d%d." n in
      let line name key queries f =
        let t = time_ms f in
        fig (k ^ key ^ "_ms") t;
        count (k ^ key ^ "_queries") queries;
        Printf.printf "%-8s %-26s %11.3f %9d\n"
          (if key = "xnf" then string_of_int n else "")
          name t queries
      in
      (* every strategy compiles its queries on every run, and no result
         comes from a cache: E1 measures extraction work, not cache hits *)
      line "XNF (one compiled query)" "xnf" 1 (fun () ->
          Xnf.Xnf_compile.run ~cache:false db text);
      line "SQL per component" "sql" (List.length sql) (fun () ->
          Xnf.Sql_derivation.extract db ast);
      line "navigational (prepared)" "nav_prepared"
        nav_p.Xnf.Navigational.queries_executed (fun () ->
          Xnf.Navigational.extract ~mode:`Prepared db ast);
      line "navigational (SQL text)" "nav_sql_text"
        nav_t.Xnf.Navigational.queries_executed (fun () ->
          Db.invalidate_plans db;
          Xnf.Navigational.extract ~mode:`Sql_text db ast))
    [ 10; 30; 100 ]

(* -- E3 ----------------------------------------------------------------- *)

let bench_e3 () =
  header "E3  bulk shipping vs one tuple per frame over the daemon's socket";
  let n_parts = 2_000 in
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with n_parts } in
  ignore
    (Db.exec db ("CREATE VIEW parts_co AS " ^ Workloads.Oo1.parts_graph_query));
  let reference = Xnf.Xnf_compile.run_view db "parts_co" in
  let ref_bytes = H.serialize reference in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xnfdb_paper_%d.sock" (Unix.getpid ()))
  in
  let server =
    Net.Server.create
      ~config:(Net.Server.default_config ~addr:(Unix.ADDR_UNIX sock) ())
      db
  in
  let server_domain = Domain.spawn (fun () -> Net.Server.serve server) in
  let cl = Net.Client.connect ~client_name:"paper" (Unix.ADDR_UNIX sock) in
  (* one shipment: its stream, frames and bytes received *)
  let ship ?chunk () =
    let f0 = Net.Client.frames_in cl and b0 = Net.Client.bytes_in cl in
    let s = Net.Client.extract ?chunk cl "parts_co" in
    (s, Net.Client.frames_in cl - f0, Net.Client.bytes_in cl - b0)
  in
  let bulk, bulk_frames, bulk_bytes = ship () in
  let tuple, tuple_frames, tuple_bytes = ship ~chunk:1 () in
  agree "E3: bulk stream equals the in-process extraction"
    (String.equal (H.serialize bulk) ref_bytes);
  agree "E3: per-tuple stream equals the in-process extraction"
    (String.equal (H.serialize tuple) ref_bytes);
  Net.Client.close cl;
  (* each sample on a connection of its own: a repeat on one connection
     would ship only same-run frames for the chunks it already holds *)
  let time_shipping ?chunk () =
    time_ms_on
      ~setup:(fun () ->
        Net.Client.connect ~client_name:"paper" (Unix.ADDR_UNIX sock))
      ~teardown:Net.Client.close
      (fun cl -> Net.Client.extract ?chunk cl "parts_co")
  in
  let t_bulk = time_shipping () in
  let t_tuple = time_shipping ~chunk:1 () in
  Net.Server.stop server;
  Domain.join server_domain;
  (try Sys.remove sock with Sys_error _ -> ());
  let items = H.total_items reference in
  count "e3.items" items;
  count "e3.bulk_frames" bulk_frames;
  count "e3.tuple_frames" tuple_frames;
  count "e3.bulk_bytes" bulk_bytes;
  count "e3.tuple_bytes" tuple_bytes;
  fig "e3.bulk_ms" t_bulk;
  fig "e3.tuple_ms" t_tuple;
  fig "e3.speedup" ~decimals:1 (t_tuple /. t_bulk);
  Printf.printf "OO1 parts graph, %d parts, %d stream items\n" n_parts items;
  Printf.printf "%-22s %8s %10s %10s\n" "strategy" "frames" "bytes" "ms";
  Printf.printf "%-22s %8d %10d %10.3f\n" "bulk (chunked stream)" bulk_frames
    bulk_bytes t_bulk;
  Printf.printf "%-22s %8d %10d %10.3f\n" "one tuple per frame" tuple_frames
    tuple_bytes t_tuple

(* -- artifact ----------------------------------------------------------- *)

let git_rev () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let rev = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic : Unix.process_status);
    rev
  with _ -> "unknown"

(* one "key": value per line: check_figures reads it back line by line *)
let write_artifact file =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"paper\",\n\
    \  \"meta\": { \"git_rev\": %S, \"host_cores\": %d, \"ocaml\": %S, \
     \"repeats\": %d },\n\
    \  \"figures\": {\n"
    (git_rev ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version repeats;
  let figs = List.rev !figures in
  List.iteri
    (fun i (key, v, decimals) ->
      Printf.fprintf oc "    %S: %.*f%s\n" key decimals v
        (if i = List.length figs - 1 then "" else ","))
    figs;
  output_string oc "  }\n}\n";
  close_out oc

let () =
  print_endline
    "Paper figures (Pirahesh et al., Information Systems 19(1), 1994)";
  bench_f3 ();
  bench_f56 ();
  bench_e1 ();
  bench_e3 ();
  write_artifact "BENCH_paper.json";
  print_endline "\nwrote BENCH_paper.json";
  match !disagreements with
  | [] -> ()
  | ds ->
    Printf.printf "FAIL: %d comparisons disagreed on results\n"
      (List.length ds);
    exit 1
