(** Checks on the benchmark's own arithmetic: the percentile rule, span
    self times, and that the traced compile split builds the same plans
    as the compiler itself. *)

module S = Pb_stats
module T = Pb_trace

let failures = ref 0

(* silent on success: only failures print *)
let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* a percentile is emitted only with >= 10 samples beyond it *)
let () =
  check "p50 needs 20 samples" (S.min_samples 50.0 = 20);
  check "p95 needs 200 samples" (S.min_samples 95.0 = 200);
  check "p99 needs 1000 samples" (S.min_samples 99.0 = 1000);
  let a n = Array.init n float_of_int in
  check "p95 of 199 samples withheld" (S.percentile (a 199) 95.0 = None);
  check "p95 of 200 samples is rank 190" (S.percentile (a 200) 95.0 = Some 189.0);
  check "p50 of 19 samples withheld" (S.percentile (a 19) 50.0 = None);
  check "p50 of 20 samples is rank 10" (S.percentile (a 20) 50.0 = Some 9.0);
  check "beyond counts samples above the rank" (S.beyond 200 95.0 = 10);
  let shuffled = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check "median of odd list" (close (S.median (Array.to_list shuffled)) 3.0);
  check "median of even list" (close (S.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5)

(* the sample buffer grows past its first block and keeps every value *)
let () =
  let s = S.Samples.create () in
  for i = 1 to 3000 do
    S.Samples.add s (float_of_int i)
  done;
  check "buffer keeps every sample" (S.Samples.count s = 3000);
  check "buffer sums every sample" (close (S.Samples.sum s) 4501500.0);
  check "p50 over the grown buffer" (S.percentile (S.Samples.values s) 50.0 = Some 1500.0)

(* self time equals span minus children *)
let () =
  let mk id parent t0 t1 = { T.name = "s" ^ string_of_int id; id; parent; req = 0; t0; t1 } in
  let spans =
    [ mk 0 (-1) 0.0 10.0; mk 1 0 1.0 3.0; mk 2 0 5.0 6.0; mk 3 1 1.5 2.0; mk 4 (-1) 20.0 21.0 ]
  in
  let self = T.self_times spans in
  let of_id i = snd (List.find (fun ((s : T.span), _) -> s.T.id = i) self) in
  check "root self = 10 - (2 + 1)" (close (of_id 0) 7.0);
  check "child self = 2 - grandchild 0.5" (close (of_id 1) 1.5);
  check "leaf self = duration" (close (of_id 2) 1.0);
  check "other root untouched" (close (of_id 4) 1.0);
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 self in
  check "self times add up to root durations" (close sum 11.0);
  check "overlapping children count once"
    (close (T.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 5.0); (9.0, 12.0) ]) 5.0);
  (* the live recorder: nested spans, then aggregation by name *)
  T.enabled := true;
  T.span "outer" (fun () -> T.span "inner" (fun () -> Unix.sleepf 0.002));
  T.enabled := false;
  let live = T.collect () in
  let outer = List.find (fun (s : T.span) -> s.T.name = "outer") live in
  let inner = List.find (fun (s : T.span) -> s.T.name = "inner") live in
  check "recorder links child to parent" (inner.T.parent = outer.T.id && inner.T.req = outer.T.id);
  check "recorder self time = outer - inner"
    (close (List.assq outer (T.self_times live))
       (outer.T.t1 -. outer.T.t0 -. (inner.T.t1 -. inner.T.t0)))

(* taking turns pins the thread to one CPU at a time; release undoes it *)
let () =
  let n = Array.length Pb_cpu.cpus in
  if n > 1 then begin
    for k = 0 to n do
      Pb_cpu.turn k;
      check "turn pins one CPU" (Pb_cpu.allowed () = [| Pb_cpu.cpus.(k mod n) |])
    done;
    Pb_cpu.release ();
    check "release restores every CPU" (Pb_cpu.allowed () = Pb_cpu.cpus)
  end

(* the traced compile split yields the compiler's plans *)
let () =
  let db = Workloads.Oo1.generate { Workloads.Oo1.default with Workloads.Oo1.n_parts = 600 } in
  let text =
    "OUT OF ROOT xpart AS (SELECT * FROM parts WHERE pid >= 100 AND pid < 300),\n\
    \       link AS (RELATE xpart VIA SRC, xpart USING conns c\n\
    \                WHERE src.pid = c.cfrom AND c.cto = xpart.pid)\n\
     TAKE *"
  in
  List.iter
    (fun (label, text, db) ->
      let real = Xnf.Xnf_compile.compile ~cache:false db text in
      let split = Pb_split.compile db text in
      check (label ^ ": same plan fingerprints")
        (Pb_split.fingerprints real = Pb_split.fingerprints split);
      let header_bytes (c : Xnf.Xnf_compile.compiled) =
        let b = Buffer.create 256 in
        Xnf.Hetstream.write_header b c.Xnf.Xnf_compile.header;
        Buffer.contents b
      in
      check (label ^ ": same header") (header_bytes real = header_bytes split);
      let ctx = Executor.Exec.make_ctx ~result_cache:false () in
      let s =
        if split.Xnf.Xnf_compile.recursive then Xnf.Xnf_compile.extract ~cache:false split
        else Pb_split.extract ~ctx split
      in
      check (label ^ ": same stream")
        (Xnf.Hetstream.equal s (Xnf.Xnf_compile.extract ~cache:false real)))
    [
      ("oo1 window", text, db);
      ("oo1 parts graph", Workloads.Oo1.parts_graph_query, db);
      ( "bom (recursive)",
        Workloads.Bom.assembly_query,
        Workloads.Bom.generate Workloads.Bom.default );
    ]

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
