(** [co_checkout]: the paper's main path, embedded, one thread, no
    daemon.  One op is an engineer's full cycle: check out a CO (a fresh
    2,000-part window of the OO1 parts graph, or every 4th op the
    recursive bill of materials), load it into the CO cache, navigate
    it, edit about 10 nodes and check the edits back in.

    Every window's text is new, so the compiled-query cache and the
    result cache miss; the windows left behind fill the 64 MB result
    cache, and warm-up runs until it evicts, so timing starts in the
    steady state where each check-out also pays an eviction.

    The one thread takes turns on the process's CPUs ({!Pb_cpu}), so a
    run measures all of them rather than the one the scheduler chose. *)

open Relcore
module X = Xnf.Xnf_compile
module H = Xnf.Hetstream
module Db = Engine.Database
module Ws = Cocache.Workspace
module Rng = Workloads.Rng
module Oo1 = Workloads.Oo1
module R = Pb_run

let n_parts = 50_000
let window = 2_000
let edits = 10
let lookups = 200
let verify_every = 32

let bom_params seed =
  {
    Workloads.Bom.n_assemblies = 20;
    levels = 6;
    children_per_part = 3;
    share_prob = 0.15;
    seed;
  }

let window_query lo =
  Printf.sprintf
    "OUT OF ROOT xpart AS (SELECT * FROM parts WHERE pid >= %d AND pid < %d),\n\
    \       link AS (RELATE xpart VIA SRC, xpart USING conns c\n\
    \                WHERE src.pid = c.cfrom AND c.cto = xpart.pid)\n\
     TAKE *"
    lo (lo + window)

let span = Pb_trace.span

type env = {
  oo1 : Db.t;
  bom : Db.t;
  rng : Rng.t;
  used : (int, unit) Hashtbl.t; (* window starts already checked out *)
  (* traced run: executor counters summed over every check-out *)
  mutable rows_scanned : int;
  mutable batches : int;
  mutable chunks_scanned : int;
  mutable chunks_skipped : int;
  mutable items : int;
  mutable rates : Pb_stats.Samples.t; (* OO1 traversal visits/s per window op *)
  mutable flush_stmts : int;
  mutable checkins : int;
}

let fresh_window e =
  let rec go () =
    let lo = 1 + Rng.int e.rng (n_parts - window) in
    if Hashtbl.mem e.used lo then go ()
    else begin
      Hashtbl.add e.used lo ();
      lo
    end
  in
  go ()

let pid (n : Cocache.Conode.t) = Value.as_int n.Cocache.Conode.values.(0)

(** OO1 depth-7 traversals from random parts of a loaded CO until at
    least [traverse_visits] part visits; adds the visit rate to
    [rates].  A fixed volume keeps the timed span well above the
    clock's resolution on small COs. *)
let traverse_visits = 4096

let traverse rng (nodes : Cocache.Conode.t array) rates =
  let t0 = R.now () in
  let v = ref 0 in
  while !v < traverse_visits do
    let start = nodes.(Workloads.Rng.int rng (Array.length nodes)) in
    v := !v + Workloads.Oo1.traverse start ~depth:7
  done;
  Pb_stats.Samples.add rates (float_of_int !v /. (R.now () -. t0))

(** Pick [k] distinct nodes of a component. *)
let pick_nodes rng nodes k =
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  for i = 0 to min k n - 1 do
    let j = i + Rng.int rng (n - i) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list (Array.sub arr 0 (min k n))

(** Visits of a depth-first walk of one assembly's whole structure
    (shared subparts visited once per path). *)
let bom_visits (root : Cocache.Conode.t) =
  let rec sub node =
    List.fold_left (fun acc ch -> acc + sub ch) 1 (Cocache.Conode.children node ~rel:"subconn")
  in
  List.fold_left (fun acc ch -> acc + sub ch) 1 (Cocache.Conode.children root ~rel:"topconn")

(** A sampled op's checks.  Before the edit: the stream the op loaded is
    identical to an uncached recompute.  After the check-in (put-get):
    re-extracting through the normal path shows every edited value, and
    that stream is identical to an uncached recompute too. *)
let check_before c s = H.equal s (X.extract ~cache:false c)

let check_after c ~col (edited : (int * Value.t) list) =
  let again = X.extract c in
  let ws = Ws.of_stream again in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n -> Hashtbl.replace seen (pid n) (Ws.get ws n col))
    (Ws.nodes ws "xpart");
  H.equal again (X.extract ~cache:false c)
  && List.for_all (fun (p, v) -> Hashtbl.find_opt seen p = Some v) edited

(** One engineer cycle.  Returns (checkout seconds, commit seconds,
    verification seconds, ok). *)
let op e ~traced ~verify k =
  let bom_op = k mod 4 = 3 in
  let db = if bom_op then e.bom else e.oo1 in
  let text = if bom_op then Workloads.Bom.assembly_query else window_query (fresh_window e) in
  (* each CPU in turn runs a whole cycle of 4 ops: 3 windows and the BOM *)
  Pb_cpu.turn (k / 4);
  let t0 = R.now () in
  let c, s =
    if traced then begin
      let c = Pb_split.compile db text in
      let s =
        if c.X.recursive then span "xnf.recursive" (fun () -> X.extract c)
        else begin
          let ctx = Executor.Exec.make_ctx () in
          let s = Pb_split.extract ~ctx c in
          e.rows_scanned <- e.rows_scanned + ctx.Executor.Exec.rows_scanned;
          e.batches <- e.batches + ctx.Executor.Exec.batches_emitted;
          e.chunks_scanned <- e.chunks_scanned + ctx.Executor.Exec.chunks_scanned;
          e.chunks_skipped <- e.chunks_skipped + ctx.Executor.Exec.chunks_skipped;
          s
        end
      in
      (c, s)
    end
    else begin
      let c = X.compile db text in
      (c, X.extract c)
    end
  in
  let ws = span "cocache.load" (fun () -> Ws.of_stream s) in
  let t_checkout = R.now () -. t0 in
  e.items <- e.items + H.total_items s;
  let vt0 = R.now () in
  let ok_before = (not verify) || span R.verify_span (fun () -> check_before c s) in
  let v_before = R.now () -. vt0 in
  (* navigate *)
  span "cocache.navigate" (fun () ->
      if bom_op then
        ignore (List.fold_left (fun a n -> a + bom_visits n) 0 (Ws.nodes ws "asmroot"))
      else begin
        let index = Oo1.build_pid_index ws in
        traverse e.rng (Array.of_list (Ws.nodes ws "xpart")) e.rates;
        ignore (Oo1.lookup ~index ~rng:e.rng ~n_parts ~n:lookups)
      end);
  (* edit and check in *)
  let col = if bom_op then "pname" else "x" in
  let edited =
    List.map
      (fun n ->
        let v =
          if bom_op then Value.Str (Printf.sprintf "part%d-r%d" (pid n) k)
          else Value.Int (Value.as_int (Ws.get ws n "x") + 1 + k)
        in
        Ws.update ws n [ (col, v) ];
        (pid n, v))
      (pick_nodes e.rng (Ws.nodes ws "xpart") edits)
  in
  let t1 = R.now () in
  let stmts = span "cocache.flush" (fun () -> Cocache.Update.flush_atomic db c.X.ast ws) in
  let t_commit = R.now () -. t1 in
  e.flush_stmts <- e.flush_stmts + List.length stmts;
  e.checkins <- e.checkins + 1;
  let vt1 = R.now () in
  let ok_after = (not verify) || span R.verify_span (fun () -> check_after c ~col edited) in
  let v_after = R.now () -. vt1 in
  (t_checkout, t_commit, v_before +. v_after, ok_before && ok_after)

(** Set-up repetition [k] runs on CPU [k] in turn. *)
let setup seed =
  let rep = ref 0 in
  fun () ->
    Pb_cpu.turn !rep;
    incr rep;
    let oo1 = Oo1.generate { Oo1.default with Oo1.n_parts; seed } in
    let bom = Workloads.Bom.generate (bom_params seed) in
    (oo1, bom)

let teardown _ =
  Executor.Result_cache.clear ();
  Xnf.Xnf_ivm.reset ()

(** Warm-up bound: ops until the result cache has evicted, within this
    many seconds. *)
let warmup_cap_s = 60.0

let run ~seed ~seconds ~traced : R.t =
  let setups, (oo1, bom) = R.timed_setups ~setup:(setup seed) ~teardown in
  (* the benchmark clock stops while the benchmark checks outputs *)
  let verify_s = ref 0.0 in
  let samples = Pb_stats.Samples.create in
  let e =
    {
      oo1;
      bom;
      rng = Rng.create (seed * 7919 + 1);
      used = Hashtbl.create 4096;
      rows_scanned = 0;
      batches = 0;
      chunks_scanned = 0;
      chunks_skipped = 0;
      items = 0;
      rates = samples ();
      flush_stmts = 0;
      checkins = 0;
    }
  in
  (* warm-up: untraced, until the result cache is full and evicting *)
  let w0 = R.now () in
  let wops = ref 0 in
  let evictions () = (Executor.Result_cache.stats ()).Executor.Result_cache.evictions in
  let ev0 = evictions () in
  while (evictions () = ev0 || !wops < 8) && R.now () -. w0 < warmup_cap_s do
    ignore (op e ~traced:false ~verify:false !wops);
    incr wops
  done;
  let warm_s = R.now () -. w0 in
  let warm_evicting = evictions () > ev0 in
  (* measured loop *)
  e.items <- 0;
  e.rates <- samples ();
  e.flush_stmts <- 0;
  e.checkins <- 0;
  if traced then begin
    Pb_trace.enabled := true;
    Pb_trace.reset ();
    Pb_gc.reset ()
  end;
  let rc0 = Executor.Result_cache.stats () in
  let gc0 = Gc.quick_stat () in
  let checkout = samples () and commit = samples () and request = samples ()
  and items = samples () in
  let ops = ref 0 and failed = ref 0 in
  let need = Pb_stats.min_samples 90.0 in
  let t_start = R.now () in
  let short () =
    Pb_stats.Samples.count checkout < need || Pb_stats.Samples.count commit < need
  in
  while R.keep_going ~t_start:(t_start +. !verify_s) ~seconds ~short do
    let k = !wops + !ops in
    let verify = !ops mod verify_every = verify_every - 1 in
    let r0 = R.now () and i0 = e.items in
    (match span "op" (fun () -> op e ~traced ~verify k) with
    | t_co, t_ci, vt, ok ->
      verify_s := !verify_s +. vt;
      Pb_stats.Samples.add checkout t_co;
      Pb_stats.Samples.add commit t_ci;
      Pb_stats.Samples.add request (R.now () -. r0 -. vt);
      Pb_stats.Samples.add items (float_of_int (e.items - i0));
      if not ok then incr failed
    | exception ex ->
      prerr_endline ("co_checkout op failed: " ^ Printexc.to_string ex);
      incr failed);
    incr ops;
    if traced then Pb_gc.poll ()
  done;
  let elapsed = R.now () -. !verify_s -. t_start in
  Pb_cpu.release ();
  let peak_rss_mb = R.peak_rss_mb () in
  Pb_trace.enabled := false;
  let gc1 = Gc.quick_stat () in
  let rc1 = Executor.Result_cache.stats () in
  (* the paper's navigation claim: median OO1 visits/s over the window ops *)
  let traverse_p50 () =
    Option.value (Pb_stats.percentile (Pb_stats.Samples.values e.rates) 50.0) ~default:0.0
  in
  let layers =
    if not traced then []
    else begin
      Pb_gc.poll ();
      let ms_per_op, unattributed = R.span_layers (Pb_trace.collect ()) in
      let scanned = e.chunks_scanned and skipped = e.chunks_skipped in
      let fops = float_of_int (max 1 !ops) in
      let rch = rc1.Executor.Result_cache.hits - rc0.Executor.Result_cache.hits
      and rcm = rc1.Executor.Result_cache.misses - rc0.Executor.Result_cache.misses in
      let pc = Db.cache_stats oo1 in
      List.map
        (fun (name, _, _, _, _) ->
          let v =
            match name with
            | "executor.rows_scanned_per_item" ->
              R.ratio_i e.rows_scanned e.items
            | "relcore.chunk_skip_ratio" -> R.ratio_i skipped (scanned + skipped)
            | "executor.batches_per_op" ->
              float_of_int e.batches /. fops
            | "executor.result_cache_hit_ratio" -> R.ratio_i rch (rch + rcm)
            | "executor.result_cache_evictions_per_op" ->
              float_of_int
                (rc1.Executor.Result_cache.evictions - rc0.Executor.Result_cache.evictions)
              /. fops
            | "engine.plan_cache_hit_ratio" ->
              R.ratio_i pc.Db.plan_hits (pc.Db.plan_hits + pc.Db.plan_misses)
            | "cocache.flush_stmts_per_checkin" -> R.ratio_i e.flush_stmts e.checkins
            | "cocache.traverse_tuples_per_s" -> traverse_p50 ()
            | "net.bytes_per_item" | "net.frames_per_request" | "net.memo_hit_ratio"
            | "net.residual_ms" | "engine.group_commit_batch_avg"
            | "engine.snapshot_read_ratio" | "engine.snapshot_fallback_ratio" ->
              0.0
            | "runtime.minor_gcs_per_op" ->
              float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. fops
            | "runtime.major_gcs_per_op" ->
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. fops
            | "runtime.gc_pause_ms_per_op" -> Pb_gc.total_ms () /. fops
            | "runtime.gc_pause_max_ms" -> !Pb_gc.max_ms
            | "trace.unattributed_share" -> unattributed
            | n -> ms_per_op n
          in
          (name, v))
        R.layer_table
    end
  in
  {
    R.setups;
    elapsed;
    attempted = !ops;
    failed = !failed;
    request;
    items;
    checkout;
    commit;
    peak_rss_mb;
    layers;
    notes =
      [
        Printf.sprintf "data: OO1 %d parts + BOM %d assemblies x %d levels; window %d parts"
          n_parts 20 6 window;
        Printf.sprintf "cpus: set-ups and 4-op cycles take turns on [%s]"
          (String.concat " " (Array.to_list (Array.map string_of_int Pb_cpu.cpus)));
        Printf.sprintf "warm-up: %d ops in %.1f s, result cache evicting: %b" !wops warm_s
          warm_evicting;
        Printf.sprintf "verified ops: %d (every %dth: uncached recompute + put-get)"
          (!ops / verify_every) verify_every;
        Printf.sprintf "OO1 traversal: %d window ops, median %.0f visits/s"
          (Pb_stats.Samples.count e.rates) (traverse_p50 ());
        Printf.sprintf "result cache at end: %d entries, %.1f MB"
          rc1.Executor.Result_cache.entries
          (float_of_int rc1.Executor.Result_cache.bytes /. 1e6);
      ];
  }
