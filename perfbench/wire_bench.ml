(** [wire_checkout]: the daemon, OO1 at 20k parts, served in-process
    over a unix socket to two client connections, one domain each.
    Connection 1 checks out the whole parts graph (80k stream items) and
    loads it into a client workspace, over and over (a closed loop: it
    sets [ops_per_s]).  Connection 2 commits single-row UPDATEs every
    20 ms, so nearly every check-out follows a commit: the frame memo is
    cleared and the result cache misses, and IVM patches the stream or a
    snapshot pin forces a cold extract.

    Writes only add 1 to [parts.build], so a CO stream is right when it
    equals the reference with [build] masked and each [build] lies
    between its initial value and that plus the increments issued.
    After the run the quiesced stream must equal an in-process
    extraction with every increment applied. *)

open Relcore
module X = Xnf.Xnf_compile
module H = Xnf.Hetstream
module Db = Engine.Database
module Ws = Cocache.Workspace
module Rng = Workloads.Rng
module Oo1 = Workloads.Oo1
module Client = Net.Client
module Server = Net.Server
module Wire = Net.Wire
module R = Pb_run
module S = Pb_stats

let n_parts = 20_000
let view = "parts_co"
let commit_period_s = 0.020
let stream_chunk = 512

let update_sql k = Printf.sprintf "UPDATE parts SET build = build + 1 WHERE pid = %d" k

let make_db seed =
  let db = Oo1.generate { Oo1.default with Oo1.n_parts; seed } in
  ignore (Db.exec db (Printf.sprintf "CREATE VIEW %s AS %s" view Oo1.parts_graph_query));
  db

let span = Pb_trace.span

(* -- reference checks ---------------------------------------------------- *)

type reference = {
  initial : int array; (* build by pid *)
  masked : Digest.t; (* digest of the view's stream with build masked *)
  issued : int Atomic.t array; (* increments sent, by pid *)
}

let build_col (s : H.t) =
  let ci = H.find_comp s.H.header "xpart" in
  (ci.H.comp_no, Schema.find ci.H.comp_schema "build")

(** The stream with every [build] zeroed, serialized. *)
let masked_bytes (s : H.t) =
  let comp, bi = build_col s in
  let items =
    List.map
      (function
        | H.Row r when r.comp = comp ->
          let v = Array.copy r.values in
          v.(bi) <- Value.Int 0;
          H.Row { r with values = v }
        | it -> it)
      s.H.items
  in
  H.serialize { s with H.items }

(** The reference read from a database built from the run's seed,
    without touching the caches the daemon shares. *)
let reference tdb =
  let initial = Array.make (n_parts + 1) 0 in
  List.iter
    (fun row -> initial.(Value.as_int row.(0)) <- Value.as_int row.(1))
    (Db.query_rows tdb "SELECT pid, build FROM parts");
  {
    initial;
    masked = Digest.string (masked_bytes (X.run_view ~cache:false tdb view));
    issued = Array.init (n_parts + 1) (fun _ -> Atomic.make 0);
  }

let builds_in_range rf (s : H.t) =
  let comp, bi = build_col s in
  List.for_all
    (function
      | H.Row r when r.comp = comp ->
        let pid = Value.as_int r.values.(0) and b = Value.as_int r.values.(bi) in
        b >= rf.initial.(pid) && b <= rf.initial.(pid) + Atomic.get rf.issued.(pid)
      | _ -> true)
    s.H.items

let check_stream rf s = Digest.string (masked_bytes s) = rf.masked && builds_in_range rf s

(* -- per-connection state ----------------------------------------------- *)

type conn = {
  cl : Client.t;
  rng : Rng.t;
  mutable verify_s : float; (* time spent checking outputs *)
  checkout : S.Samples.t;
  commit : S.Samples.t;
  request : S.Samples.t;
  items : S.Samples.t; (* CO stream items per check-out *)
  mutable ops : int;
  mutable failed : int;
  mutable t_begin : float;
  mutable t_end : float; (* benchmark clock: checks excluded *)
  mutable replayed : int;
  mutable residual_s : float;
}

let new_conn cl seed =
  {
    cl;
    rng = Rng.create seed;
    verify_s = 0.0;
    checkout = S.Samples.create ();
    commit = S.Samples.create ();
    request = S.Samples.create ();
    items = S.Samples.create ();
    ops = 0;
    failed = 0;
    t_begin = nan;
    t_end = nan;
    replayed = 0;
    residual_s = 0.0;
  }

(* -- twin replay (traced run) -------------------------------------------- *)

(** The twin: a second database from the same seed that, in the traced
    run, replays a sample of the requests through the layers' public
    functions.  Replays serialize on [twin_mu]: the twin has no daemon
    to arbitrate its sessions. *)
type twin = {
  tdb : Db.t;
  sessions : Db.t array;
  twin_mu : Mutex.t;
  replayed_incr : int array;
}

let replay_every = 2

let rec chunks n l =
  match l with
  | [] -> []
  | _ ->
    let rec take k acc l =
      match (k, l) with
      | 0, _ | _, [] -> (List.rev acc, l)
      | k, x :: tl -> take (k - 1) (x :: acc) tl
    in
    let c, rest = take n [] l in
    c :: chunks n rest

type req = Checkout | Commit of int

let replay twin sess c req ~real_s =
  Mutex.protect twin.twin_mu @@ fun () ->
  let t0 = R.now () in
  span "replay" (fun () ->
      match req with
      | Checkout ->
        let comp = span "engine.compile" (fun () -> X.compile sess (X.view_text sess view)) in
        let s = span "xnf.extract" (fun () -> X.extract comp) in
        let frames =
          span "net.encode" (fun () ->
              List.map Wire.encode_response
                ((Wire.Stream_header s.H.header
                 :: List.map (fun ch -> Wire.Stream_chunk ch) (chunks stream_chunk s.H.items))
                @ [ Wire.Stream_end { items = List.length s.H.items } ]))
        in
        span "net.decode" (fun () ->
            List.iter
              (fun f -> ignore (Wire.decode_response (String.sub f 4 (String.length f - 4))))
              frames)
      | Commit k ->
        span "engine.commit" (fun () ->
            ignore (Db.exec sess "BEGIN");
            ignore (Db.exec sess (update_sql k));
            ignore (Db.exec sess "COMMIT"));
        twin.replayed_incr.(k) <- twin.replayed_incr.(k) + 1);
  c.replayed <- c.replayed + 1;
  c.residual_s <- c.residual_s +. (real_s -. (R.now () -. t0))

(* -- the ops ------------------------------------------------------------- *)

let verify_checkout_every = 4

(** One request on connection [i]; [record] false during warm-up. *)
let do_op ~rf ~twin c i ~record =
  let o0 = R.now () in
  let real = ref 0.0 in
  let timed f =
    let t0 = R.now () in
    let r = span "net.request" f in
    real := R.now () -. t0;
    r
  in
  let v0 = c.verify_s in
  let req, ok =
    span "op" @@ fun () ->
    match i with
    | 0 ->
      let s = timed (fun () -> Client.extract c.cl view) in
      ignore (span "cocache.load" (fun () -> Ws.of_stream s));
      if record then begin
        S.Samples.add c.checkout (R.now () -. o0);
        S.Samples.add c.items (float_of_int (H.total_items s))
      end;
      let ok =
        c.ops mod verify_checkout_every <> 0
        ||
        let t0 = R.now () in
        let ok = span R.verify_span (fun () -> check_stream rf s) in
        c.verify_s <- c.verify_s +. (R.now () -. t0);
        ok
      in
      (Checkout, ok)
    | _ ->
      let k = 1 + Rng.int c.rng n_parts in
      Atomic.incr rf.issued.(k);
      let t0 = R.now () in
      let affected =
        timed (fun () ->
            ignore (Client.exec c.cl "BEGIN");
            let a = Client.exec c.cl (update_sql k) in
            ignore (Client.exec c.cl "COMMIT");
            a)
      in
      if record then S.Samples.add c.commit (R.now () -. t0);
      (Commit k, affected = Client.Affected 1)
  in
  if record then begin
    if i = 0 then S.Samples.add c.request (R.now () -. o0 -. (c.verify_s -. v0));
    c.ops <- c.ops + 1;
    if not ok then c.failed <- c.failed + 1;
    match twin with
    | Some tw when c.ops mod replay_every = 0 -> replay tw tw.sessions.(i) c req ~real_s:!real
    | _ -> ()
  end

(** Run both connections for one phase: connection 1 in a closed loop,
    connection 2 paced, one commit per period with no catch-up bursts. *)
let phase ~rf ~twin conns ~seconds ~record ~short =
  let t_start = R.now () in
  let finished = Atomic.make 0 in
  let body i c () =
    c.t_begin <- R.now ();
    let next_due = ref c.t_begin in
    (try
       while R.keep_going ~t_start ~seconds ~short:(fun () -> record && short ()) do
         if i > 0 then begin
           let wait = !next_due -. R.now () in
           if wait > 0.0 then Unix.sleepf wait;
           next_due := Float.max (R.now ()) (!next_due +. commit_period_s)
         end;
         try do_op ~rf ~twin c i ~record
         with ex ->
           prerr_endline ("wire op failed: " ^ Printexc.to_string ex);
           c.ops <- c.ops + 1;
           c.failed <- c.failed + 1
       done
     with ex -> prerr_endline ("wire client died: " ^ Printexc.to_string ex));
    c.t_end <- R.now () -. c.verify_s;
    Atomic.incr finished
  in
  let doms = Array.to_list (Array.mapi (fun i c -> Domain.spawn (body i c)) conns) in
  while Atomic.get finished < Array.length conns do
    if twin <> None then Pb_gc.poll ();
    Unix.sleepf 0.02
  done;
  List.iter Domain.join doms

(* -- set-up -------------------------------------------------------------- *)

type daemon = {
  server : Server.t;
  dom : unit Domain.t;
  clients : Client.t array;
  sock : string;
}

let sock_path () = Printf.sprintf ".perfbench_out/xb-%d.sock" (Unix.getpid ())

let start_daemon seed () =
  let db = make_db seed in
  let sock = sock_path () in
  (try Sys.remove sock with Sys_error _ -> ());
  let server =
    Server.create ~config:(Server.default_config ~addr:(Unix.ADDR_UNIX sock) ()) db
  in
  let dom = Domain.spawn (fun () -> Server.serve server) in
  let clients =
    Array.init 2 (fun i ->
        Client.connect ~client_name:(Printf.sprintf "perfbench-%d" i) (Unix.ADDR_UNIX sock))
  in
  (* warm up: the view, shipped once *)
  ignore (Client.extract clients.(0) view);
  { server; dom; clients; sock }

let stop_daemon d =
  Array.iter Client.close d.clients;
  Server.stop d.server;
  Domain.join d.dom;
  (try Sys.remove d.sock with Sys_error _ -> ());
  Executor.Result_cache.clear ();
  Xnf.Xnf_ivm.reset ()

(* -- run ----------------------------------------------------------------- *)

let warmup_s = 2.0

let run ~seed ~seconds ~traced : R.t =
  (* The reference comes from a twin database built from the same seed.
     Untraced, the twin is read and dropped before the daemon starts and
     rebuilt after it stops, so the daemon has the process (its memory,
     its result cache) to itself; traced, it stays resident to replay. *)
  let twin =
    if not traced then None
    else begin
      let tdb = make_db seed in
      Some
        {
          tdb;
          sessions = Array.init 2 (fun _ -> Db.session tdb);
          twin_mu = Mutex.create ();
          replayed_incr = Array.make (n_parts + 1) 0;
        }
    end
  in
  let rf = reference (match twin with Some t -> t.tdb | None -> make_db seed) in
  let setups, d = R.timed_setups ~setup:(start_daemon seed) ~teardown:stop_daemon in
  (* warm-up phase, then the measured phase on fresh per-connection state *)
  let warm = Array.mapi (fun i cl -> new_conn cl (seed + (101 * i))) d.clients in
  phase ~rf ~twin warm ~seconds:warmup_s ~record:false ~short:(fun () -> false);
  let conns = Array.mapi (fun i cl -> new_conn cl (seed + 7 + (131 * i))) d.clients in
  let bytes0 = Array.map Client.bytes_in d.clients
  and frames0 = Array.map Client.frames_in d.clients in
  let sc0 = Server.counters d.server in
  let rc0 = Executor.Result_cache.stats () in
  let gc0 = Gc.quick_stat () in
  let pc0 = match twin with Some t -> Array.map Db.cache_stats t.sessions | None -> [||] in
  if traced then begin
    Pb_trace.enabled := true;
    Pb_trace.reset ();
    Pb_gc.reset ()
  end;
  let need = S.min_samples 90.0 in
  let short () =
    S.Samples.count conns.(0).checkout < need || S.Samples.count conns.(1).commit < need
  in
  phase ~rf ~twin conns ~seconds ~record:true ~short;
  let peak_rss_mb = R.peak_rss_mb () in
  Pb_trace.enabled := false;
  let gc1 = Gc.quick_stat () in
  let rc1 = Executor.Result_cache.stats () in
  let sc1 = Server.counters d.server in
  let delta f base = Array.fold_left ( + ) 0 (Array.mapi (fun i cl -> f cl - base.(i)) d.clients) in
  let bytes = delta Client.bytes_in bytes0 and frames = delta Client.frames_in frames0 in
  (* quiesced: the final stream must equal in-process extraction with
     every increment applied *)
  let final = try Some (Client.extract d.clients.(0) view) with _ -> None in
  stop_daemon d;
  let final_ok =
    try
      let tdb, replayed =
        match twin with
        | Some t -> (t.tdb, t.replayed_incr)
        | None ->
          Gc.compact ();
          (make_db seed, Array.make (n_parts + 1) 0)
      in
      Array.iteri
        (fun pid n ->
          let todo = Atomic.get n - replayed.(pid) in
          if todo > 0 then
            ignore
              (Db.exec tdb
                 (Printf.sprintf "UPDATE parts SET build = build + %d WHERE pid = %d" todo pid)))
        rf.issued;
      match final with
      | Some s -> H.equal s (X.run_view ~cache:false tdb view)
      | None -> false
    with ex ->
      prerr_endline ("final check failed: " ^ Printexc.to_string ex);
      false
  in
  let sumi f = Array.fold_left (fun a c -> a + f c) 0 conns in
  let sumf f = Array.fold_left (fun a c -> a +. f c) 0.0 conns in
  let ops = sumi (fun c -> c.ops) in
  let failed = sumi (fun c -> c.failed) + if final_ok then 0 else 1 in
  let co = conns.(0) in
  let fops = float_of_int (max 1 ops) in
  let layers =
    match twin with
    | None -> []
    | Some t ->
      Pb_gc.poll ();
      let ms_per_op, unattributed = R.span_layers (Pb_trace.collect ()) in
      let d f = f sc1 - f sc0 in
      let reads = d (fun s -> s.Server.queries) + d (fun s -> s.Server.extracts) in
      let snap = d (fun s -> s.Server.snap_reads) and fall = d (fun s -> s.Server.snap_fallbacks) in
      let ph, pm =
        Array.fold_left
          (fun (h, m) (i, s0) ->
            let s1 = Db.cache_stats t.sessions.(i) in
            (h + s1.Db.plan_hits - s0.Db.plan_hits, m + s1.Db.plan_misses - s0.Db.plan_misses))
          (0, 0)
          (Array.mapi (fun i s -> (i, s)) pc0)
      in
      let rch = rc1.Executor.Result_cache.hits - rc0.Executor.Result_cache.hits
      and rcm = rc1.Executor.Result_cache.misses - rc0.Executor.Result_cache.misses in
      let replayed = float_of_int (max 1 (sumi (fun c -> c.replayed))) in
      List.map
        (fun (name, _, _, _, _) ->
          let v =
            match name with
            | "engine.plan_cache_hit_ratio" -> R.ratio_i ph (ph + pm)
            | "executor.rows_scanned_per_item" | "relcore.chunk_skip_ratio"
            | "executor.batches_per_op" | "cocache.flush_stmts_per_checkin"
            | "cocache.traverse_tuples_per_s" ->
              0.0
            | "executor.result_cache_hit_ratio" -> R.ratio_i rch (rch + rcm)
            | "executor.result_cache_evictions_per_op" ->
              float_of_int
                (rc1.Executor.Result_cache.evictions - rc0.Executor.Result_cache.evictions)
              /. fops
            | "net.bytes_per_item" -> R.ratio (float_of_int bytes) (S.Samples.sum co.items)
            | "net.frames_per_request" -> R.ratio_i frames ops
            | "net.memo_hit_ratio" ->
              R.ratio_i (d (fun s -> s.Server.memo_hits)) (d (fun s -> s.Server.extracts))
            | "net.residual_ms" -> 1000.0 *. sumf (fun c -> c.residual_s) /. replayed
            | "engine.group_commit_batch_avg" ->
              R.ratio_i (d (fun s -> s.Server.gc_commits)) (d (fun s -> s.Server.gc_batches))
            | "engine.snapshot_read_ratio" -> R.ratio_i snap reads
            | "engine.snapshot_fallback_ratio" -> R.ratio_i fall (snap + fall)
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
  in
  {
    R.setups;
    elapsed = co.t_end -. co.t_begin;
    attempted = ops + 1;
    failed;
    request = co.request;
    items = co.items;
    checkout = co.checkout;
    commit = conns.(1).commit;
    peak_rss_mb;
    layers;
    notes =
      [
        Printf.sprintf "data: OO1 %d parts; view %s" n_parts view;
        Printf.sprintf "server: %d extracts, %d statements, %d frame-memo hits"
          (sc1.Server.extracts - sc0.Server.extracts)
          (sc1.Server.stmts - sc0.Server.stmts)
          (sc1.Server.memo_hits - sc0.Server.memo_hits);
        Printf.sprintf "quiesced final stream equals in-process extraction: %b" final_ok;
      ];
  }
