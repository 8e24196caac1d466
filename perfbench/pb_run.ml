(** What one workload run hands back, and the pieces every workload
    shares: timing, memory, counters and the per-layer table. *)

module S = Pb_stats

let now = Unix.gettimeofday

type t = {
  setups : float list; (* seconds, one per set-up repetition *)
  elapsed : float; (* seconds the loop counted in [request] ran, checks excluded *)
  attempted : int;
  failed : int;
  request : S.Samples.t; (* seconds per op of the closed loop that sets the pace *)
  items : S.Samples.t; (* CO stream items delivered per op *)
  checkout : S.Samples.t; (* seconds per CO check-out *)
  commit : S.Samples.t; (* seconds per write (check-in or COMMIT) *)
  peak_rss_mb : float; (* at the end of the measured loop *)
  layers : (string * float) list; (* traced run only *)
  notes : string list;
}

(** Set-up repetitions per run; [setup_s] is their median. *)
let setup_reps = 9

(** Time [f] [setup_reps] times, tearing down all but the last result. *)
let timed_setups ~(setup : unit -> 'a) ~(teardown : 'a -> unit) : float list * 'a =
  let rec go k acc =
    Gc.compact ();
    let t0 = now () in
    let x = setup () in
    let dt = now () -. t0 in
    if k = 1 then (List.rev (dt :: acc), x)
    else begin
      teardown x;
      go (k - 1) (dt :: acc)
    end
  in
  go setup_reps []

(** Peak resident set (VmHWM) in MB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          | _ -> loop ()
          | exception End_of_file -> nan
        in
        loop ())
  with Sys_error _ -> nan

(** A closed loop's stop rule: run for [seconds], then keep going (up to
    three times as long) while a latency class still has too few
    samples for its reported percentiles. *)
let keep_going ~t_start ~seconds ~(short : unit -> bool) =
  let el = now () -. t_start in
  el < seconds || (el < 3.0 *. seconds && short ())

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* -- per-layer table ---------------------------------------------------- *)

(** Every per-layer metric, with its unit and the end-to-end metric it
    should move, on which workload, and where it should stay flat. *)
let layer_table =
  [
    ("xnf.parse_ms", "ms", "checkout_p50_ms, ops_per_s", "co_checkout", "wire_checkout");
    ("xnf.semantic_ms", "ms", "checkout_p50_ms, ops_per_s", "co_checkout", "wire_checkout");
    ("xnf.rewrite_ms", "ms", "checkout_p50_ms, ops_per_s", "co_checkout", "wire_checkout");
    ("starq.nf_rules_ms", "ms", "checkout_p50_ms, ops_per_s", "co_checkout", "wire_checkout");
    ("optimizer.plan_ms", "ms", "checkout_p50_ms, ops_per_s", "co_checkout", "wire_checkout");
    ("engine.compile_ms", "ms", "checkout_p50_ms, ops_per_s", "wire_checkout", "co_checkout (zero)");
    ("engine.plan_cache_hit_ratio", "ratio", "checkout_p50_ms, ops_per_s", "wire_checkout", "co_checkout");
    ("executor.run_ms", "ms", "checkout_p50_ms, items_per_s", "co_checkout", "wire_checkout (zero)");
    ("executor.rows_scanned_per_item", "count", "checkout_p50_ms, items_per_s", "co_checkout", "wire_checkout (zero)");
    ("relcore.chunk_skip_ratio", "ratio", "checkout_p50_ms, items_per_s", "co_checkout", "wire_checkout (zero)");
    ("executor.batches_per_op", "count", "checkout_p50_ms, items_per_s", "co_checkout", "wire_checkout (zero)");
    ("xnf.recursive_ms", "ms", "checkout_p90_ms, items_per_s", "co_checkout", "wire_checkout (zero)");
    ("xnf.assemble_ms", "ms", "checkout_p50_ms", "co_checkout", "wire_checkout (zero)");
    ("xnf.extract_ms", "ms", "checkout_p50_ms", "wire_checkout", "co_checkout");
    ("executor.result_cache_hit_ratio", "ratio", "checkout_p50_ms", "wire_checkout", "co_checkout");
    ("executor.result_cache_evictions_per_op", "count", "checkout_p50_ms", "wire_checkout", "co_checkout");
    ("net.encode_ms", "ms", "checkout_p50_ms, items_per_s", "wire_checkout", "co_checkout (zero)");
    ("net.decode_ms", "ms", "checkout_p50_ms, items_per_s", "wire_checkout", "co_checkout (zero)");
    ("net.bytes_per_item", "bytes", "checkout_p50_ms, items_per_s", "wire_checkout", "co_checkout (zero)");
    ("net.frames_per_request", "count", "checkout_p50_ms, items_per_s", "wire_checkout", "co_checkout (zero)");
    ("net.memo_hit_ratio", "ratio", "checkout_p50_ms, items_per_s", "wire_checkout", "co_checkout (zero)");
    ("net.residual_ms", "ms", "ops_per_s, checkout_p90_ms", "wire_checkout", "co_checkout (zero)");
    ("engine.commit_ms", "ms", "commit_p90_ms", "wire_checkout", "co_checkout");
    ("engine.group_commit_batch_avg", "count", "commit_p90_ms", "wire_checkout", "co_checkout");
    ("engine.snapshot_read_ratio", "ratio", "commit_p90_ms", "wire_checkout", "co_checkout");
    ("engine.snapshot_fallback_ratio", "ratio", "commit_p90_ms", "wire_checkout", "co_checkout");
    ("cocache.load_ms", "ms", "checkout_p50_ms", "co_checkout, wire_checkout", "-");
    ("cocache.navigate_ms", "ms", "ops_per_s", "co_checkout", "wire_checkout (zero)");
    ("cocache.traverse_tuples_per_s", "1/s", "ops_per_s", "co_checkout", "wire_checkout (zero)");
    ("cocache.flush_ms", "ms", "commit_p90_ms, ops_per_s", "co_checkout", "wire_checkout (zero)");
    ("cocache.flush_stmts_per_checkin", "count", "commit_p90_ms, ops_per_s", "co_checkout", "wire_checkout (zero)");
    ("runtime.minor_gcs_per_op", "count", "commit_p90_ms, checkout_p90_ms", "wire_checkout", "n/a (predicted only)");
    ("runtime.major_gcs_per_op", "count", "commit_p90_ms, checkout_p90_ms", "wire_checkout", "n/a (predicted only)");
    ("runtime.gc_pause_ms_per_op", "ms", "commit_p90_ms, checkout_p90_ms", "wire_checkout", "n/a (predicted only)");
    ("runtime.gc_pause_max_ms", "ms", "commit_p90_ms, checkout_p90_ms", "wire_checkout", "n/a (predicted only)");
    ("trace.unattributed_share", "ratio", "(none: the part of each op's wall time no span covers)", "all", "-");
  ]

(** The benchmark's own output checks run inside an op under this span;
    its time counts toward no layer and is not op wall time. *)
let verify_span = "bench.verify"

(** Per-layer values from the spans of a traced run: the mean self time
    per op of every span named in [layer_table].  A span's op is the
    root it hangs under; [roots] are counted by name ("op" for a real
    request, "replay" for a twin replay of one). *)
let span_layers (spans : Pb_trace.span list) =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Pb_trace.span) -> Hashtbl.replace by_id s.Pb_trace.id s) spans;
  let root_name (s : Pb_trace.span) =
    match Hashtbl.find_opt by_id s.Pb_trace.req with
    | Some r -> r.Pb_trace.name
    | None -> "op"
  in
  let roots = Hashtbl.create 4 in
  List.iter
    (fun (s : Pb_trace.span) ->
      if s.Pb_trace.parent < 0 then
        Hashtbl.replace roots s.Pb_trace.name
          (1 + Option.value (Hashtbl.find_opt roots s.Pb_trace.name) ~default:0))
    spans;
  let self = Hashtbl.create 32 in
  let op_self = ref 0.0 and op_total = ref 0.0 in
  List.iter
    (fun ((s : Pb_trace.span), dt) ->
      let key = (s.Pb_trace.name, root_name s) in
      Hashtbl.replace self key (dt +. Option.value (Hashtbl.find_opt self key) ~default:0.0);
      let dur = s.Pb_trace.t1 -. s.Pb_trace.t0 in
      if s.Pb_trace.parent < 0 && s.Pb_trace.name = "op" then begin
        op_self := !op_self +. dt;
        op_total := !op_total +. dur
      end
      else if s.Pb_trace.name = verify_span then op_total := !op_total -. dur)
    (Pb_trace.self_times spans);
  let ms_per_op metric =
    let name = Filename.chop_suffix metric "_ms" in
    Hashtbl.fold
      (fun (n, root) total acc ->
        if n = name then
          acc
          +. 1000.0 *. total
             /. float_of_int (max 1 (Option.value (Hashtbl.find_opt roots root) ~default:1))
        else acc)
      self 0.0
  in
  (ms_per_op, ratio !op_self !op_total)
