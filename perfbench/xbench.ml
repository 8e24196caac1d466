(** The repository benchmark: one command, two workloads.

    [xbench --workload NAME --seed N --seconds S --trace 0|1]

    With [--trace 0] it prints every end-to-end metric; with
    [--trace 1] it runs the same workload with spans around its calls
    into each layer and prints the per-layer metrics instead.  The last
    line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}]. *)

module S = Pb_stats
module R = Pb_run

let workloads = [ "co_checkout"; "wire_checkout" ]

(** End-to-end metrics: name, unit, value, each over the whole measured
    run.  Percentiles come back [None] when too few samples lie beyond
    them. *)
let end_to_end (r : R.t) =
  let ms s p = Option.map (fun v -> 1000.0 *. v) (S.percentile (S.Samples.values s) p) in
  [
    ("setup_s", "s", Some (S.median r.R.setups));
    ("ops_per_s", "1/s", Some (float_of_int (S.Samples.count r.R.request) /. r.R.elapsed));
    ("items_per_s", "1/s", Some (S.Samples.sum r.R.items /. r.R.elapsed));
    ("checkout_p50_ms", "ms", ms r.R.checkout 50.0);
    ("checkout_p90_ms", "ms", ms r.R.checkout 90.0);
    ("commit_p90_ms", "ms", ms r.R.commit 90.0);
    ("peak_rss_mb", "MB", Some r.R.peak_rss_mb);
  ]

let out_dir = ".perfbench_out"

let e2e_file wl = Filename.concat out_dir (wl ^ ".e2e")

let save_e2e wl metrics =
  let oc = open_out (e2e_file wl) in
  List.iter (fun (n, _, v) -> Printf.fprintf oc "%s %.17g\n" n v) metrics;
  close_out oc

let load_e2e wl =
  match open_in (e2e_file wl) with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' line with
        | [ n; v ] -> loop ((n, float_of_string v) :: acc)
        | _ -> loop acc)
      | exception End_of_file ->
        close_in ic;
        acc
    in
    loop []

(** Whole-run percentiles of a latency class, for the report. *)
let print_latency name s =
  let a = S.Samples.values s in
  let n = Array.length a in
  let p q =
    match S.percentile a q with
    | Some v -> Printf.sprintf "%.3f" (1000.0 *. v)
    | None -> "n/a"
  in
  Printf.printf "# %-9s n=%-6d p50=%s p90=%s p95=%s p99=%s ms\n" name n (p 50.0) (p 90.0)
    (p 95.0) (p 99.0)

let usage () =
  prerr_endline
    "usage: xbench --workload (co_checkout|wire_checkout) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let wl = get "workload" in
  if not (List.mem wl workloads) then usage ();
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if traced then Pb_gc.start ();
  let r =
    match wl with
    | "co_checkout" -> Co_checkout.run ~seed ~seconds ~traced
    | _ -> Wire_bench.run ~seed ~seconds ~traced
  in
  Printf.printf "# workload %s, seed %d, %.0f s, trace %b\n" wl seed seconds traced;
  List.iter (fun n -> Printf.printf "# %s\n" n) r.R.notes;
  Printf.printf "# setup repetitions (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.R.setups));
  print_latency "checkout" r.R.checkout;
  print_latency "commit" r.R.commit;
  print_latency "request" r.R.request;
  Printf.printf "# measured: %d ops in %.1f s\n" (S.Samples.count r.R.request) r.R.elapsed;
  Printf.printf "# failed_ops_ratio %.6f (%d of %d)\n"
    (R.ratio_i r.R.failed r.R.attempted)
    r.R.failed r.R.attempted;
  let e2e = end_to_end r in
  let missing = List.filter_map (fun (n, _, v) -> if v = None then Some n else None) e2e in
  List.iter
    (fun n -> Printf.printf "# %s not reported: fewer than %d samples beyond it\n" n S.min_beyond)
    missing;
  let e2e = List.filter_map (fun (n, u, v) -> Option.map (fun v -> (n, u, v)) v) e2e in
  let metrics =
    if not traced then begin
      save_e2e wl (List.map (fun (n, u, v) -> (n, u, v)) e2e);
      e2e
    end
    else begin
      let untraced = load_e2e wl in
      Printf.printf "# tracing overhead (traced vs last untraced run in this checkout):\n";
      List.iter
        (fun (n, u, v) ->
          match List.assoc_opt n untraced with
          | Some base when n <> "setup_s" && n <> "peak_rss_mb" ->
            Printf.printf "#   %-22s traced %.4g %s, untraced %.4g, ratio %.3f\n" n v u base
              (R.ratio v base)
          | _ -> ())
        e2e;
      if untraced = [] then Printf.printf "#   (no untraced run recorded yet)\n";
      Printf.printf "# runtime events lost (ring overflow): %d\n" !Pb_gc.lost;
      Printf.printf "# %-40s %-12s %-9s %-36s %-28s %s\n" "layer metric" "value" "unit"
        "should move" "on" "flat on";
      List.iter
        (fun (name, unit, moves, on, flat) ->
          let v = List.assoc name r.R.layers in
          Printf.printf "# %-40s %-12.5g %-9s %-36s %-28s %s\n" name v unit moves on flat)
        R.layer_table;
      List.map
        (fun (name, unit, _, _, _) -> (name, unit, List.assoc name r.R.layers))
        R.layer_table
    end
  in
  print_endline
    (S.result_line ~correct:(r.R.failed = 0 && missing = []) ~attempted:r.R.attempted
       ~failed:r.R.failed metrics);
  exit 0
