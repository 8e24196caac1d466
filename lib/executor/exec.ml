(** The query evaluation system: demand-driven, pipelined interpretation
    of QEPs ("table queue evaluation", paper Sect. 3.1), executed a
    {e batch} at a time.

    Each plan operator becomes a batch iterator supplying
    {!Relcore.Batch.t} values on demand, so per-tuple closure dispatch
    is amortized over [Batch.default_capacity] rows.  [Filter] and
    [Distinct] mark surviving rows in the batch's selection vector
    instead of copying; [Shared] nodes materialize once into the
    execution context as batch lists re-read by every consumer — the
    runtime half of XNF's common-subexpression sharing.  The one-tuple
    API ({!cursor}, {!to_seq}) is a thin adapter over the batched
    pipeline. *)

open Relcore
module Plan = Optimizer.Plan
module Ast = Sqlkit.Ast

(* value-keyed hash table for the single-column join fast path (skips
   the per-row key-tuple allocation and array hashing) *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* int-keyed table for the all-integer join-key case: a multiplicative
   hash stays out of the runtime's generic-hash C call, and odd-constant
   multiplication is a bijection mod the (power-of-two) bucket count, so
   sequential keys cannot collide *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash i = (i * 0x9E3779B1) land max_int
end)

(* the single-column build table, specialized by key type after the
   build side is drained *)
type single_key_table =
  | T_int of Tuple.t list Itbl.t (* every build key was a [Value.Int] *)
  | T_val of Tuple.t list Vtbl.t

(** A built join table with its sideways filter (see {!build_join}). *)
type join_table =
  | J_key of single_key_table * Bloom.t option (* one key column *)
  | J_codes of Tuple.t list Itbl.t * Bloom.t option
      (* string build keys folded onto the probe dictionary's codes *)
  | J_tuple of Tuple.t list Tuple.Tbl.t * Bloom.t option (* key tuples *)
  | J_postings of Tuple.t list Tuple.Tbl.t
      (* a snapshot index join's posting lists *)

(** An execution context, shared across the (possibly many) plans of one
    multi-output query. *)
type ctx = {
  shared : (int, Batch.t list) Hashtbl.t;
  (* materialized join inners, keyed by physical plan identity: running
     two plans (or one plan twice) that share an inner subplan object
     re-reads the first materialization instead of re-draining it *)
  mutable materialized : (Plan.t * Batch.t list) list;
  batch_capacity : int; (* rows per batch for this query's table queues *)
  result_cache : bool; (* promote CSE materializations to Result_cache *)
  snapshot : (Base_table.t -> Tuple.t option array) option;
  (* MVCC-lite: when set, every base-table access reads through this
     frozen slot-array view instead of the live heap.  Columnar scans,
     live index probes, and cross-query caches are bypassed — they see
     rows newer than the pinned epoch.  [Snapshot.Stale] may escape any
     access once the undo window has been outrun. *)
  mutable rows_scanned : int; (* base-table tuples fetched *)
  mutable subqueries_run : int; (* correlated subplan executions *)
  mutable batches_emitted : int; (* batches delivered at plan roots *)
  mutable materializations : int; (* shared/inner drain runs (cache misses) *)
  mutable chunks_scanned : int; (* colstore chunks whose rows were visited *)
  mutable chunks_skipped : int; (* colstore chunks zone-pruned wholesale *)
  mutable rows_materialized : int; (* heap tuples fetched by columnar scans *)
  mutable jf_built : int; (* sideways join filters built *)
  mutable jf_chunks_skipped : int; (* probe chunks pruned by join-filter range *)
  mutable jf_rows_skipped : int; (* probe rows dropped by a join filter *)
  mutable jf_dropped : int; (* join filters adaptively disabled *)
  mutable analyze : Opstats.t option;
  (* EXPLAIN ANALYZE accumulator: when set, [open_plan] wraps every
     numbered operator with wall-time / row attribution. *)
}

let make_ctx ?batch_capacity ?result_cache ?snapshot () =
  {
    shared = Hashtbl.create 8;
    materialized = [];
    batch_capacity =
      (match batch_capacity with
      | Some c -> max 1 c
      | None -> Batch.default_capacity ());
    result_cache =
      (match result_cache with
      | Some b -> b
      | None -> Result_cache.enabled ());
    snapshot;
    rows_scanned = 0;
    subqueries_run = 0;
    batches_emitted = 0;
    materializations = 0;
    chunks_scanned = 0;
    chunks_skipped = 0;
    rows_materialized = 0;
    jf_built = 0;
    jf_chunks_skipped = 0;
    jf_rows_skipped = 0;
    jf_dropped = 0;
    analyze = None;
  }

(* -- counters with a process-wide mirror --------------------------------- *)

(* Colstore and join-filter counts also feed the process totals
   ({!Colstore.add_totals}, {!Bloom.add_totals}). *)
let chunk_skipped (ctx : ctx) =
  ctx.chunks_skipped <- ctx.chunks_skipped + 1;
  Colstore.add_totals ~scanned:0 ~skipped:1 ~materialized:0

let chunk_scanned (ctx : ctx) ~live ~materialized =
  ctx.chunks_scanned <- ctx.chunks_scanned + 1;
  ctx.rows_scanned <- ctx.rows_scanned + live;
  ctx.rows_materialized <- ctx.rows_materialized + materialized;
  Colstore.add_totals ~scanned:1 ~skipped:0 ~materialized

let jf_built (ctx : ctx) =
  ctx.jf_built <- ctx.jf_built + 1;
  Bloom.add_totals ~built:1 ~chunks:0 ~rows:0 ~dropped:0

let jf_chunk_skipped (ctx : ctx) =
  ctx.jf_chunks_skipped <- ctx.jf_chunks_skipped + 1;
  Bloom.add_totals ~built:0 ~chunks:1 ~rows:0 ~dropped:0

let jf_rows_skipped (ctx : ctx) n =
  ctx.jf_rows_skipped <- ctx.jf_rows_skipped + n;
  Bloom.add_totals ~built:0 ~chunks:0 ~rows:n ~dropped:0

exception Cached_batches of Batch.t list

type iter = unit -> Tuple.t option
type batch_iter = unit -> Batch.t option

(* hot-loop truth test: avoids the polymorphic [= Some true] compare *)
let[@inline] is_true = function Some true -> true | Some false | None -> false

let iter_of_batches (bs : Batch.t list) : batch_iter =
  let rest = ref bs in
  fun () ->
    match !rest with
    | [] -> None
    | b :: tl ->
      rest := tl;
      Some b

let drain_batches (it : batch_iter) : Batch.t list =
  let rec go acc = match it () with None -> List.rev acc | Some b -> go (b :: acc) in
  go []

(** Pack rows produced by repeated [step] calls into dense batches.
    [step ~emit] advances the producer by one unit of input (typically
    one upstream batch), calling [emit] per output row; it returns
    [false] once the input is exhausted. *)
let pack ?capacity (step : emit:(Tuple.t -> unit) -> bool) : batch_iter =
  let capacity =
    match capacity with Some c -> c | None -> Batch.default_capacity ()
  in
  let ready = Queue.create () in
  let cur = ref (Batch.create ~capacity ()) in
  let finished = ref false in
  let emit row =
    Batch.push !cur row;
    if Batch.is_full !cur then begin
      Queue.push !cur ready;
      cur := Batch.create ~capacity ()
    end
  in
  let rec next () =
    if not (Queue.is_empty ready) then Some (Queue.pop ready)
    else if !finished then begin
      let b = !cur in
      cur := Batch.create ~capacity:1 ();
      if Batch.is_empty b then None else Some b
    end
    else begin
      if not (step ~emit) then finished := true;
      next ()
    end
  in
  next

(** Compiled key extractor: writes key values into [scratch], returns
    false if any is NULL (null keys never join). *)
let make_key_fn (frames : Eval.frames) (keys : Plan.scalar list) =
  let fs = Array.of_list (List.map Eval.compile_scalar_fn keys) in
  let n = Array.length fs in
  let scratch = Array.make n Value.Null in
  let extract row =
    let ok = ref true in
    for k = 0 to n - 1 do
      let v = fs.(k) frames row in
      if Value.is_null v then ok := false;
      scratch.(k) <- v
    done;
    !ok
  in
  (extract, scratch)

(** Scan [t] in slot order — the live heap, or under a snapshot the
    pinned frozen slot array — skipping tombstones.  [keep] is a
    push-down filter (a sideways join filter): rows failing it never
    enter a batch. *)
let open_scan (ctx : ctx) ?keep (t : Base_table.t) : batch_iter =
  let keep =
    Option.map
      (fun k row ->
        ctx.rows_scanned <- ctx.rows_scanned + 1;
        k row)
      keep
  in
  let counted n = if keep = None then ctx.rows_scanned <- ctx.rows_scanned + n in
  let kept emit =
    match keep with None -> emit | Some k -> fun row -> if k row then emit row
  in
  match ctx.snapshot with
  | Some frozen ->
    let arr = frozen t in
    let n = Array.length arr in
    let i = ref 0 in
    pack ~capacity:ctx.batch_capacity (fun ~emit ->
        if !i >= n then false
        else begin
          let emit = kept emit in
          let stop = min n (!i + ctx.batch_capacity) in
          while !i < stop do
            (match Array.unsafe_get arr !i with
            | Some row ->
              counted 1;
              emit row
            | None -> ());
            incr i
          done;
          true
        end)
  | None ->
    (* batches grow geometrically from a small first batch so a Limit
       just above the scan stays nearly as lazy as tuple-at-a-time *)
    let cap = ref (min 64 ctx.batch_capacity) in
    let slot = ref 0 in
    let exhausted = ref false in
    fun () ->
      if !exhausted then None
      else begin
        let b = Batch.create ~capacity:!cap () in
        cap := min ctx.batch_capacity (!cap * 4);
        let next_slot, n =
          Base_table.scan_into ?filter:keep t ~from:!slot b.Batch.rows ~start:0
            ~max:(Batch.capacity b)
        in
        slot := next_slot;
        b.Batch.len <- n;
        counted n;
        (* [scan_into] only under-fills at the end of the heap, so an
           empty batch means exhaustion even with a filter dropping rows *)
        if n = 0 then begin
          exhausted := true;
          None
        end
        else Some b
      end

(** One opened probe's adaptive join-filter test: the first
    [Bloom.adaptive_sample] keys are observed, and a filter passing more
    than [Bloom.drop_threshold] of them is dropped — the test then passes
    everything.  A failed test counts as a skipped probe row. *)
let jf_adaptive (ctx : ctx) : Bloom.t -> int -> bool =
  let live = ref true and decided = ref false in
  let tested = ref 0 and passed = ref 0 in
  fun bl k ->
    let pass =
      if !decided then (not !live) || Bloom.mem bl k
      else begin
        let pass = Bloom.mem bl k in
        incr tested;
        if pass then incr passed;
        if !tested >= Bloom.adaptive_sample then begin
          decided := true;
          if
            float_of_int !passed > Bloom.drop_threshold *. float_of_int !tested
          then begin
            live := false;
            ctx.jf_dropped <- ctx.jf_dropped + 1;
            Bloom.add_totals ~built:0 ~chunks:0 ~rows:0 ~dropped:1
          end
        end;
        pass
      end
    in
    if not pass then jf_rows_skipped ctx 1;
    pass

(** The probe side's key column, when the probe is a columnar scan keyed
    by a bare [Tint] or [Tstr] column.  Never under a snapshot: the
    colstore mirrors the live heap, not the pinned epoch. *)
let probe_column (ctx : ctx) (probe : Plan.t) (pk : Plan.scalar) =
  if ctx.snapshot <> None then None
  else
    match Colscan.of_plan ~require_atoms:false probe with
    | None -> None
    | Some cs -> (
      match Colscan.int_key cs pk with
      | Some ki -> Some (cs, ki, `Int)
      | None -> Option.map (fun ki -> (cs, ki, `Str)) (Colscan.str_key cs pk))

(* a join filter over a finished int-keyed table: one pass gives the
   exact distinct key set, and so an exactly sized Bloom *)
let itbl_filter (ctx : ctx) (itbl : _ Itbl.t) : Bloom.t =
  let bl = Bloom.create ~expected:(Itbl.length itbl) in
  Itbl.iter (fun k _ -> Bloom.add bl k) itbl;
  jf_built ctx;
  bl

(* [open_plan] is the attribution shim: with EXPLAIN ANALYZE armed it
   clocks the open and every pull of each numbered operator (inclusive
   times — the recursion wraps children too) and counts output rows
   {e after} selection vectors, so a child's rows are exactly its
   parent's input.  Nodes outside the numbered tree (id -1: a plan the
   accumulator was not created over) pass through untouched, as does
   everything when [ctx.analyze] is [None]. *)
let rec open_plan (ctx : ctx) (frames : Eval.frames) (p : Plan.t) : batch_iter =
  match ctx.analyze with
  | None -> open_plan_raw ctx frames p
  | Some acc ->
    let id = Opstats.id_of acc p in
    if id < 0 then open_plan_raw ctx frames p
    else begin
      let t0 = Opstats.now () in
      let it = open_plan_raw ctx frames p in
      Opstats.note_open acc id (Opstats.now () -. t0);
      fun () ->
        let t0 = Opstats.now () in
        let r = it () in
        let dt = Opstats.now () -. t0 in
        (match r with
        | Some b -> Opstats.add_batch acc id ~dt ~rows:(Batch.length b)
        | None -> Opstats.add_time acc id dt);
        r
    end

and open_plan_raw (ctx : ctx) (frames : Eval.frames) (p : Plan.t) : batch_iter =
  match p with
  | Plan.Scan t -> open_scan ctx t
  | Plan.Values rows ->
    iter_of_batches (Batch.of_list ~capacity:ctx.batch_capacity rows)
  | Plan.Filter (input, pred) -> begin
    (* columnar access path: when the subtree is Filter*(Scan) and at
       least one conjunct compiles to an unboxed chunk kernel, evaluate
       against the column arrays — zone-pruned, selection-vectored,
       with heap tuples materialized only for surviving rows.  Bypassed
       under a snapshot: the colstore mirror tracks the live heap, not
       the pinned epoch. *)
    match (if ctx.snapshot = None then Colscan.of_plan p else None) with
    | Some cs -> open_colscan ctx frames cs
    | None ->
      let it = open_plan ctx frames input in
      let test = compile_pred ctx pred in
      let rec next () =
        match it () with
        | None -> None
        | Some b ->
          Eval.select_batch frames b test;
          if Batch.is_empty b then next () else Some b
      in
      next
  end
  | Plan.Project
      ( (( Plan.Hash_join { residual = Plan.P_true; _ }
         | Plan.Index_join { residual = Plan.P_true; _ } ) as join),
        cols )
    when Array.for_all (function Plan.P_col _ -> true | _ -> false) cols ->
    (* late materialization: fuse a pure-column projection into the
       join's emit so only the referenced columns flow through the
       output table queue — the full concatenated tuple is never built *)
    let picks =
      Array.map (function Plan.P_col i -> i | _ -> assert false) cols
    in
    let n = Array.length picks in
    let mk_row row m =
      let w = Array.length row in
      let out = Array.make n Value.Null in
      for k = 0 to n - 1 do
        let i = picks.(k) in
        out.(k) <- (if i < w then row.(i) else m.(i - w))
      done;
      out
    in
    (match join with
    | Plan.Hash_join _ -> open_hash_join ctx frames ~mk_row join
    | _ -> open_index_join ctx frames ~mk_row join)
  | Plan.Project (input, cols) ->
    let it = open_plan ctx frames input in
    let project = Eval.compile_project cols in
    fun () ->
      (match it () with
      | None -> None
      | Some b -> Some (project frames b))
  | Plan.Nl_join { outer; inner; cond } ->
    let outer_it = open_plan ctx frames outer in
    let inner_bs = lazy (materialize ctx frames inner) in
    let test = compile_pred ctx cond in
    pack ~capacity:ctx.batch_capacity (fun ~emit ->
        match outer_it () with
        | None -> false
        | Some ob ->
          let inner_bs = Lazy.force inner_bs in
          Batch.iter
            (fun o ->
              List.iter
                (Batch.iter (fun i ->
                     let t = Tuple.concat o i in
                     if is_true (test frames t) then emit t))
                inner_bs)
            ob;
          true)
  | Plan.Hash_join _ -> open_hash_join ctx frames ~mk_row:Tuple.concat p
  | Plan.Index_join _ -> open_index_join ctx frames ~mk_row:Tuple.concat p
  | Plan.Distinct input ->
    let it = open_plan ctx frames input in
    let seen = Tuple.Tbl.create 256 in
    let rec next () =
      match it () with
      | None -> None
      | Some b ->
        Batch.refine b (fun t ->
            if Tuple.Tbl.mem seen t then false
            else begin
              Tuple.Tbl.add seen t ();
              true
            end);
        if Batch.is_empty b then next () else Some b
    in
    next
  | Plan.Aggregate { input; keys; aggs } ->
    let result =
      lazy
        (let it = open_plan ctx frames input in
         let afs =
           Array.of_list
             (List.map
                (fun (a : Plan.agg_spec) ->
                  match a.Plan.agg_arg with
                  | Some s ->
                    let f = Eval.compile_scalar_fn s in
                    fun row -> f frames row
                  | None -> fun _ -> Value.Int 1)
                aggs)
         in
         let new_accs () =
           Array.map (fun a -> Agg_acc.create a.Plan.agg_fn) (Array.of_list aggs)
         in
         let rec fill add_row =
           match it () with
           | None -> ()
           | Some b ->
             Batch.iter add_row b;
             fill add_row
         in
         match keys with
         | [ k ] ->
           (* single grouping column: hash the key value directly *)
           let groups = Vtbl.create 64 in
           let order = ref [] in
           let kf = Eval.compile_scalar_fn k in
           fill (fun row ->
               let v = kf frames row in
               let accs =
                 match Vtbl.find groups v with
                 | accs -> accs
                 | exception Not_found ->
                   let accs = new_accs () in
                   Vtbl.add groups v accs;
                   order := v :: !order;
                   accs
               in
               for i = 0 to Array.length afs - 1 do
                 Agg_acc.add accs.(i) (afs.(i) row)
               done);
           List.rev_map
             (fun v ->
               let accs = Vtbl.find groups v in
               Tuple.concat [| v |] (Array.map Agg_acc.result accs))
             !order
         | _ ->
           let groups = Tuple.Tbl.create 64 in
           let order = ref [] in
           let kfs = Array.of_list (List.map Eval.compile_scalar_fn keys) in
           fill (fun row ->
               let key = Array.map (fun f -> f frames row) kfs in
               let accs =
                 match Tuple.Tbl.find groups key with
                 | accs -> accs
                 | exception Not_found ->
                   let accs = new_accs () in
                   Tuple.Tbl.add groups key accs;
                   order := key :: !order;
                   accs
               in
               for i = 0 to Array.length afs - 1 do
                 Agg_acc.add accs.(i) (afs.(i) row)
               done);
           let emit key =
             let accs = Tuple.Tbl.find groups key in
             Tuple.concat key (Array.map Agg_acc.result accs)
           in
           if Tuple.Tbl.length groups = 0 && keys = [] then
             (* global aggregate over empty input: identity row *)
             [ Array.of_list
                 (List.map (fun a -> Agg_acc.empty_result a.Plan.agg_fn) aggs) ]
           else List.rev_map emit !order)
    in
    let it = ref None in
    fun () ->
      (match !it with
      | Some i -> i ()
      | None ->
        let i =
          iter_of_batches
            (Batch.of_list ~capacity:ctx.batch_capacity (Lazy.force result))
        in
        it := Some i;
        i ())
  | Plan.Sort (input, specs) ->
    let sorted =
      lazy
        (let rows =
           Array.of_list (Batch.list_to_rows (drain_batches (open_plan ctx frames input)))
         in
         (* decorate-sort-undecorate: pull each row's key vector out
            once (an O(n) pass) instead of chasing row.(i) pointers in
            every one of the O(n log n) comparisons *)
         let n = Array.length rows in
         let specs_a = Array.of_list specs in
         let k = Array.length specs_a in
         let dirs =
           Array.map (fun (_, d) -> match d with `Asc -> 1 | `Desc -> -1) specs_a
         in
         let keys = Array.make (max 1 (n * k)) Value.Null in
         for r = 0 to n - 1 do
           let row = rows.(r) in
           for j = 0 to k - 1 do
             keys.((r * k) + j) <- row.(fst specs_a.(j))
           done
         done;
         let idx = Array.init n Fun.id in
         (* single all-int key: sort over an unboxed int array (the
            usual case when the key rode in from a colstore Tint
            column), skipping the polymorphic compare entirely *)
         let int_keys =
           if k = 1 then begin
             let ik = Array.make (max 1 n) 0 in
             let ok = ref true in
             (try
                for r = 0 to n - 1 do
                  match keys.(r) with
                  | Value.Int i -> ik.(r) <- i
                  | _ ->
                    ok := false;
                    raise Exit
                done
              with Exit -> ());
             if !ok then Some ik else None
           end
           else None
         in
         (match int_keys with
         | Some ik ->
           let dir = dirs.(0) in
           Array.stable_sort
             (fun a b -> dir * Int.compare ik.(a) ik.(b))
             idx
         | None ->
           let cmp a b =
             let rec go j =
               if j >= k then 0
               else begin
                 let c =
                   dirs.(j) * Value.compare keys.((a * k) + j) keys.((b * k) + j)
                 in
                 if c <> 0 then c else go (j + 1)
               end
             in
             go 0
           in
           Array.stable_sort cmp idx);
         (* stable_sort over indices keeps equal keys in index (= input)
            order, so the undecorated permutation matches what a stable
            sort of the rows themselves would produce *)
         let out = Array.map (fun i -> rows.(i)) idx in
         Batch.of_array ~capacity:ctx.batch_capacity out)
    in
    let it = ref None in
    fun () ->
      (match !it with
      | Some i -> i ()
      | None ->
        let i = iter_of_batches (Lazy.force sorted) in
        it := Some i;
        i ())
  | Plan.Limit (input, n) ->
    let it = open_plan ctx frames input in
    let remaining = ref n in
    fun () ->
      if !remaining <= 0 then None
      else begin
        match it () with
        | None -> None
        | Some b ->
          Batch.truncate b !remaining;
          remaining := !remaining - Batch.length b;
          Some b
      end
  | Plan.Union_all inputs ->
    let remaining = ref inputs and cur = ref (fun () -> None) in
    let rec next () =
      match !cur () with
      | Some b -> Some b
      | None -> begin
        match !remaining with
        | [] -> None
        | p :: rest ->
          remaining := rest;
          cur := open_plan ctx frames p;
          next ()
      end
    in
    next
  | Plan.Shared (bid, input) -> iter_of_batches (get_shared ctx frames bid input)

(** Open a columnar scan: chunk-at-a-time over the table's colstore.
    Per chunk: zone-map prune, then selection-vector generation by the
    compiled atoms, then deferred materialization — the heap tuple is
    fetched only for rows that survive the atoms — and finally the
    residual predicate (if any) over the materialized row.  Chunks are
    visited in slot order, so emission order is byte-identical to the
    row path. *)
and open_colscan (ctx : ctx) (frames : Eval.frames) (cs : Colscan.t) :
    batch_iter =
  let store = cs.Colscan.store in
  let table = cs.Colscan.table in
  let katoms = cs.Colscan.katoms in
  let test = Option.map (compile_pred ctx) cs.Colscan.residual in
  let sel = Array.make (Colstore.chunk_rows store) 0 in
  (* snapshotted: queries never mutate their own base tables here *)
  let n_chunks = Colstore.n_chunks store in
  let chunk = ref 0 in
  pack ~capacity:ctx.batch_capacity (fun ~emit ->
      if !chunk >= n_chunks then false
      else begin
        let c = !chunk in
        incr chunk;
        if Colstore.prune_chunk store katoms c then chunk_skipped ctx
        else begin
          let n = Colstore.select_chunk store katoms c sel in
          chunk_scanned ctx ~live:(Colstore.live_in_chunk store c)
            ~materialized:n;
          (match test with
          | None ->
            for i = 0 to n - 1 do
              emit (Base_table.get_exn table (Array.unsafe_get sel i))
            done
          | Some t ->
            for i = 0 to n - 1 do
              let row = Base_table.get_exn table (Array.unsafe_get sel i) in
              if is_true (t frames row) then emit row
            done)
        end;
        true
      end)

(** Open an index join ([node] is the [Index_join]).  [mk_row] as in
    {!open_hash_join}. *)
and open_index_join (ctx : ctx) (frames : Eval.frames)
    ~(mk_row : Tuple.t -> Tuple.t -> Tuple.t) (node : Plan.t) : batch_iter =
  let outer, table, index, keys, residual =
    match node with
    | Plan.Index_join { outer; table; index; keys; residual } ->
      (outer, table, index, keys, residual)
    | _ -> invalid_arg "Exec.open_index_join"
  in
  let outer_it = open_plan ctx frames outer in
  let extract, scratch = make_key_fn frames keys in
  let emit_match =
    match residual_test ctx residual with
    | None -> fun emit row irow -> emit (mk_row row irow)
    | Some test ->
      fun emit row irow ->
        let t = Tuple.concat row irow in
        if is_true (test frames t) then emit (mk_row row irow)
  in
  let probe =
    match ctx.snapshot with
    | Some _ ->
      (* snapshot probe: the live index tracks the heap, so probe the
         posting lists rebuilt from the frozen slot array instead *)
      let postings =
        lazy
          (match build_join ctx frames node with
          | J_postings tbl -> tbl
          | _ -> assert false)
      in
      fun emit row -> (
        match Tuple.Tbl.find (Lazy.force postings) scratch with
        | exception Not_found -> ()
        | matches ->
          List.iter
            (fun irow ->
              ctx.rows_scanned <- ctx.rows_scanned + 1;
              emit_match emit row irow)
            matches)
    | None ->
      fun emit row ->
        (* Index.iter probes without building a rid list. *)
        Index.iter index scratch (fun rid ->
            match Base_table.get table rid with
            | None -> ()
            | Some irow ->
              ctx.rows_scanned <- ctx.rows_scanned + 1;
              emit_match emit row irow)
  in
  pack ~capacity:ctx.batch_capacity (fun ~emit ->
      match outer_it () with
      | None -> false
      | Some ob ->
        Batch.iter (fun row -> if extract row then probe emit row) ob;
        true)

(** Open a hash join ([node] is the [Hash_join]).  [mk_row] builds each
    output row from a probe row and a build match — [Tuple.concat] for
    the plain join, a column picker when a projection has been fused
    into the emit.  The residual (if any) is always evaluated over the
    full concatenation.

    The join's [jfilter] hint adds a sideways filter to the build (see
    {!build_join}): key range atoms prune whole probe chunks, and the
    Bloom is tested per probe key before the heap tuple is
    materialized.  The filter is false-positive-only, so output is
    byte-identical with it off. *)
and open_hash_join (ctx : ctx) (frames : Eval.frames)
    ~(mk_row : Tuple.t -> Tuple.t -> Tuple.t) (node : Plan.t) : batch_iter =
  let probe, probe_keys, residual =
    match node with
    | Plan.Hash_join { probe; probe_keys; residual; _ } ->
      (probe, probe_keys, residual)
    | _ -> invalid_arg "Exec.open_hash_join"
  in
  let emit_match =
    match residual_test ctx residual with
    | None -> fun emit row m -> emit (mk_row row m)
    | Some test ->
      fun emit row m ->
        let t = Tuple.concat row m in
        if is_true (test frames t) then emit (mk_row row m)
  in
  (* full three-argument applications: no per-probe-row partial closure *)
  let rec emit_matches emit row = function
    | [] -> ()
    | m :: tl ->
      emit_match emit row m;
      emit_matches emit row tl
  in
  let table = lazy (build_join ctx frames node) in
  let jf_pass = jf_adaptive ctx in
  match probe_keys with
  | [ pk ] -> (
    match probe_column ctx probe pk with
    | Some (cs, ki, kind) ->
      (* chunk-driven probe: keys (dictionary codes for strings) come
         straight off the unboxed column; the probe-side heap tuple is
         materialized only for rows that survive the atoms (and, with no
         residual, only on a match) *)
      let store = cs.Colscan.store in
      let ptable = cs.Colscan.table in
      let katoms = cs.Colscan.katoms in
      let test = Option.map (compile_pred ctx) cs.Colscan.residual in
      let sel = Array.make (Colstore.chunk_rows store) 0 in
      let n_chunks = Colstore.n_chunks store in
      let chunk = ref 0 in
      (* build-side key range as zone-prunable atoms over the probe's key
         column (forces the build); codes are unordered, so a string key
         is filtered by its Bloom alone *)
      let jf_atoms =
        lazy
          (match kind, Lazy.force table with
          | `Int, J_key (_, Some bl) -> (
            match Bloom.range bl with
            | Some (lo, hi) ->
              Colstore.compile store
                [
                  Colstore.A_cmp (ki, Colstore.Cge, Value.Int lo);
                  Colstore.A_cmp (ki, Colstore.Cle, Value.Int hi);
                ]
            | None -> None)
          | _ -> None)
      in
      pack ~capacity:ctx.batch_capacity (fun ~emit ->
          if !chunk >= n_chunks then false
          else begin
            let c = !chunk in
            incr chunk;
            if Colstore.prune_chunk store katoms c then chunk_skipped ctx
            else begin
              match Lazy.force jf_atoms with
              | Some ja when Colstore.prune_chunk store ja c ->
                (* every key in the chunk is outside the build's range —
                   pruned before the chunk's arrays are read *)
                jf_chunk_skipped ctx
              | _ ->
                let n = Colstore.select_chunk store katoms c sel in
                let mat = ref 0 in
                (if n > 0 then begin
                   let data, knulls, kbase = Colstore.key_chunk store ki c in
                   match Lazy.force table, test with
                   | (J_key (T_int itbl, flt) | J_codes (itbl, flt)), None ->
                     for j = 0 to n - 1 do
                       let s = Array.unsafe_get sel j in
                       let l = s - kbase in
                       if not (Colstore.bit_get knulls l) then begin
                         let k = Array.unsafe_get data l in
                         if match flt with None -> true | Some bl -> jf_pass bl k
                         then begin
                           match Itbl.find itbl k with
                           | exception Not_found -> ()
                           | matches ->
                             incr mat;
                             emit_matches emit (Base_table.get_exn ptable s)
                               matches
                         end
                       end
                     done
                   | (J_key (T_int itbl, flt) | J_codes (itbl, flt)), Some t ->
                     for j = 0 to n - 1 do
                       let s = Array.unsafe_get sel j in
                       let l = s - kbase in
                       if not (Colstore.bit_get knulls l) then begin
                         let k = Array.unsafe_get data l in
                         (* the Bloom runs before materialization: a key
                            absent from the build can't survive the join
                            whatever the residual says *)
                         if match flt with None -> true | Some bl -> jf_pass bl k
                         then begin
                           let row = Base_table.get_exn ptable s in
                           incr mat;
                           if is_true (t frames row) then begin
                             match Itbl.find itbl k with
                             | exception Not_found -> ()
                             | matches -> emit_matches emit row matches
                           end
                         end
                       end
                     done
                   | J_key (T_val vtbl, _), test ->
                     (* an int probe column against value build keys
                        (some build key was not an Int): probe with
                        boxed Int values *)
                     for j = 0 to n - 1 do
                       let s = Array.unsafe_get sel j in
                       let l = s - kbase in
                       if not (Colstore.bit_get knulls l) then begin
                         let row = Base_table.get_exn ptable s in
                         incr mat;
                         let keep =
                           match test with
                           | None -> true
                           | Some t -> is_true (t frames row)
                         in
                         if keep then begin
                           match
                             Vtbl.find vtbl (Value.Int (Array.unsafe_get data l))
                           with
                           | exception Not_found -> ()
                           | matches -> emit_matches emit row matches
                         end
                       end
                     done
                   | (J_tuple _ | J_postings _), _ -> assert false
                 end);
                chunk_scanned ctx ~live:(Colstore.live_in_chunk store c)
                  ~materialized:!mat
            end;
            true
          end)
    | None ->
      let pf = Eval.compile_scalar_fn pk in
      (* the probe source is chosen once the build table (and so the
         filter) exists: a bare base-table probe with an int-keyed build
         applies the join filter inside the scan itself, so dropped rows
         never enter a batch *)
      let state =
        lazy
          (let tbl, flt =
             match Lazy.force table with
             | J_key (tbl, flt) -> (tbl, flt)
             | _ -> assert false
           in
           (* [loop_flt] is the filter still owed by the probe loop: None
              once the scan itself already applied it *)
           let probe_it, loop_flt =
             match probe, pk, tbl, flt with
             | Plan.Scan pt, Plan.P_col ki, T_int _, Some bl ->
               (* rows whose key cannot equal any int build key (NULL,
                  strings, fractional floats) never join and are safe
                  to drop here too, exactly as the probe loop below
                  ignores them *)
               let keep row =
                 match Array.unsafe_get row ki with
                 | Value.Int i -> jf_pass bl i
                 | Value.Float f -> (
                   match Value.int_key_of_float f with
                   | Some i -> jf_pass bl i
                   | None -> false)
                 | _ -> false
               in
               (open_scan ctx ~keep pt, None)
             | _ -> (open_plan ctx frames probe, flt)
           in
           (tbl, probe_it, loop_flt))
      in
      pack ~capacity:ctx.batch_capacity (fun ~emit ->
          let tbl, probe_it, loop_flt = Lazy.force state in
          match probe_it () with
          | None -> false
          | Some pb ->
            (match tbl with
            | T_int itbl ->
              let may =
                match loop_flt with
                | Some bl -> fun i -> jf_pass bl i
                | None -> fun _ -> true
              in
              Batch.iter
                (fun row ->
                  (* Ints and integral Floats compare equal under SQL
                     numeric equality, so integral Float probes fold onto
                     the int key; other types never equal an Int key.
                     [int_key_of_float] bounds the fold to floats that
                     really carry an int key — exact at 2^53 and beyond,
                     where the old [abs f < 1e18] test was lossy. *)
                  let probe_int i =
                    if may i then
                      match Itbl.find itbl i with
                      | exception Not_found -> ()
                      | matches -> emit_matches emit row matches
                  in
                  match pf frames row with
                  | Value.Int i -> probe_int i
                  | Value.Float f -> (
                    match Value.int_key_of_float f with
                    | Some i -> probe_int i
                    | None -> ())
                  | _ -> ())
                pb
            | T_val tbl ->
              Batch.iter
                (fun row ->
                  let v = pf frames row in
                  if not (Value.is_null v) then
                    match Vtbl.find tbl v with
                    | exception Not_found -> ()
                    | matches -> emit_matches emit row matches)
                pb);
            true))
  | _ ->
    (* multi-key (tuple) join: the sideways filter works over
       [Tuple.hash] of the whole key tuple — consistent with
       [Tuple.Tbl]'s own hashing, so a key the table would find always
       passes (false-positive-only, as required for byte-identity).
       The Bloom membership test is a single cache-line probe, cheaper
       than the table's bucket walk + tuple equality on misses. *)
    let probe_it = open_plan ctx frames probe in
    let extract, scratch = make_key_fn frames probe_keys in
    pack ~capacity:ctx.batch_capacity (fun ~emit ->
        match probe_it () with
        | None -> false
        | Some pb ->
          let tbl, flt =
            match Lazy.force table with
            | J_tuple (tbl, flt) -> (tbl, flt)
            | _ -> assert false
          in
          let lookup row =
            match Tuple.Tbl.find tbl scratch with
            | exception Not_found -> ()
            | matches -> emit_matches emit row matches
          in
          let probe_row =
            match flt with
            | None -> fun row -> if extract row then lookup row
            | Some bl ->
              fun row ->
                if extract row && jf_pass bl (Tuple.hash scratch) then
                  lookup row
          in
          Batch.iter probe_row pb;
          true)

(** Build the table a join probes: for a [Hash_join] its build side
    keyed by the build keys, plus — when the planner's [jfilter] hint
    is set — a {!Bloom} sideways filter over the distinct keys; for an
    [Index_join] under a snapshot the posting lists of its index,
    rebuilt from the frozen slot array. *)
and build_join (ctx : ctx) (frames : Eval.frames) (node : Plan.t) : join_table =
  match node with
  | Plan.Hash_join
      { build; probe; build_keys = [ bk ]; probe_keys = [ pk ]; jfilter; _ } -> (
    let want_jf = jfilter <> None in
    let tbl =
      (* the columnar mirror tracks the live heap: under a snapshot the
         build must drain the (frozen) row pipeline instead *)
      match
        (if ctx.snapshot = None then columnar_build ctx frames ~build ~key:bk
         else None)
      with
      | Some tbl -> tbl
      | None ->
        let tbl = Vtbl.create 256 in
        let all_int = ref true in
        let bf = Eval.compile_scalar_fn bk in
        let bit = open_plan ctx frames build in
        let rec drain () =
          match bit () with
          | None -> ()
          | Some b ->
            Batch.iter
              (fun row ->
                let v = bf frames row in
                if not (Value.is_null v) then begin
                  (match v with Value.Int _ -> () | _ -> all_int := false);
                  let prev = try Vtbl.find tbl v with Not_found -> [] in
                  Vtbl.replace tbl v (row :: prev)
                end)
              b;
            drain ()
        in
        drain ();
        if !all_int then begin
          (* re-key by raw int: the probe loop then skips the generic
             value hash entirely *)
          let itbl = Itbl.create (2 * Vtbl.length tbl) in
          Vtbl.iter
            (fun v rows ->
              match v with
              | Value.Int i -> Itbl.replace itbl i rows
              | _ -> assert false)
            tbl;
          T_int itbl
        end
        else T_val tbl
    in
    match probe_column ctx probe pk, tbl with
    | Some (cs, _, `Str), _ ->
      (* a string-keyed columnar probe compares dictionary codes: build
         strings fold onto probe-side codes once, so the probe loop
         never touches a string.  A build string absent from the probe
         dictionary cannot match any probe row and is dropped here. *)
      let itbl = Itbl.create 256 in
      (match tbl with
      | T_val vtbl ->
        Vtbl.iter
          (fun v rows ->
            match v with
            | Value.Str s -> (
              match Colstore.dict_find cs.Colscan.store s with
              | Some code -> Itbl.replace itbl code rows
              | None -> ())
            | _ -> () (* non-string keys never equal a string key *))
          vtbl
      | T_int _ -> () (* int build keys never equal a string key *));
      J_codes (itbl, if want_jf then Some (itbl_filter ctx itbl) else None)
    | _, T_int itbl when want_jf -> J_key (tbl, Some (itbl_filter ctx itbl))
    | _ -> J_key (tbl, None))
  | Plan.Hash_join { build; build_keys; jfilter; _ } ->
    let tbl = Tuple.Tbl.create 256 in
    let bfs = List.map Eval.compile_scalar_fn build_keys in
    let bit = open_plan ctx frames build in
    let rec drain () =
      match bit () with
      | None -> ()
      | Some b ->
        Batch.iter
          (fun row ->
            let key = Array.of_list (List.map (fun f -> f frames row) bfs) in
            if not (Array.exists Value.is_null key) then begin
              let prev = try Tuple.Tbl.find tbl key with Not_found -> [] in
              Tuple.Tbl.replace tbl key (row :: prev)
            end)
          b;
        drain ()
    in
    drain ();
    let flt =
      if jfilter <> None then begin
        (* one pass over the finished table: exactly sized, one entry
           per distinct key tuple *)
        let bl = Bloom.create ~expected:(Tuple.Tbl.length tbl) in
        Tuple.Tbl.iter (fun k _ -> Bloom.add bl (Tuple.hash k)) tbl;
        jf_built ctx;
        Some bl
      end
      else None
    in
    J_tuple (tbl, flt)
  | Plan.Index_join { table; index; _ } ->
    let frozen =
      match ctx.snapshot with
      | Some frozen -> frozen
      | None -> invalid_arg "Exec.build_join: live index join"
    in
    (* matches cons on ascending rid, so list iteration presents
       descending rid — exactly the order {!Index.iter} walks (postings
       are rid-sorted ascending and iterated in reverse) *)
    let cols = index.Index.key_columns in
    let tbl = Tuple.Tbl.create 256 in
    Array.iter
      (function
        | None -> ()
        | Some irow ->
          let key = Array.map (fun c -> irow.(c)) cols in
          (* null keys are never probed: the key extractor refuses them *)
          if not (Array.exists Value.is_null key) then begin
            let prev = try Tuple.Tbl.find tbl key with Not_found -> [] in
            Tuple.Tbl.replace tbl key (irow :: prev)
          end)
      (frozen table);
    J_postings tbl
  | _ -> invalid_arg "Exec.build_join"

(** Columnar build for a single-[Tint]-column hash-join key: drain the
    build side chunk-at-a-time and fill the int-keyed table straight
    from the unboxed key column — no per-row key closure, no [Value]
    match.  [None] when the build side is not a columnar scan or the
    key is not a bare [Tint] column. *)
and columnar_build (ctx : ctx) (frames : Eval.frames) ~build ~key :
    single_key_table option =
  match Colscan.of_plan ~require_atoms:false build with
  | None -> None
  | Some cs ->
    (match Colscan.int_key cs key with
    | None -> None
    | Some ki ->
      let store = cs.Colscan.store in
      let katoms = cs.Colscan.katoms in
      let test = Option.map (compile_pred ctx) cs.Colscan.residual in
      let sel = Array.make (Colstore.chunk_rows store) 0 in
      let itbl = Itbl.create 256 in
      for c = 0 to Colstore.n_chunks store - 1 do
        if Colstore.prune_chunk store katoms c then chunk_skipped ctx
        else begin
          let n = Colstore.select_chunk store katoms c sel in
          let mat = ref 0 in
          (if n > 0 then begin
             let data, knulls, kbase = Colstore.key_chunk store ki c in
             for j = 0 to n - 1 do
               let s = Array.unsafe_get sel j in
               let l = s - kbase in
               (* null keys never join: skip before materializing *)
               if not (Colstore.bit_get knulls l) then begin
                 let row = Base_table.get_exn cs.Colscan.table s in
                 incr mat;
                 let keep =
                   match test with
                   | None -> true
                   | Some t -> is_true (t frames row)
                 in
                 if keep then begin
                   let k = Array.unsafe_get data l in
                   let prev = try Itbl.find itbl k with Not_found -> [] in
                   Itbl.replace itbl k (row :: prev)
                 end
               end
             done
           end);
          chunk_scanned ctx ~live:(Colstore.live_in_chunk store c)
            ~materialized:!mat
        end
      done;
      Some (T_int itbl))

(** Materialize a subplan into a batch list.  Uncorrelated subplans
    ([frames = []]) are cached by physical plan identity in the context,
    so every consumer of the same subplan object — a [Shared] box, a
    join inner re-opened by a second output plan of a multi-output
    query, or a re-run of the same compiled plan — drains it exactly
    once and re-reads the batches without copying. *)
and materialize (ctx : ctx) (frames : Eval.frames) (p : Plan.t) : Batch.t list =
  match p with
  | Plan.Shared (bid, inner) -> get_shared ctx frames bid inner
  | _ when frames = [] -> begin
    match List.find_opt (fun (q, _) -> q == p) ctx.materialized with
    | Some (_, bs) -> bs
    | None ->
      let bs = drain_batches (open_plan ctx frames p) in
      ctx.materialized <- (p, bs) :: ctx.materialized;
      ctx.materializations <- ctx.materializations + 1;
      bs
  end
  | _ -> drain_batches (open_plan ctx frames p)

and get_shared (ctx : ctx) (frames : Eval.frames) (bid : int) (inner : Plan.t) :
    Batch.t list =
  match Hashtbl.find_opt ctx.shared bid with
  | Some bs -> bs
  | None ->
    (* Cross-query promotion: an uncorrelated CSE materialization is a
       pure function of (plan structure, table versions), so consult the
       process-wide cache before draining.  Batches are handed out (and
       stored) through [Batch.share_list]: consumers mutate selection
       vectors on their own records, never on the cached ones. *)
    let global_key =
      (* snapshot contexts neither read nor fill the cross-query cache:
         their batches reflect the pinned epoch, not the live versions
         the cache key names *)
      if ctx.result_cache && ctx.snapshot = None && frames = [] then
        Some
          ("cse|" ^ Plan.fingerprint inner ^ "|" ^ Plan.version_key inner)
      else None
    in
    let cached =
      match global_key with
      | Some key -> (
        match Result_cache.find key with
        | Some (Cached_batches bs) -> Some (Batch.share_list bs)
        | Some _ | None -> None)
      | None -> None
    in
    let bs =
      match cached with
      | Some bs -> bs
      | None ->
        let bs = drain_batches (open_plan ctx frames inner) in
        ctx.materializations <- ctx.materializations + 1;
        (match global_key with
        | Some key ->
          let snapshot = Batch.share_list bs in
          Result_cache.store key
            ~bytes:(Result_cache.batch_list_bytes snapshot)
            (Cached_batches snapshot)
        | None -> ());
        bs
    in
    Hashtbl.replace ctx.shared bid bs;
    bs

(** Compile a predicate for per-row use inside a batch loop: pure
    predicates become one closure built at open time; predicates with
    subplan probes fall back to the interpreting [eval_pred]. *)
and compile_pred (ctx : ctx) (p : Plan.ppred) :
    Eval.frames -> Tuple.t -> bool option =
  match Eval.compile_pred_pure p with
  | Some f -> f
  | None -> fun frames tuple -> eval_pred ctx frames tuple p

(** [None] when the join residual is trivially true (the common case
    after predicate pushdown), so the match loop skips the per-row
    test call entirely. *)
and residual_test (ctx : ctx) (p : Plan.ppred) :
    (Eval.frames -> Tuple.t -> bool option) option =
  match p with Plan.P_true -> None | _ -> Some (compile_pred ctx p)

and eval_pred ctx (frames : Eval.frames) (tuple : Tuple.t) (p : Plan.ppred) :
    bool option =
  match p with
  | Plan.P_true -> Some true
  | Plan.P_false -> Some false
  | Plan.P_cmp (op, a, b) ->
    Eval.compare3 op (Eval.scalar frames tuple a) (Eval.scalar frames tuple b)
  | Plan.P_and (a, b) ->
    Eval.and3 (eval_pred ctx frames tuple a) (eval_pred ctx frames tuple b)
  | Plan.P_or (a, b) ->
    Eval.or3 (eval_pred ctx frames tuple a) (eval_pred ctx frames tuple b)
  | Plan.P_not a -> Eval.not3 (eval_pred ctx frames tuple a)
  | Plan.P_is_null s -> Some (Value.is_null (Eval.scalar frames tuple s))
  | Plan.P_is_not_null s -> Some (not (Value.is_null (Eval.scalar frames tuple s)))
  | Plan.P_like (s, pat) -> begin
    match Eval.scalar frames tuple s with
    | Value.Null -> None
    | Value.Str str -> Some (Eval.like_match ~pattern:pat str)
    | v -> Errors.type_error "LIKE on non-string %s" (Value.to_string v)
  end
  | Plan.P_exists sub ->
    ctx.subqueries_run <- ctx.subqueries_run + 1;
    let it = open_plan ctx (tuple :: frames) sub in
    let rec nonempty () =
      match it () with
      | None -> false
      | Some b -> (not (Batch.is_empty b)) || nonempty ()
    in
    Some (nonempty ())
  | Plan.P_in (s, sub) -> begin
    let v = Eval.scalar frames tuple s in
    ctx.subqueries_run <- ctx.subqueries_run + 1;
    let it = open_plan ctx (tuple :: frames) sub in
    let saw_null = ref false in
    let rec go () =
      match it () with
      | None -> if Value.is_null v || !saw_null then None else Some false
      | Some b ->
        let n = Batch.length b in
        let rec scan i =
          if i >= n then go ()
          else begin
            let w = (Batch.get b i).(0) in
            if Value.is_null w || Value.is_null v then begin
              saw_null := true;
              scan (i + 1)
            end
            else if Value.compare v w = 0 then Some true
            else scan (i + 1)
          end
        in
        scan 0
    in
    go ()
  end

(* -- public surface ------------------------------------------------------ *)

(** Victim finding for UPDATE/DELETE: every live row of [table]
    satisfying [pp], returned {e descending} by rid — the order the
    engine's historical per-row fold applied mutations in, which
    unique-violation timing (e.g. [SET k = k + 1] on a unique column)
    observably depends on.

    The predicate runs through the executor's batch layer instead of a
    per-row interpreter pass: when a conjunct compiles to a columnar
    kernel the colstore path zone-prunes whole chunks and evaluates
    against the column arrays; otherwise rows flow through
    {!Eval.select_batch} selection vectors a batch at a time. *)
let scan_victims (ctx : ctx) (table : Base_table.t) (pp : Plan.ppred) :
    (Heap.rid * Tuple.t) list =
  let acc = ref [] in
  (match Colscan.of_plan (Plan.Filter (Plan.Scan table, pp)) with
  | Some cs ->
    let store = cs.Colscan.store in
    let katoms = cs.Colscan.katoms in
    let test = Option.map (compile_pred ctx) cs.Colscan.residual in
    let sel = Array.make (Colstore.chunk_rows store) 0 in
    for c = 0 to Colstore.n_chunks store - 1 do
      if Colstore.prune_chunk store katoms c then chunk_skipped ctx
      else begin
        let n = Colstore.select_chunk store katoms c sel in
        chunk_scanned ctx ~live:(Colstore.live_in_chunk store c) ~materialized:n;
        (* slots ascend within and across chunks, so consing yields the
           descending-rid victim list directly *)
        for i = 0 to n - 1 do
          let s = Array.unsafe_get sel i in
          let row = Base_table.get_exn cs.Colscan.table s in
          match test with
          | None -> acc := (s, row) :: !acc
          | Some t -> if is_true (t [] row) then acc := (s, row) :: !acc
        done
      end
    done
  | None ->
    let test = compile_pred ctx pp in
    let cap = max 1 ctx.batch_capacity in
    let b = Batch.create ~capacity:cap () in
    let rids = Array.make cap 0 in
    let flush () =
      if b.Batch.len > 0 then begin
        Eval.select_batch [] b test;
        (match b.Batch.sel with
        | Some sel ->
          for i = 0 to b.Batch.sel_len - 1 do
            let j = Array.unsafe_get sel i in
            acc := (rids.(j), b.Batch.rows.(j)) :: !acc
          done
        | None ->
          for j = 0 to b.Batch.len - 1 do
            acc := (rids.(j), b.Batch.rows.(j)) :: !acc
          done);
        b.Batch.len <- 0;
        b.Batch.sel <- None;
        b.Batch.sel_len <- 0
      end
    in
    for rid = 0 to Base_table.slot_count table - 1 do
      match Base_table.get table rid with
      | None -> ()
      | Some row ->
        ctx.rows_scanned <- ctx.rows_scanned + 1;
        rids.(b.Batch.len) <- rid;
        Batch.push b row;
        if Batch.is_full b then flush ()
    done;
    flush ());
  !acc

(** Open a compiled plan as a demand-driven batch cursor (the table
    queue itself).  Batches delivered here bump [ctx.batches_emitted]. *)
let open_batches ?(ctx = make_ctx ()) (c : Plan.compiled) : batch_iter =
  let it = open_plan ctx [] c.Plan.plan in
  fun () ->
    match it () with
    | Some b ->
      ctx.batches_emitted <- ctx.batches_emitted + 1;
      Some b
    | None -> None

(** Run a compiled plan to completion, returning its batches. *)
let run_batches ?ctx (c : Plan.compiled) : Batch.t list =
  drain_batches (open_batches ?ctx c)

(** Run a compiled plan to completion. *)
let run ?ctx (c : Plan.compiled) : Tuple.t list =
  Batch.list_to_rows (run_batches ?ctx c)

(** One-tuple-at-a-time adapter over a batch cursor. *)
let to_seq (it : batch_iter) : Tuple.t Seq.t =
  let rec batches () =
    match it () with None -> Seq.Nil | Some b -> rows b 0 ()
  and rows b i () =
    if i >= Batch.length b then batches ()
    else Seq.Cons (Batch.get b i, rows b (i + 1))
  in
  batches

(** Open a compiled plan as a demand-driven one-tuple cursor (compat
    shim for cursors and examples). *)
let cursor ?(ctx = make_ctx ()) (c : Plan.compiled) : iter =
  let state = ref (to_seq (open_batches ~ctx c)) in
  fun () ->
    match !state () with
    | Seq.Nil -> None
    | Seq.Cons (x, tl) ->
      state := tl;
      Some x
