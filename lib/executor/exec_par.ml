(** Morsel-parallel execution on OCaml 5 domains: a driver over {!Exec}'s
    own operators.

    - A pipeline (scan, filter, project, the probe side of a hash join,
      the outer side of an index or nested-loop join) is split at its
      driving table into slot-range morsels; a columnar scan takes each
      colstore chunk whole, in the morsel that holds its first slot.
      {!Relcore.Pool.for_morsels} runs {!Exec.open_plan} over each
      morsel on a sibling context whose [morsel] narrows that one scan,
      and the outputs are concatenated in morsel order — the order
      {!Exec} produces.
    - Whatever the morsels only read is built once on the calling
      domain first ({!Exec.prepare_join}): hash tables with their join
      filters, snapshot posting lists, nested-loop inners.
    - Blocking operators (Aggregate, Sort, Distinct) run
      serially in {!Exec} over their input, drained in parallel and
      spliced in as a [Values] leaf.
    - Plans with correlated subplan probes or a LIMIT, and pipelines
      that start anywhere but a base table, run in {!Exec} as they are.

    Results are therefore bit-identical to {!Exec}; a snapshot context
    is just one more scan source, which {!Exec} already reads. *)

open Relcore
module Plan = Optimizer.Plan
module Cost = Optimizer.Cost

type opts = {
  domains : int;
  morsel : int option; (* forced morsel size; None = adaptive *)
  threshold : int; (* serial below this many source rows *)
}

(** Cheap syntactic check: will {!run_batches} fan this plan out (as
    opposed to running it in {!Exec} as it is)?  Used by schedulers to
    decide which plans to fan out; a mispredict only affects
    scheduling, never results. *)
let parallelizable (p : Plan.t) : bool =
  let pure pred = Eval.compile_pred_pure pred <> None in
  let rec go = function
    | Plan.Scan _ | Plan.Values _ | Plan.Shared _ -> true
    | Plan.Filter (i, pred) -> pure pred && go i
    | Plan.Project (i, _) -> go i
    | Plan.Nl_join { outer; cond; _ } -> pure cond && go outer
    | Plan.Hash_join { probe; residual; _ } -> pure residual && go probe
    | Plan.Index_join { outer; residual; _ } -> pure residual && go outer
    | Plan.Aggregate { input; _ } -> go input
    | Plan.Sort (i, _) | Plan.Distinct i -> go i
    | Plan.Union_all is -> List.for_all go is
    | Plan.Limit _ -> false
  in
  go p

(** The base table a pipeline's morsels partition: the leaf under its
    chain of streaming operators. *)
let rec driving_table = function
  | Plan.Scan t -> Some t
  | Plan.Filter (i, _) | Plan.Project (i, _) -> driving_table i
  | Plan.Hash_join { probe = i; _ }
  | Plan.Index_join { outer = i; _ }
  | Plan.Nl_join { outer = i; _ } ->
    driving_table i
  | _ -> None

(** Build, on the calling domain, everything along the chain that the
    morsels only read. *)
let rec prepare (ctx : Exec.ctx) = function
  | Plan.Filter (i, _) | Plan.Project (i, _) -> prepare ctx i
  | (Plan.Hash_join { probe = i; _ } | Plan.Index_join { outer = i; _ }) as j ->
    Exec.prepare_join ctx j;
    prepare ctx i
  | Plan.Nl_join { outer; inner; _ } ->
    ignore (Exec.materialize ctx [] inner : Batch.t list);
    prepare ctx outer
  | _ -> ()

let serial (ctx : Exec.ctx) (p : Plan.t) : Batch.t list =
  Exec.drain_batches (Exec.open_plan ctx [] p)

(** Run a pipeline over morsels of its driving table, or serially when
    it has none or is too small to pay for the fan-out. *)
let pipeline (ctx : Exec.ctx) ~opts (p : Plan.t) : Batch.t list =
  match driving_table p with
  | None -> serial ctx p
  | Some t ->
    let slots =
      match ctx.Exec.snapshot with
      | Some frozen -> Array.length (frozen t)
      | None -> Base_table.slot_count t
    in
    (* A columnar scan takes each chunk whole, in the morsel holding the
       chunk's first slot, so any size is correct.  The adaptive size
       is whole chunks when the colstore may serve the scan, so that no
       morsel comes up empty. *)
    let size =
      match opts.morsel with
      | Some n -> max 1 n
      | None ->
        (* enough morsels for dynamic load balancing (~8 per worker),
           large enough that scheduling is noise *)
        let size = min 16384 (max 256 (slots / max 1 (opts.domains * 8))) in
        if Option.is_none ctx.Exec.snapshot && Colstore.enabled () then
          let ch = Colstore.chunk_rows t.Base_table.colstore in
          (size + ch - 1) / ch * ch
        else size
    in
    let n = (slots + size - 1) / size in
    let rows = Base_table.cardinality t in
    let dop =
      if Pool.in_worker () || n <= 1 then 1
      else
        min n
          (Cost.choose_dop ~threshold:opts.threshold ~domains:opts.domains
             ~rows ())
    in
    if dop <= 1 then serial ctx p
    else begin
      prepare ctx p;
      let workers =
        Array.init n (fun m ->
            let hi = if m = n - 1 then max_int else (m + 1) * size in
            {
              (Exec.sibling_ctx ctx) with
              Exec.morsel = Some (t, m * size, hi);
            })
      in
      let out = Array.make n [] in
      Pool.for_morsels ~domains:dop ~morsels:n (fun m ->
          out.(m) <- serial workers.(m) p);
      Array.iter (Exec.absorb ~into:ctx) workers;
      List.concat (Array.to_list out)
    end

(** Drain a plan to its batch list in {!Exec}'s row order.  With EXPLAIN
    ANALYZE armed, a blocking operator's open and output rows are
    recorded here against its node: the operator that runs is a fresh,
    unnumbered copy over the spliced input. *)
let rec drain (ctx : Exec.ctx) ~opts (p : Plan.t) : Batch.t list =
  match p with
  | Plan.Aggregate a ->
    blocking ctx p (fun () ->
        Plan.Aggregate { a with input = spliced ctx ~opts a.input })
  | Plan.Sort (input, specs) ->
    blocking ctx p (fun () -> Plan.Sort (spliced ctx ~opts input, specs))
  | Plan.Distinct input ->
    blocking ctx p (fun () -> Plan.Distinct (spliced ctx ~opts input))
  | Plan.Union_all inputs ->
    timed ctx p (fun () -> List.concat_map (drain ctx ~opts) inputs)
  | _ -> pipeline ctx ~opts p

and spliced ctx ~opts (input : Plan.t) : Plan.t =
  Plan.Values (Batch.list_to_rows (drain ctx ~opts input))

and blocking ctx p (rebuild : unit -> Plan.t) : Batch.t list =
  timed ctx p (fun () -> serial ctx (rebuild ()))

and timed (ctx : Exec.ctx) (p : Plan.t) (f : unit -> Batch.t list) :
    Batch.t list =
  match ctx.Exec.analyze with
  | Some acc when Opstats.id_of acc p >= 0 ->
    let id = Opstats.id_of acc p in
    let t0 = Opstats.now () in
    let bs = f () in
    Opstats.note_open acc id (Opstats.now () -. t0);
    Opstats.add_rows acc id (Batch.list_length bs);
    bs
  | _ -> f ()

(* -- public surface ------------------------------------------------------ *)

(** Run a compiled plan across the domain pool.  Row order — and hence
    the result — is always identical to {!Exec.run_batches}. *)
let run_batches ?ctx ?domains ?morsel_rows ?threshold (c : Plan.compiled) :
    Batch.t list =
  let ctx = match ctx with Some c -> c | None -> Exec.make_ctx () in
  if not (parallelizable c.Plan.plan) then Exec.run_batches ~ctx c
  else begin
    let opts =
      {
        domains = Option.value domains ~default:(Pool.default_domains ());
        morsel = morsel_rows;
        threshold = Option.value threshold ~default:Cost.parallel_threshold_rows;
      }
    in
    (* tables prepared for this query's morsels are not the caller's *)
    let joins = ctx.Exec.joins in
    let bs =
      Fun.protect
        ~finally:(fun () -> ctx.Exec.joins <- joins)
        (fun () -> drain ctx ~opts c.Plan.plan)
    in
    ctx.Exec.batches_emitted <- ctx.Exec.batches_emitted + List.length bs;
    bs
  end

let run ?ctx ?domains ?morsel_rows ?threshold (c : Plan.compiled) :
    Tuple.t list =
  Batch.list_to_rows (run_batches ?ctx ?domains ?morsel_rows ?threshold c)
