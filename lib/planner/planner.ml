(** Plan optimization: QGM → QEP (the "Plan Optimization and Plan
    Refinement" stage of Fig. 2).

    Join orders come from {!Join_order} (cost-based DP); access methods
    prefer index joins over hash joins over nested loops.  Boxes with
    multiple consumers and no correlated references compile to [Shared]
    nodes, materialized once per execution — the engine-level mechanism
    behind XNF's common-subexpression sharing (Sect. 4.2, Fig. 5b). *)

open Relcore
module Qgm = Starq.Qgm
module Ast = Sqlkit.Ast

type layout = (int * (int * int)) list (* qid -> (offset, width) *)

type ctx = {
  consumers : (int, (Qgm.box * Qgm.quant) list) Hashtbl.t;
  outer : layout list; (* correlation frames, innermost first *)
  share : bool; (* enable common-subexpression sharing *)
  est : (Plan.t * float) list ref; (* row estimate per emitted node *)
}

(* Record the estimate the planner used for [plan]. *)
let note ctx rows plan =
  ctx.est := (plan, rows) :: !(ctx.est);
  plan

let box_width (b : Qgm.box) = Array.length b.Qgm.head

let layout_find (layout : layout) qid = List.assoc_opt qid layout

(** Resolve a quantifier column against the frame stack: frame 0 is the
    current tuple, frame k>0 becomes a correlated parameter. *)
let resolver (frames : layout list) (qid : int) (i : int) : Plan.scalar =
  let rec go level = function
    | [] -> Errors.execution_error "planner: unresolved quantifier %d" qid
    | frame :: rest -> (
      match layout_find frame qid with
      | Some (off, _w) ->
        if level = 0 then Plan.P_col (off + i) else Plan.P_param (level - 1, off + i)
      | None -> go (level + 1) rest)
  in
  go 0 frames

let rec compile_scalar resolve (e : Qgm.bexpr) : Plan.scalar =
  match e with
  | Qgm.Qcol (q, i) -> resolve q i
  | Qgm.Const v -> Plan.P_const v
  | Qgm.Bop (op, a, b) ->
    Plan.P_bop (op, compile_scalar resolve a, compile_scalar resolve b)
  | Qgm.Bneg a -> Plan.P_neg (compile_scalar resolve a)
  | Qgm.Bfn (name, args) ->
    Plan.P_fn (name, List.map (compile_scalar resolve) args)
  | Qgm.Bagg _ ->
    Errors.execution_error "planner: aggregate outside a Group context"

let rec compile_pred ctx (frames : layout list) (p : Qgm.bpred) : Plan.ppred =
  let resolve = resolver frames in
  match p with
  | Qgm.Btrue -> Plan.P_true
  | Qgm.Bcmp (op, a, b) ->
    Plan.P_cmp (op, compile_scalar resolve a, compile_scalar resolve b)
  | Qgm.Band (a, b) -> Plan.P_and (compile_pred ctx frames a, compile_pred ctx frames b)
  | Qgm.Bor (a, b) -> Plan.P_or (compile_pred ctx frames a, compile_pred ctx frames b)
  | Qgm.Bnot a -> Plan.P_not (compile_pred ctx frames a)
  | Qgm.Bis_null e -> Plan.P_is_null (compile_scalar resolve e)
  | Qgm.Bis_not_null e -> Plan.P_is_not_null (compile_scalar resolve e)
  | Qgm.Blike (e, pat) -> Plan.P_like (compile_scalar resolve e, pat)
  | Qgm.Bexists sub ->
    let subctx = { ctx with outer = frames } in
    Plan.P_exists (compile_box subctx sub)
  | Qgm.Bin_sub (e, sub) ->
    let subctx = { ctx with outer = frames } in
    Plan.P_in (compile_scalar resolve e, compile_box subctx sub)

(* -- select-like boxes -------------------------------------------------- *)

(** Compile the join/filter part of a Select or Group box.  Returns the
    input plan and the resulting layout of box-local quantifiers. *)
and compile_joins ctx (box : Qgm.box) : Plan.t * layout =
  let fquants =
    Array.of_list (List.filter (fun q -> q.Qgm.qkind = Qgm.F) box.Qgm.quants)
  in
  let equants = List.filter (fun q -> q.Qgm.qkind = Qgm.E) box.Qgm.quants in
  let eqids = List.map (fun q -> q.Qgm.qid) equants in
  let local_qids = Qgm.local_qids box in
  (* preds referencing an E quantifier are folded into that quantifier's
     existential probe; others participate in join planning *)
  let epreds, join_preds =
    List.partition
      (fun p -> List.exists (fun q -> List.mem q eqids) (Qgm.bpred_quants p))
      box.Qgm.preds
  in
  if Array.length fquants = 0 then begin
    (* no FROM clause: a single empty tuple, filtered by the preds *)
    let layout = [] in
    let base = Plan.Values [ [||] ] in
    let plan =
      List.fold_left
        (fun acc p -> Plan.Filter (acc, compile_pred ctx (layout :: ctx.outer) p))
        base join_preds
    in
    (attach_equants ctx box plan layout equants epreds, layout)
  end
  else begin
    (* cost-based join order *)
    let cards = Array.map (fun q -> Cost.box_cardinality q.Qgm.over) fquants in
    let qid_index qid =
      let idx = ref None in
      Array.iteri (fun i q -> if q.Qgm.qid = qid then idx := Some i) fquants;
      !idx
    in
    let pred_inputs =
      List.map
        (fun p ->
          let idxs =
            Qgm.bpred_quants p
            |> List.filter_map qid_index
            |> List.sort_uniq compare
          in
          (p, idxs))
        join_preds
    in
    let inp = { Join_order.quants = fquants; cards; preds = pred_inputs } in
    let order = Join_order.choose inp in
    (* each join step is estimated as its prefix of the order *)
    let prefix = ref 0 in
    let note_prefix idx plan =
      prefix := !prefix lor (1 lsl idx);
      note ctx (Join_order.subset_card inp !prefix) plan
    in
    (* place quantifiers one at a time *)
    let placed = Hashtbl.create 8 in
    let layout = ref [] and width = ref 0 in
    let pending = ref join_preds in
    let applicable_now () =
      let can p =
        List.for_all
          (fun qid ->
            (not (List.mem qid local_qids)) || Hashtbl.mem placed qid)
          (Qgm.bpred_quants p)
      in
      let yes, no = List.partition can !pending in
      pending := no;
      yes
    in
    let place_first idx =
      let q = fquants.(idx) in
      Hashtbl.replace placed q.Qgm.qid ();
      layout := [ (q.Qgm.qid, (0, box_width q.Qgm.over)) ];
      width := box_width q.Qgm.over;
      let plan = compile_box ~card:cards.(idx) ctx q.Qgm.over in
      List.fold_left
        (fun acc p -> Plan.Filter (acc, compile_pred ctx (!layout :: ctx.outer) p))
        plan (applicable_now ())
      |> note_prefix idx
    in
    let place_next acc idx =
      let q = fquants.(idx) in
      Hashtbl.replace placed q.Qgm.qid ();
      let next_off = !width in
      let next_w = box_width q.Qgm.over in
      (* classify the now-applicable predicates *)
      let preds_now = applicable_now () in
      let is_probe_side e =
        List.for_all
          (fun qid -> qid <> q.Qgm.qid)
          (Qgm.bexpr_quants e |> List.filter (fun qid -> List.mem qid local_qids))
      in
      let is_build_side e =
        List.for_all
          (fun qid -> qid = q.Qgm.qid || not (List.mem qid local_qids))
          (Qgm.bexpr_quants e)
      in
      let eq_pairs, residual =
        List.partition_map
          (fun p ->
            match p with
            | Qgm.Bcmp (Ast.Eq, a, b) when is_probe_side a && is_build_side b ->
              Left (a, b)
            | Qgm.Bcmp (Ast.Eq, b, a) when is_probe_side a && is_build_side b ->
              Left (a, b)
            | p -> Right p)
          preds_now
      in
      (* subquery-free conjuncts over the newly placed quantifier alone
         become a Filter under the inner input instead of join residual:
         the hash table (and any sideways join filter derived from it)
         then holds only rows that could contribute to output.  Rows
         removed would have failed the residual anyway, and survivor
         order is unchanged, so results are identical. *)
      let rec has_subquery = function
        | Qgm.Bexists _ | Qgm.Bin_sub _ -> true
        | Qgm.Band (a, b) | Qgm.Bor (a, b) ->
          has_subquery a || has_subquery b
        | Qgm.Bnot a -> has_subquery a
        | _ -> false
      in
      let inner_only, residual =
        List.partition
          (fun p ->
            (not (has_subquery p))
            && Qgm.bpred_quants p <> []
            && List.for_all (fun qid -> qid = q.Qgm.qid) (Qgm.bpred_quants p))
          residual
      in
      let probe_frames = !layout :: ctx.outer in
      (* build-side scalars are evaluated on the inner row alone *)
      let build_layout = [ (q.Qgm.qid, (0, next_w)) ] in
      let build_frames = build_layout :: probe_frames in
      let concat_layout = (q.Qgm.qid, (next_off, next_w)) :: !layout in
      let concat_frames = concat_layout :: ctx.outer in
      let conj frames ps =
        List.fold_left
          (fun acc p ->
            let cp = compile_pred ctx frames p in
            if acc = Plan.P_true then cp else Plan.P_and (acc, cp))
          Plan.P_true ps
      in
      let residual_pred = conj concat_frames residual in
      (* quantifier id -> input box, for statistics lookups *)
      let stats_resolve qid =
        Option.map (fun qu -> qu.Qgm.over) (Qgm.find_quant box qid)
      in
      let build_card =
        lazy
          (cards.(idx)
          *. List.fold_left
               (fun acc p -> acc *. Cost.pred_selectivity ~resolve:stats_resolve p)
               1.0 inner_only)
      in
      let inner () =
        let plan = compile_box ~card:cards.(idx) ctx q.Qgm.over in
        match inner_only with
        | [] -> plan
        | ps ->
          note ctx (Lazy.force build_card)
            (Plan.Filter (plan, conj build_frames ps))
      in
      let jfilter_hint () =
        match eq_pairs with
        | [] -> None
        | pairs ->
          let build_card = Lazy.force build_card in
          (* multi-key joins filter on the whole key tuple: a probe row
             must match on {e every} pair, so the tightest single-pair
             estimate is a (conservative) upper bound on the combined
             pass rate *)
          let est =
            List.fold_left
              (fun acc (a, b) ->
                min acc
                  (Cost.join_filter_pass_est stats_resolve ~probe:a ~build:b
                     ~build_card))
              infinity pairs
          in
          if est < Bloom.drop_threshold then Some { Plan.jf_pass_est = est }
          else None
      in
      let plan =
        match eq_pairs with
        | [] -> Plan.Nl_join { outer = acc; inner = inner (); cond = residual_pred }
        | _ -> begin
          (* try an index join when the inner is a plain base table and
             the build-side expressions are bare columns with an index *)
          let index_candidate =
            match q.Qgm.over.Qgm.kind with
            | Qgm.Base t ->
              let cols =
                List.map
                  (fun (_, b) ->
                    match b with
                    | Qgm.Qcol (qid, i) when qid = q.Qgm.qid -> Some i
                    | _ -> None)
                  eq_pairs
              in
              if List.for_all Option.is_some cols then begin
                let cols = List.map Option.get cols in
                match Base_table.index_on t (Array.of_list cols) with
                | Some idx -> Some (t, idx, cols)
                | None -> None
              end
              else None
            | _ -> None
          in
          match index_candidate with
          | Some (t, idx, _cols) ->
            let keys =
              List.map
                (fun (a, _) -> compile_scalar (resolver probe_frames) a)
                eq_pairs
            in
            (* no inner plan to filter: single-quantifier conjuncts stay
               in the index join's residual *)
            Plan.Index_join
              {
                outer = acc;
                table = t;
                index = idx;
                keys;
                residual = conj concat_frames (inner_only @ residual);
              }
          | None ->
            let inner = inner () in
            let probe_keys =
              List.map
                (fun (a, _) -> compile_scalar (resolver probe_frames) a)
                eq_pairs
            in
            let build_keys =
              List.map
                (fun (_, b) -> compile_scalar (resolver build_frames) b)
                eq_pairs
            in
            Plan.Hash_join
              {
                build = inner;
                probe = acc;
                build_keys;
                probe_keys;
                residual = residual_pred;
                jfilter = jfilter_hint ();
              }
        end
      in
      layout := concat_layout;
      width := next_off + next_w;
      note_prefix idx plan
    in
    let plan =
      match order with
      | [] -> assert false
      | first :: rest ->
        List.fold_left place_next (place_first first) rest
    in
    (* anything still pending references outer scopes only *)
    let plan =
      List.fold_left
        (fun acc p -> Plan.Filter (acc, compile_pred ctx (!layout :: ctx.outer) p))
        plan !pending
    in
    (attach_equants ctx box plan !layout equants epreds, !layout)
  end

(** Attach residual existential quantifiers as correlated EXISTS probes. *)
and attach_equants ctx (box : Qgm.box) plan (layout : layout) equants epreds =
  ignore box;
  match equants with
  | [] -> plan
  | _ ->
    let frames = layout :: ctx.outer in
    let probe_of q =
      let qid = q.Qgm.qid in
      let my_preds =
        List.filter (fun p -> List.mem qid (Qgm.bpred_quants p)) epreds
      in
      let sub_w = box_width q.Qgm.over in
      let subctx = { ctx with outer = frames } in
      let sub_plan = compile_box subctx q.Qgm.over in
      (* inside the probe, the E quantifier's columns are the subplan's
         own output columns *)
      let sub_frames = [ (qid, (0, sub_w)) ] :: frames in
      let filter =
        List.fold_left
          (fun acc p ->
            let cp = compile_pred subctx sub_frames p in
            if acc = Plan.P_true then cp else Plan.P_and (acc, cp))
          Plan.P_true my_preds
      in
      match filter with
      | Plan.P_true -> Plan.P_exists sub_plan
      | f -> Plan.P_exists (Plan.Filter (sub_plan, f))
    in
    let pred =
      List.fold_left
        (fun acc q ->
          let p = probe_of q in
          if acc = Plan.P_true then p else Plan.P_and (acc, p))
        Plan.P_true equants
    in
    Plan.Filter (plan, pred)

(** Compile a whole box to a plan producing its head layout, estimated at
    [card] rows (default: {!Cost.box_cardinality}). *)
and compile_box ?card ctx (box : Qgm.box) : Plan.t =
  note ctx (match card with Some c -> c | None -> Cost.box_cardinality box)
  @@
  match box.Qgm.kind with
  | Qgm.Base t -> Plan.Scan t
  | Qgm.Select ->
    let plan = compile_select_body ctx box in
    maybe_share ctx box plan
  | Qgm.Group ->
    let plan = compile_group_body ctx box in
    maybe_share ctx box plan
  | Qgm.Union ->
    let inputs = List.map (fun q -> compile_box ctx q.Qgm.over) box.Qgm.quants in
    let plan = Plan.Union_all inputs in
    let plan = if box.Qgm.distinct then Plan.Distinct plan else plan in
    maybe_share ctx box plan

and maybe_share ctx box plan =
  let n_consumers =
    match Hashtbl.find_opt ctx.consumers box.Qgm.bid with
    | Some l -> List.length l
    | None -> 0
  in
  if ctx.share && n_consumers > 1 && Qgm.free_quants_of_box box = [] then
    Plan.Shared (box.Qgm.bid, plan)
  else plan

and compile_select_body ctx box =
  let input, layout = compile_joins ctx box in
  let frames = layout :: ctx.outer in
  let head =
    Array.map
      (fun (h : Qgm.head_col) -> compile_scalar (resolver frames) h.Qgm.hexpr)
      box.Qgm.head
  in
  let plan = Plan.Project (input, head) in
  if box.Qgm.distinct then Plan.Distinct plan else plan

and compile_group_body ctx box =
  let input, layout = compile_joins ctx box in
  let frames = layout :: ctx.outer in
  let resolve = resolver frames in
  let keys = List.map (compile_scalar resolve) box.Qgm.group_by in
  (* collect distinct aggregate expressions from the head *)
  let aggs : (Qgm.bexpr * Plan.agg_spec) list ref = ref [] in
  let note_agg e =
    match e with
    | Qgm.Bagg (fn, arg) ->
      if not (List.mem_assoc e !aggs) then
        aggs :=
          !aggs
          @ [ (e, { Plan.agg_fn = fn; agg_arg = Option.map (compile_scalar resolve) arg }) ]
    | _ -> ()
  in
  Array.iter (fun (h : Qgm.head_col) -> Qgm.iter_bexpr note_agg h.Qgm.hexpr) box.Qgm.head;
  let agg_list = List.map snd !aggs in
  let agg_index e =
    let rec find i = function
      | [] -> None
      | (e', _) :: rest -> if e' = e then Some i else find (i + 1) rest
    in
    find 0 !aggs
  in
  let nkeys = List.length keys in
  let key_index e =
    let rec find i = function
      | [] -> None
      | k :: rest -> if k = e then Some i else find (i + 1) rest
    in
    find 0 box.Qgm.group_by
  in
  (* head expressions over the aggregate output (keys then aggs) *)
  let rec head_scalar (e : Qgm.bexpr) : Plan.scalar =
    match key_index e with
    | Some i -> Plan.P_col i
    | None -> begin
      match e with
      | Qgm.Bagg _ -> begin
        match agg_index e with
        | Some i -> Plan.P_col (nkeys + i)
        | None -> assert false
      end
      | Qgm.Const v -> Plan.P_const v
      | Qgm.Bop (op, a, b) -> Plan.P_bop (op, head_scalar a, head_scalar b)
      | Qgm.Bneg a -> Plan.P_neg (head_scalar a)
      | Qgm.Bfn (name, args) -> Plan.P_fn (name, List.map head_scalar args)
      | Qgm.Qcol _ ->
        Errors.semantic_error
          "column in SELECT must appear in GROUP BY or inside an aggregate"
    end
  in
  let agg_plan = Plan.Aggregate { input; keys; aggs = agg_list } in
  let head = Array.map (fun (h : Qgm.head_col) -> head_scalar h.Qgm.hexpr) box.Qgm.head in
  let plan = Plan.Project (agg_plan, head) in
  if box.Qgm.distinct then Plan.Distinct plan else plan

(* -- entry points -------------------------------------------------------- *)

let schema_of_box (box : Qgm.box) : Schema.t =
  Schema.make
    (List.map
       (fun (h : Qgm.head_col) -> Schema.column h.Qgm.hname h.Qgm.htype)
       (Array.to_list box.Qgm.head))

(** Compile a rewritten QGM graph into an executable plan. *)
let compile ?(share = true) (g : Qgm.graph) : Plan.compiled =
  let ctx =
    { consumers = Qgm.consumers [ g.Qgm.top ]; outer = []; share; est = ref [] }
  in
  let plan = compile_box ctx g.Qgm.top in
  let plan =
    match g.Qgm.order_by with [] -> plan | specs -> Plan.Sort (plan, specs)
  in
  let plan =
    (* strip hidden sort columns *)
    match g.Qgm.strip with
    | None -> plan
    | Some n -> Plan.Project (plan, Array.init n (fun i -> Plan.P_col i))
  in
  let plan =
    match g.Qgm.limit with None -> plan | Some n -> Plan.Limit (plan, n)
  in
  let schema =
    let full = schema_of_box g.Qgm.top in
    match g.Qgm.strip with
    | None -> full
    | Some n ->
      Schema.make
        (List.filteri (fun i _ -> i < n) (Schema.columns full)
        |> List.map (fun (c : Schema.column) ->
               Schema.column ~nullable:c.Schema.nullable c.Schema.name
                 c.Schema.dtype))
  in
  { Plan.plan; out_schema = schema; est = !(ctx.est) }

(** Compile several graphs that may physically share boxes (XNF
    multi-table queries): consumers are computed across all roots so
    shared derivations become [Shared] nodes materialized once per
    execution context. *)
let compile_many ?(share = true) (roots : (string * Qgm.box) list) :
    (string * Plan.compiled) list =
  let consumers = Qgm.consumers (List.map snd roots) in
  (* an output box referenced by several roots is also shared *)
  let ctx = { consumers; outer = []; share; est = ref [] } in
  let plans = List.map (fun (name, box) -> (name, compile_box ctx box)) roots in
  List.map2
    (fun (name, plan) (_, box) ->
      (name, { Plan.plan; out_schema = schema_of_box box; est = !(ctx.est) }))
    plans roots
