(** The steps of [Xnf_compile.compile_ast] and [Xnf_compile.extract],
    called one by one through the layers' public functions with a span
    around each, so a traced run can split an XNF check-out by layer.
    The result is the same [compiled] value (plan fingerprints, header)
    that [Xnf_compile.compile_ast] builds; the self-test checks that. *)

open Relcore
module X = Xnf.Xnf_compile
module Rw = Xnf.Xnf_rewrite
module H = Xnf.Hetstream
module Db = Engine.Database
module Plan = Optimizer.Plan

let span = Pb_trace.span

let header_of (op : Xnf.Xnf_semantic.xnf_op) (rewritten : Rw.result) plans =
  let node_infos =
    List.mapi
      (fun i (n : Rw.node_output) ->
        let plan = List.assoc n.Rw.no_name plans in
        let schema =
          match n.Rw.no_take_cols with
          | None -> plan.Plan.out_schema
          | Some cols ->
            Schema.make
              (List.map
                 (fun c ->
                   let col =
                     Schema.column_at plan.Plan.out_schema
                       (Schema.find plan.Plan.out_schema c)
                   in
                   Schema.column ~nullable:col.Schema.nullable col.Schema.name
                     col.Schema.dtype)
                 cols)
        in
        {
          H.comp_no = i;
          comp_name = n.Rw.no_name;
          comp_kind = `Node;
          comp_schema = schema;
          take_cols = n.Rw.no_take_cols;
          in_take = List.mem n.Rw.no_name rewritten.Rw.take_nodes;
        })
      rewritten.Rw.node_outputs
  in
  let nnodes = List.length node_infos in
  let rel_infos =
    List.mapi
      (fun i (ro : Rw.rel_output) ->
        {
          H.comp_no = nnodes + i;
          comp_name = ro.Rw.ro_name;
          comp_kind =
            `Rel
              {
                H.rm_role = ro.Rw.ro_role;
                rm_parent = ro.Rw.ro_parent;
                rm_children = ro.Rw.ro_children;
              };
          comp_schema = ro.Rw.ro_attr_schema;
          take_cols = None;
          in_take = List.mem ro.Rw.ro_name rewritten.Rw.take_rels;
        })
      rewritten.Rw.rel_outputs
  in
  {
    H.components = Array.of_list (node_infos @ rel_infos);
    root_components = op.Xnf.Xnf_semantic.roots;
  }

(** [Xnf_compile.compile_ast] with default flags, one span per step. *)
let compile (db : Db.t) (text : string) : X.compiled =
  let ast = span "xnf.parse" (fun () -> Xnf.Xnf_parser.parse text) in
  let recursive = Xnf.Xnf_ast.is_recursive ast in
  let op =
    span "xnf.semantic" (fun () -> Xnf.Xnf_semantic.analyze (Db.catalog db) ast)
  in
  if recursive then
    {
      X.db;
      ast;
      op;
      rewritten =
        { Rw.op; node_outputs = []; rel_outputs = []; take_nodes = []; take_rels = [] };
      plans = [];
      header = { H.components = [||]; root_components = op.Xnf.Xnf_semantic.roots };
      rewrite_stats = [];
      recursive;
    }
  else begin
    let rewritten, outputs =
      span "xnf.rewrite" (fun () ->
          let r = Rw.rewrite op in
          (r, Rw.output_boxes r))
    in
    let rewrite_stats =
      span "starq.nf_rules" (fun () -> Starq.Engine.run (List.map snd outputs))
    in
    let plans =
      span "optimizer.plan" (fun () ->
          Optimizer.Planner.compile_many ~share:true outputs)
    in
    let header = header_of op rewritten plans in
    { X.db; ast; op; rewritten; plans; header; rewrite_stats; recursive }
  end

(** The outputs a sequential extraction runs, in the order it runs them:
    every node output, then the relationship outputs in TAKE. *)
let needed_outputs (c : X.compiled) =
  List.map (fun (n : Rw.node_output) -> n.Rw.no_name) c.X.rewritten.Rw.node_outputs
  @ List.filter_map
      (fun (ro : Rw.rel_output) ->
        if List.mem ro.Rw.ro_name c.X.rewritten.Rw.take_rels then Some ro.Rw.ro_name
        else None)
      c.X.rewritten.Rw.rel_outputs

(** A cold non-recursive extraction through the result cache, split into
    executor and assembly spans.  Unlike [Xnf_compile.extract] it does
    not register the query with incremental maintenance, which only
    acts on a query's second fill. *)
let extract ~(ctx : Executor.Exec.ctx) (c : X.compiled) : H.t =
  let cold () =
    let batches =
      span "executor.run" (fun () ->
          List.map
            (fun name ->
              (name, Executor.Exec.run_batches ~ctx (List.assoc name c.X.plans)))
            (needed_outputs c))
    in
    span "xnf.assemble" (fun () -> X.assemble c (fun name -> List.assoc name batches))
  in
  span "xnf.extract" (fun () ->
      match X.stream_cache_key c with
      | None -> cold ()
      | Some key -> (
        match Executor.Result_cache.find key with
        | Some (X.Cached_stream s) -> s
        | Some _ | None ->
          let s = cold () in
          Executor.Result_cache.store key ~bytes:(H.approx_bytes s) (X.Cached_stream s);
          s))

(** Structural fingerprint of every output plan, in order. *)
let fingerprints (c : X.compiled) =
  List.map (fun (name, (p : Plan.compiled)) -> (name, Plan.fingerprint p.Plan.plan)) c.X.plans
