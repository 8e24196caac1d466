(** Fixpoint evaluation of recursive COs (paper Sect. 2: "an XNF query
    may also specify a recursive CO being identified by a cycle in the
    query's schema graph.  This cycle basically defines a 'derivation
    rule' that iterates along the cycle's relationships to collect the
    tuples until a fixed point is reached").

    Semi-naive strategy: each node keeps the set of tuples found so far;
    each relationship join is re-evaluated against the {e delta} of its
    parent only, using a temporary base table swapped under the
    relationship's parent quantifier.  This evaluator is also correct
    for acyclic graphs (the fixpoint converges in one pass per level)
    and serves as a differential-derivation reference in the tests. *)

open Relcore
module Qgm = Starq.Qgm
module Db = Engine.Database

type node_state = {
  found : Tid_map.t; (* full row -> tuple id *)
  mutable delta : Tuple.t list;
  info : Hetstream.comp_info;
  project : Tuple.t -> Tuple.t; (* TAKE column list, at delivery *)
}

let take_sets (ast : Xnf_ast.query) =
  match ast.Xnf_ast.take with
  | Xnf_ast.Take_all ->
    ( List.map (fun (t : Xnf_ast.table_def) -> t.Xnf_ast.tname) ast.Xnf_ast.tables,
      List.map (fun (r : Xnf_ast.relate_def) -> r.Xnf_ast.rname) ast.Xnf_ast.relates
    )
  | Xnf_ast.Take_items items ->
    let names = List.map (fun (i : Xnf_ast.take_item) -> i.Xnf_ast.take_name) items in
    ( List.filter_map
        (fun (t : Xnf_ast.table_def) ->
          if List.mem t.Xnf_ast.tname names then Some t.Xnf_ast.tname else None)
        ast.Xnf_ast.tables,
      List.filter_map
        (fun (r : Xnf_ast.relate_def) ->
          if List.mem r.Xnf_ast.rname names then Some r.Xnf_ast.rname else None)
        ast.Xnf_ast.relates )

let take_cols_of (ast : Xnf_ast.query) n =
  match ast.Xnf_ast.take with
  | Xnf_ast.Take_all -> None
  | Xnf_ast.Take_items items ->
    List.find_map
      (fun (i : Xnf_ast.take_item) ->
        if i.Xnf_ast.take_name = n then i.Xnf_ast.take_cols else None)
      items

let graph_of box =
  { Qgm.top = box; order_by = []; limit = None; strip = None }

(* -- per-iteration plan skeleton ---------------------------------------- *)

(* The seed and step plans depend only on the operator's boxes, never on
   table contents — [Exec.run] reads base tables live, and each step
   re-fills its swapped-in delta table before running.  Compiling them
   anew on every extraction made the fixpoint pay full QGM planning per
   read; cache the compiled skeleton per operator instead.  Keyed by
   physical identity: the QGM graph is cyclic (that cycle {e is} the
   recursion), so structural hashing or comparison would not terminate. *)

type step = {
  sp_rel : Xnf_semantic.relbox;
  sp_tmp : Base_table.t; (* replaces the parent quantifier's box *)
  sp_plan : Optimizer.Plan.compiled;
  sp_name : string;
}

type skeleton = {
  sk_roots : (string * Optimizer.Plan.compiled) list;
  sk_steps : step list;
  sk_mu : Mutex.t; (* steps share delta tables; one fixpoint at a time *)
}

let skel_memo : (Xnf_semantic.xnf_op * skeleton) list ref = ref []
let skel_mu = Mutex.create ()
let skel_cap = 8

let build_skeleton (op : Xnf_semantic.xnf_op) : skeleton =
  let sk_roots =
    List.map
      (fun root ->
        let box = Option.get (Xnf_semantic.find_node op root) in
        (root, Optimizer.Planner.compile ~share:false (graph_of box)))
      op.Xnf_semantic.roots
  in
  let sk_steps =
    List.map
      (fun (name, (r : Xnf_semantic.relbox)) ->
        let parent_box =
          Option.get (Xnf_semantic.find_node op r.Xnf_semantic.rparent)
        in
        let parent_schema = Optimizer.Planner.schema_of_box parent_box in
        let tmp =
          Base_table.create
            ~name:("__delta_" ^ r.Xnf_semantic.rparent ^ "_" ^ name)
            parent_schema
        in
        r.Xnf_semantic.rparent_quant.Qgm.over <- Qgm.base_box tmp;
        let plan =
          Optimizer.Planner.compile ~share:false (graph_of r.Xnf_semantic.rbox)
        in
        { sp_rel = r; sp_tmp = tmp; sp_plan = plan; sp_name = name })
      op.Xnf_semantic.rel_boxes
  in
  { sk_roots; sk_steps; sk_mu = Mutex.create () }

let skeleton_of (op : Xnf_semantic.xnf_op) : skeleton =
  Mutex.protect skel_mu @@ fun () ->
  match List.find_opt (fun (o, _) -> o == op) !skel_memo with
  | Some (_, sk) -> sk
  | None ->
    let sk = build_skeleton op in
    let kept =
      if List.length !skel_memo >= skel_cap then
        List.filteri (fun i _ -> i < skel_cap - 1) !skel_memo
      else !skel_memo
    in
    skel_memo := (op, sk) :: kept;
    sk

let plans (op : Xnf_semantic.xnf_op) : (string * Optimizer.Plan.compiled) list =
  let sk = skeleton_of op in
  sk.sk_roots @ List.map (fun s -> (s.sp_name, s.sp_plan)) sk.sk_steps

(** Evaluate an XNF operator by fixpoint iteration. *)
let extract (_db : Db.t) (op : Xnf_semantic.xnf_op) : Hetstream.t =
  let ast = op.Xnf_semantic.xquery in
  let take_nodes, take_rels = take_sets ast in
  (* header: nodes in declaration order, then relationships *)
  let node_names = List.map fst op.Xnf_semantic.node_boxes in
  let nnodes = List.length node_names in
  let node_infos, projections =
    List.split
      (List.mapi
         (fun i (name, box) ->
           let take_cols = take_cols_of ast name in
           let comp_schema, project =
             Hetstream.take_projection
               (Optimizer.Planner.schema_of_box box)
               take_cols
           in
           ( {
               Hetstream.comp_no = i;
               comp_name = name;
               comp_kind = `Node;
               comp_schema;
               take_cols;
               in_take = List.mem name take_nodes;
             },
             project ))
         op.Xnf_semantic.node_boxes)
  in
  let rel_infos =
    List.mapi
      (fun i (name, (r : Xnf_semantic.relbox)) ->
        {
          Hetstream.comp_no = nnodes + i;
          comp_name = name;
          comp_kind =
            `Rel
              {
                Hetstream.rm_role = r.Xnf_semantic.rrole;
                rm_parent = r.Xnf_semantic.rparent;
                rm_children = r.Xnf_semantic.rchildren;
              };
          comp_schema = r.Xnf_semantic.rattr_schema;
          take_cols = None;
          in_take = List.mem name take_rels;
        })
      op.Xnf_semantic.rel_boxes
  in
  let header =
    {
      Hetstream.components = Array.of_list (node_infos @ rel_infos);
      root_components = op.Xnf_semantic.roots;
    }
  in
  let items = ref [] in
  let emit item = items := item :: !items in
  let id_counter = ref 0 in
  let fresh () =
    incr id_counter;
    !id_counter
  in
  (* node states *)
  let states : (string, node_state) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i (name, _) ->
      Hashtbl.replace states name
        {
          found = Tid_map.create 256;
          delta = [];
          info = List.nth node_infos i;
          project = List.nth projections i;
        })
    op.Xnf_semantic.node_boxes;
  (* The id of the component row at [row.(off .. off+len-1)], probed in
     place; a new row is copied out once, as the stored key and the
     next round's delta row. *)
  let discover (st : node_state) (row : Tuple.t) (off, len) :
      Hetstream.tuple_id =
    let id = Tid_map.find_span st.found row ~off ~len in
    if id <> Tid_map.absent then id
    else begin
      let row =
        if off = 0 && len = Array.length row then row else Array.sub row off len
      in
      let id = fresh () in
      Tid_map.add st.found row id;
      st.delta <- row :: st.delta;
      if st.info.Hetstream.in_take then
        emit
          (Hetstream.Row
             { comp = st.info.Hetstream.comp_no; id; values = st.project row });
      id
    end
  in
  let sk = skeleton_of op in
  Mutex.protect sk.sk_mu @@ fun () ->
  (* seed the roots with their defining queries *)
  List.iter
    (fun (root, plan) ->
      let st = Hashtbl.find states root in
      List.iter
        (fun row -> ignore (discover st row (0, Array.length row)))
        (Executor.Exec.run plan))
    sk.sk_roots;
  (* per-relationship iteration step: a temp table replaces the parent *)
  let rel_steps =
    List.map
      (fun sp ->
        let r = sp.sp_rel in
        let info =
          List.find
            (fun (i : Hetstream.comp_info) ->
              i.Hetstream.comp_name = sp.sp_name)
            rel_infos
        in
        let children =
          Array.of_list
            (List.map
               (fun (ch, span) -> (Hashtbl.find states ch, span))
               r.Xnf_semantic.rchild_spans)
        in
        let conn_seen =
          Tid_map.Conns.create ~children:(Array.length children) 256
        in
        (sp, Hashtbl.find states r.Xnf_semantic.rparent, children, info, conn_seen))
      sk.sk_steps
  in
  (* fixpoint loop with a conservative safety bound *)
  let max_rounds = 100_000 in
  let rec loop round =
    if round > max_rounds then
      Errors.execution_error "recursive CO did not converge after %d rounds"
        max_rounds;
    (* snapshot and clear deltas *)
    let deltas =
      Hashtbl.fold (fun name st acc -> (name, st.delta) :: acc) states []
    in
    Hashtbl.iter (fun _ st -> st.delta <- []) states;
    let any = List.exists (fun (_, d) -> d <> []) deltas in
    if any then begin
      List.iter
        (fun (sp, parent_st, children, info, conn_seen) ->
          let r = sp.sp_rel in
          let parent_delta = List.assoc r.Xnf_semantic.rparent deltas in
          if parent_delta <> [] then begin
            Base_table.truncate sp.sp_tmp;
            List.iter
              (fun row -> ignore (Base_table.insert sp.sp_tmp row))
              parent_delta;
            let rows = Executor.Exec.run sp.sp_plan in
            let attr_off, attr_w = r.Xnf_semantic.rattr_span in
            let child_ids = Array.make (Array.length children) 0 in
            List.iter
              (fun row ->
                let parent_id =
                  discover parent_st row r.Xnf_semantic.rparent_span
                in
                Array.iteri
                  (fun k (st, span) -> child_ids.(k) <- discover st row span)
                  children;
                if
                  info.Hetstream.in_take
                  && Tid_map.Conns.add conn_seen parent_id child_ids = 1
                then
                  emit
                    (Hetstream.Conn
                       {
                         rel = info.Hetstream.comp_no;
                         id = fresh ();
                         parent = parent_id;
                         children = Array.copy child_ids;
                         attrs = Array.sub row attr_off attr_w;
                       }))
              rows
          end)
        rel_steps;
      loop (round + 1)
    end
  in
  loop 0;
  { Hetstream.header; items = List.rev !items }
