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
    and serves as a differential-derivation reference in the tests.

    Streams go through {!Xnf_ivm}, under the skeleton's structural key
    and the versions of the base tables the fixpoint reads (never its
    delta tables): a value-only check-in patches the last stream,
    anything else reruns the fixpoint. *)

open Relcore
module Qgm = Starq.Qgm
module Db = Engine.Database

type node_state = {
  found : Tid_map.t; (* full row -> tuple id *)
  mutable delta : Tuple.t list;
  info : Hetstream.comp_info;
  project : Tuple.t -> Tuple.t; (* TAKE column list, at delivery *)
}

(* A node component's stream identity and TAKE projection. *)
type node_out = {
  n_name : string;
  n_info : Hetstream.comp_info;
  n_project : Tuple.t -> Tuple.t;
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
  sk_header : Hetstream.header;
  sk_nodes : node_out list; (* declaration order *)
  sk_tables : Base_table.t list; (* base tables read; no delta tables *)
  sk_reads : Xnf_ivm.reads;
  sk_key : string; (* {!Xnf_ivm.key}, delta tables labelled by step *)
}

let skel_memo : (Xnf_semantic.xnf_op * skeleton) list ref = ref []
let skel_mu = Mutex.create ()
let skel_cap = 8

let build_skeleton (op : Xnf_semantic.xnf_op) : skeleton =
  let ast = op.Xnf_semantic.xquery in
  let take_nodes, take_rels = take_sets ast in
  (* header: nodes in declaration order, then relationships *)
  let sk_nodes =
    List.mapi
      (fun i (name, box) ->
        let take_cols = take_cols_of ast name in
        let comp_schema, n_project =
          Hetstream.take_projection (Optimizer.Planner.schema_of_box box) take_cols
        in
        {
          n_name = name;
          n_info =
            {
              Hetstream.comp_no = i;
              comp_name = name;
              comp_kind = `Node;
              comp_schema;
              take_cols;
              in_take = List.mem name take_nodes;
            };
          n_project;
        })
      op.Xnf_semantic.node_boxes
  in
  let nnodes = List.length sk_nodes in
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
  let sk_header =
    {
      Hetstream.components =
        Array.of_list (List.map (fun n -> n.n_info) sk_nodes @ rel_infos);
      root_components = op.Xnf_semantic.roots;
    }
  in
  let sk_reads = Xnf_ivm.analyse_reads op in
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
  (* delta tables are fresh per skeleton: label them by step position *)
  let tmps = List.mapi (fun k sp -> (sp.sp_tmp, Printf.sprintf "delta%d" k)) sk_steps in
  let plans =
    sk_roots @ List.map (fun sp -> (sp.sp_name, sp.sp_plan)) sk_steps
  in
  let sk_tables =
    List.concat_map
      (fun (_, (p : Optimizer.Plan.compiled)) ->
        Optimizer.Plan.tables p.Optimizer.Plan.plan)
      plans
    |> List.fold_left
         (fun acc t -> if List.memq t acc || List.mem_assq t tmps then acc else t :: acc)
         []
    |> List.rev
  in
  let sk_key =
    Xnf_ivm.key op sk_header plans ~label:(fun t ->
        match List.assq_opt t tmps with
        | Some l -> l
        | None -> string_of_int (Base_table.tid t))
  in
  {
    sk_roots;
    sk_steps;
    sk_mu = Mutex.create ();
    sk_header;
    sk_nodes;
    sk_tables;
    sk_reads;
    sk_key;
  }

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

(* -- the fixpoint ------------------------------------------------------- *)

(* The live slots of a delta table, for a step run under a snapshot: the
   pin predates the table's contents. *)
let live_slots (t : Base_table.t) : Tuple.t option array =
  Array.init (Base_table.slot_count t) (Base_table.get t)

(** Run the fixpoint; answers the stream and each node component's
    full-row -> tuple-id map.  Under [snapshot] base tables are read at
    the pinned epoch; the delta tables stay live. *)
let fixpoint ?snapshot (sk : skeleton) : Hetstream.t * (string * Tid_map.t) list =
  let run =
    match snapshot with
    | None -> fun plan -> Executor.Exec.run plan
    | Some frozen ->
      let frozen t =
        if List.exists (fun sp -> sp.sp_tmp == t) sk.sk_steps then live_slots t
        else frozen t
      in
      fun plan ->
        Executor.Exec.run
          ~ctx:(Executor.Exec.make_ctx ~result_cache:false ~snapshot:frozen ())
          plan
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
  List.iter
    (fun n ->
      Hashtbl.replace states n.n_name
        { found = Tid_map.create 256; delta = []; info = n.n_info; project = n.n_project })
    sk.sk_nodes;
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
  Mutex.protect sk.sk_mu @@ fun () ->
  (* seed the roots with their defining queries *)
  List.iter
    (fun (root, plan) ->
      let st = Hashtbl.find states root in
      List.iter
        (fun row -> ignore (discover st row (0, Array.length row)))
        (run plan))
    sk.sk_roots;
  (* per-relationship iteration step: a temp table replaces the parent *)
  let rel_steps =
    List.map
      (fun sp ->
        let r = sp.sp_rel in
        let info = Hetstream.find_comp sk.sk_header sp.sp_name in
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
            let rows = run sp.sp_plan in
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
  ( { Hetstream.header = sk.sk_header; items = List.rev !items },
    List.map (fun n -> (n.n_name, (Hashtbl.find states n.n_name).found)) sk.sk_nodes )

(** Evaluate an XNF operator by fixpoint iteration.  [cache] (default:
    the [XNFDB_RESULT_CACHE_MB] knob) serves the stream through
    {!Xnf_ivm}; [snapshot] reads base tables at a pinned epoch and never
    touches the cache. *)
let extract ?snapshot ?cache (_db : Db.t) (op : Xnf_semantic.xnf_op) :
    Hetstream.t =
  let sk = skeleton_of op in
  let cache =
    match cache with Some b -> b | None -> Executor.Result_cache.enabled ()
  in
  if snapshot <> None || not cache then
    fst (Xnf_ivm.recompute (fun () -> fixpoint ?snapshot sk))
  else
    Xnf_ivm.extract ~key:sk.sk_key ~tables:sk.sk_tables
      ~reads:(fun () -> sk.sk_reads)
      (fun () -> fixpoint sk)
