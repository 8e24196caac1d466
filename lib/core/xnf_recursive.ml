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

    Streams go through {!Executor.Result_cache}, keyed by the skeleton's
    structural key and the version of every base table the fixpoint
    reads.  On a version miss the last stream is patched rather than
    recomputed when every change logged since it is an update of
    columns the CO reads only as values: no predicate, join, recursion
    condition, DISTINCT/GROUP key or relationship attribute reads them.
    Such an update cannot move a tuple into or out of the CO, so the
    patch moves each updated row's tuple id to its new value.  Anything
    else reruns the fixpoint. *)

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

(* -- structural reads ------------------------------------------------- *)

(* What the fixpoint reads of each base table: the columns it reads
   structurally — in a predicate, join or recursion condition, a
   DISTINCT or GROUP key, a relationship attribute, or the head of a
   node component that is not a plain filtered copy of one base table —
   and the node components that are such copies.  A value-only update
   of the other columns changes no component's membership and no
   connection: it only changes the values of the copies' rows. *)
type reads = {
  structural : (int * bool array) list; (* tid -> per-column flag *)
  copies : (string * Base_table.t) list; (* identity node components *)
}

let analyse_reads (op : Xnf_semantic.xnf_op) : reads =
  (* each step swaps a delta table under the relationship's parent
     quantifier: read through it as the parent component *)
  let parent_of =
    List.map
      (fun (_, (r : Xnf_semantic.relbox)) ->
        ( r.Xnf_semantic.rparent_quant.Qgm.qid,
          Option.get (Xnf_semantic.find_node op r.Xnf_semantic.rparent) ))
      op.Xnf_semantic.rel_boxes
  in
  let over (q : Qgm.quant) =
    Option.value (List.assoc_opt q.Qgm.qid parent_of) ~default:q.Qgm.over
  in
  let boxes = Hashtbl.create 32 and qbox = Hashtbl.create 32 in
  let rec visit (b : Qgm.box) =
    if not (Hashtbl.mem boxes b.Qgm.bid) then begin
      Hashtbl.add boxes b.Qgm.bid b;
      List.iter
        (fun q ->
          Hashtbl.replace qbox q.Qgm.qid (over q);
          visit (over q))
        b.Qgm.quants;
      List.iter (fun p -> List.iter visit (Qgm.pred_subqueries p)) b.Qgm.preds
    end
  in
  List.iter (fun (_, b) -> visit b) op.Xnf_semantic.node_boxes;
  List.iter
    (fun (_, (r : Xnf_semantic.relbox)) -> visit r.Xnf_semantic.rbox)
    op.Xnf_semantic.rel_boxes;
  let cols = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      match b.Qgm.kind with
      | Qgm.Base t ->
        Hashtbl.replace cols (Base_table.tid t)
          (Array.make (Array.length b.Qgm.head) false)
      | Qgm.Select | Qgm.Group | Qgm.Union -> ())
    boxes;
  let marked = Hashtbl.create 64 in
  let rec mark (b : Qgm.box) i =
    if not (Hashtbl.mem marked (b.Qgm.bid, i)) then begin
      Hashtbl.add marked (b.Qgm.bid, i) ();
      match b.Qgm.kind with
      | Qgm.Base t -> (Hashtbl.find cols (Base_table.tid t)).(i) <- true
      | Qgm.Select | Qgm.Group -> Qgm.iter_bexpr on_col b.Qgm.head.(i).Qgm.hexpr
      | Qgm.Union -> List.iter (fun q -> mark (over q) i) b.Qgm.quants
    end
  (* every quantifier a reference can name belongs to a visited box *)
  and on_col = function Qgm.Qcol (q, i) -> mark (Hashtbl.find qbox q) i | _ -> () in
  let mark_all (b : Qgm.box) = Array.iteri (fun i _ -> mark b i) b.Qgm.head in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      List.iter
        (fun p ->
          Qgm.iter_bpred_exprs on_col p;
          List.iter mark_all (Qgm.pred_subqueries p))
        b.Qgm.preds;
      List.iter (Qgm.iter_bexpr on_col) b.Qgm.group_by;
      if b.Qgm.distinct then mark_all b)
    boxes;
  List.iter
    (fun (_, (r : Xnf_semantic.relbox)) ->
      let off, w = r.Xnf_semantic.rattr_span in
      for i = off to off + w - 1 do
        mark r.Xnf_semantic.rbox i
      done)
    op.Xnf_semantic.rel_boxes;
  (* [SELECT * FROM t WHERE ...]: one F quantifier over a base table,
     every column passed through in place *)
  let copy_of (b : Qgm.box) =
    match (b.Qgm.kind, b.Qgm.quants) with
    | Qgm.Select, [ q ] when q.Qgm.qkind = Qgm.F && not b.Qgm.distinct -> (
      let src = over q in
      match src.Qgm.kind with
      | Qgm.Base t
        when Array.length b.Qgm.head = Array.length src.Qgm.head
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun i (h : Qgm.head_col) ->
                       match h.Qgm.hexpr with
                       | Qgm.Qcol (q', j) -> q' = q.Qgm.qid && j = i
                       | _ -> false)
                     b.Qgm.head) ->
        Some t
      | _ -> None)
    | _ -> None
  in
  let copies =
    List.filter_map
      (fun (name, b) ->
        match copy_of b with
        | Some t -> Some (name, t)
        | None ->
          mark_all b;
          None)
      op.Xnf_semantic.node_boxes
  in
  { structural = Hashtbl.fold (fun tid flags acc -> (tid, flags) :: acc) cols []; copies }

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
  sk_reads : reads;
  sk_key : string;
      (* structural identity: stream layout, plan fingerprints with the
         delta tables labelled by step, reads — equal for every skeleton
         of the same CO over the same tables and plans *)
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
  let sk_reads = analyse_reads op in
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
    let buf = Buffer.create 512 in
    let add = Buffer.add_string buf in
    add "xnfrec|";
    add (Hetstream.header_key sk_header);
    let span (o, w) = Printf.sprintf "%d+%d" o w in
    List.iter
      (fun sp ->
        let r = sp.sp_rel in
        add
          (Printf.sprintf "|%s@%s/%s/%s" sp.sp_name
             (span r.Xnf_semantic.rparent_span)
             (String.concat ","
                (List.map (fun (ch, s) -> ch ^ "@" ^ span s) r.Xnf_semantic.rchild_spans))
             (span r.Xnf_semantic.rattr_span)))
      sk_steps;
    List.iter
      (fun (name, (p : Optimizer.Plan.compiled)) ->
        add
          (Printf.sprintf "|%s=%s" name
             (Optimizer.Plan.fingerprint
                ~label:(fun t ->
                  match List.assq_opt t tmps with
                  | Some l -> l
                  | None -> string_of_int (Base_table.tid t))
                p.Optimizer.Plan.plan)))
      plans;
    List.iter
      (fun (name, t) -> add (Printf.sprintf "|copy %s=t%d" name (Base_table.tid t)))
      sk_reads.copies;
    List.iter
      (fun (tid, flags) ->
        add
          (Printf.sprintf "|t%d:%s" tid
             (String.init (Array.length flags) (fun i -> if flags.(i) then 's' else 'v'))))
      (List.sort compare sk_reads.structural);
    Buffer.contents buf
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
  Xnf_ivm.stats.Xnf_ivm.rec_recomputes <- Xnf_ivm.stats.Xnf_ivm.rec_recomputes + 1;
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

(* -- result cache and patches ------------------------------------------- *)

exception Cached_fixpoint of Hetstream.t
(** {!Executor.Result_cache} payload constructor for recursive streams. *)

(* The last stream stored under a structural key, with what a patch
   needs to carry it forward. *)
type last = {
  l_versions : (Base_table.t * int) list; (* base-table versions it reflects *)
  l_stream : Hetstream.t;
  l_maps : (string * Tid_map.t) list; (* node -> full row -> tuple id *)
  l_bytes : int;
}

type entry = { e_mu : Mutex.t; mutable last : last option }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()
let registry_cap = 16

let entry_of key =
  Mutex.protect registry_mu @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some e -> e
  | None ->
    if Hashtbl.length registry >= registry_cap then Hashtbl.reset registry;
    let e = { e_mu = Mutex.create (); last = None } in
    Hashtbl.add registry key e;
    e

exception Recompute

(* Carry [last] forward to [versions]: every change logged since is an
   update pair whose changed columns are all read as values only, and
   each updated row of a copy component moves its tuple id one-to-one
   to the new row.  Raises [Recompute] otherwise, leaving [last.l_maps]
   partly moved. *)
let patch (sk : skeleton) (last : last) (versions : (Base_table.t * int) list)
    : Hetstream.t =
  let moves = ref [] in
  List.iter
    (fun (t, v) ->
      let now =
        match List.assq_opt t versions with Some v -> v | None -> raise Recompute
      in
      let flags =
        Option.value
          (List.assoc_opt (Base_table.tid t) sk.sk_reads.structural)
          ~default:[||]
      in
      let rec pairs = function
        | [] -> ()
        | (v1, Heap.D_del (r1, a)) :: (v2, Heap.D_ins (r2, b)) :: rest
          when v1 = v2 && r1 = r2 && Array.length a = Array.length b ->
          Array.iteri
            (fun c x ->
              if compare x b.(c) <> 0 && (c >= Array.length flags || flags.(c))
              then raise Recompute)
            a;
          moves := (t, a, b) :: !moves;
          pairs rest
        | _ -> raise Recompute
      in
      match Base_table.deltas_since t v with
      | None -> raise Recompute
      | Some ops -> pairs (List.filter (fun (ver, _) -> ver <= now) ops))
    last.l_versions;
  let changed = Hashtbl.create 16 in
  List.iter
    (fun (t, a, b) ->
      List.iter
        (fun (name, src) ->
          if src == t then begin
            let map = List.assoc name last.l_maps in
            let id = Tid_map.find map a in
            let taken = Tid_map.find map b <> Tid_map.absent in
            if id <> Tid_map.absent then begin
              (* without a key another row may still hold the old value *)
              if taken || t.Base_table.primary_key = None then raise Recompute;
              Tid_map.remove map a;
              Tid_map.add map b id;
              let n = List.find (fun n -> n.n_name = name) sk.sk_nodes in
              if n.n_info.Hetstream.in_take then
                Hashtbl.replace changed id (n.n_project b)
            end
            else if taken then raise Recompute
          end)
        sk.sk_reads.copies)
    (List.rev !moves);
  if Hashtbl.length changed = 0 then last.l_stream
  else
    {
      last.l_stream with
      Hetstream.items =
        List.map
          (function
            | Hetstream.Row r as item -> (
              match Hashtbl.find_opt changed r.id with
              | Some values -> Hetstream.Row { r with values }
              | None -> item)
            | Hetstream.Conn _ as item -> item)
          last.l_stream.Hetstream.items;
    }

(** Evaluate an XNF operator by fixpoint iteration.  [cache] (default:
    the [XNFDB_RESULT_CACHE_MB] knob) serves the stream from the result
    cache or patches the last one; [snapshot] reads base tables at a
    pinned epoch and never touches the cache. *)
let extract ?snapshot ?cache (_db : Db.t) (op : Xnf_semantic.xnf_op) :
    Hetstream.t =
  let sk = skeleton_of op in
  let cache =
    match cache with Some b -> b | None -> Executor.Result_cache.enabled ()
  in
  if snapshot <> None || not cache then fst (fixpoint ?snapshot sk)
  else begin
    let entry = entry_of sk.sk_key in
    Mutex.protect entry.e_mu @@ fun () ->
    (* one commit-consistent cut, as {!Xnf_ivm} captures its baseline *)
    let versions =
      Mutex.protect Snapshot.publish_mu (fun () ->
          List.map (fun t -> (t, Base_table.version t)) sk.sk_tables)
    in
    let key =
      sk.sk_key ^ "|"
      ^ String.concat ","
          (List.map
             (fun (t, v) -> Printf.sprintf "t%d:v%d" (Base_table.tid t) v)
             versions)
    in
    let stats = Xnf_ivm.stats in
    match Executor.Result_cache.find key with
    | Some (Cached_fixpoint s) ->
      stats.Xnf_ivm.rec_hits <- stats.Xnf_ivm.rec_hits + 1;
      s
    | Some _ | None ->
      let patched =
        match entry.last with
        | None -> None
        | Some last -> (
          entry.last <- None;
          match patch sk last versions with
          | s ->
            stats.Xnf_ivm.rec_patches <- stats.Xnf_ivm.rec_patches + 1;
            Some { last with l_versions = versions; l_stream = s }
          | exception Recompute -> None)
      in
      let last =
        match patched with
        | Some last -> last
        | None ->
          let s, maps = fixpoint sk in
          {
            l_versions = versions;
            l_stream = s;
            l_maps = maps;
            l_bytes = Hetstream.approx_bytes s;
          }
      in
      Executor.Result_cache.store key ~bytes:last.l_bytes
        (Cached_fixpoint last.l_stream);
      entry.last <- Some last;
      last.l_stream
  end
