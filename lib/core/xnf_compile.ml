(** The XNF compilation and extraction pipeline (Fig. 2 / Fig. 7):

    parse → XNF semantics (XNF QGM) → XNF semantic rewrite (NF QGM,
    shared derivations) → NF rule rewrite → plan optimization with
    cross-output CSE → set-oriented execution producing the
    heterogeneous stream. *)

open Relcore
module Qgm = Starq.Qgm
module Plan = Optimizer.Plan
module Db = Engine.Database

let log_src = Logs.Src.create "xnfdb.xnf" ~doc:"XNF compilation and extraction"

module Log = (val Logs.src_log log_src : Logs.LOG)

type compiled = {
  db : Db.t;
  ast : Xnf_ast.query;
  op : Xnf_semantic.xnf_op;
  rewritten : Xnf_rewrite.result;
  plans : (string * Plan.compiled) list; (* nodes first, derivation order *)
  header : Hetstream.header;
  rewrite_stats : Starq.Engine.stats;
  recursive : bool;
}

(** Compile an XNF query AST against a database.

    [share]: enable common-subexpression sharing (the Table 1 ablation).
    [nf_rewrite]: run the shared NF rule engine over the produced graphs. *)
let compile_ast ?(share = true) ?(nf_rewrite = true) (db : Db.t)
    (ast : Xnf_ast.query) : compiled =
  let recursive = Xnf_ast.is_recursive ast in
  let op = Xnf_semantic.analyze (Db.catalog db) ast in
  if recursive then
    (* plans are built per-iteration by the recursive evaluator *)
    {
      db;
      ast;
      op;
      rewritten =
        {
          Xnf_rewrite.op;
          node_outputs = [];
          rel_outputs = [];
          take_nodes = [];
          take_rels = [];
        };
      plans = [];
      header = { Hetstream.components = [||]; root_components = op.Xnf_semantic.roots };
      rewrite_stats = [];
      recursive;
    }
  else begin
    let rewritten = Xnf_rewrite.rewrite op in
    let outputs = Xnf_rewrite.output_boxes rewritten in
    let rewrite_stats =
      if nf_rewrite then Starq.Engine.run (List.map snd outputs) else []
    in
    let plans = Optimizer.Planner.compile_many ~share outputs in
    (* header: nodes first (derivation order), then relationships *)
    let node_infos =
      List.mapi
        (fun i (n : Xnf_rewrite.node_output) ->
          let plan = List.assoc n.Xnf_rewrite.no_name plans in
          (* TAKE column projection applies to the shipped rows *)
          let schema, _ =
            Hetstream.take_projection plan.Plan.out_schema
              n.Xnf_rewrite.no_take_cols
          in
          {
            Hetstream.comp_no = i;
            comp_name = n.Xnf_rewrite.no_name;
            comp_kind = `Node;
            comp_schema = schema;
            take_cols = n.Xnf_rewrite.no_take_cols;
            in_take = List.mem n.Xnf_rewrite.no_name rewritten.Xnf_rewrite.take_nodes;
          })
        rewritten.Xnf_rewrite.node_outputs
    in
    let nnodes = List.length node_infos in
    let rel_infos =
      List.mapi
        (fun i (ro : Xnf_rewrite.rel_output) ->
          {
            Hetstream.comp_no = nnodes + i;
            comp_name = ro.Xnf_rewrite.ro_name;
            comp_kind =
              `Rel
                {
                  Hetstream.rm_role = ro.Xnf_rewrite.ro_role;
                  rm_parent = ro.Xnf_rewrite.ro_parent;
                  rm_children = ro.Xnf_rewrite.ro_children;
                };
            comp_schema = ro.Xnf_rewrite.ro_attr_schema;
            take_cols = None;
            in_take = List.mem ro.Xnf_rewrite.ro_name rewritten.Xnf_rewrite.take_rels;
          })
        rewritten.Xnf_rewrite.rel_outputs
    in
    let header =
      {
        Hetstream.components = Array.of_list (node_infos @ rel_infos);
        root_components = op.Xnf_semantic.roots;
      }
    in
    { db; ast; op; rewritten; plans; header; rewrite_stats; recursive }
  end

exception Cached_compiled of compiled
(** Payload constructor for XNF compilations parked in the database's
    plugin cache (cleared together with the plan cache on DDL). *)

let compile ?share ?nf_rewrite ?(cache = true) (db : Db.t) (text : string) :
    compiled =
  let compile_now () =
    let c = compile_ast ?share ?nf_rewrite db (Xnf_parser.parse text) in
    Log.debug (fun m ->
        m "compiled XNF query: %d outputs, recursive=%b, rules fired: %s"
          (List.length c.plans) c.recursive
          (String.concat ", "
             (List.map
                (fun (n, k) -> Printf.sprintf "%s x%d" n k)
                c.rewrite_stats)));
    c
  in
  if not cache then compile_now ()
  else begin
    let key =
      Printf.sprintf "xnfplan|%b|%b|%s"
        (Option.value share ~default:true)
        (Option.value nf_rewrite ~default:true)
        (Db.normalize_query_text text)
    in
    match Db.plugin_cache_find db key with
    | Some (Cached_compiled c) -> c
    | Some _ | None ->
      let c = compile_now () in
      Db.plugin_cache_store db key (Cached_compiled c);
      c
  end

(* -- extraction ---------------------------------------------------------- *)

(** Assemble the heterogeneous stream from per-output table queues:
    assign tuple identifiers (one per distinct component-tuple value:
    object sharing) and resolve connection partner ids.  [batches_of] is
    called once per needed output (node outputs always; relationship
    outputs only when in TAKE); its batches are consumed in place,
    without flattening to row lists.  Partner spans are probed in place
    ({!Tid_map.find_span}) and connections deduped on unboxed id tuples,
    so a relationship row allocates only when it yields a new item.
    Answers the stream and each node's full-row -> tuple-id map. *)
let assemble_tids (c : compiled) (batches_of : string -> Batch.t list) :
    Hetstream.t * (string * Tid_map.t) list =
  let id_counter = ref 0 in
  let fresh () =
    incr id_counter;
    !id_counter
  in
  (* per-node value -> id maps *)
  let id_maps : (string, Tid_map.t) Hashtbl.t = Hashtbl.create 8 in
  let items = ref [] in
  let emit item = items := item :: !items in
  (* nodes in derivation order *)
  List.iter
    (fun (n : Xnf_rewrite.node_output) ->
      let name = n.Xnf_rewrite.no_name in
      let info = Hetstream.find_comp c.header name in
      let plan = List.assoc name c.plans in
      let _, project =
        Hetstream.take_projection plan.Plan.out_schema
          n.Xnf_rewrite.no_take_cols
      in
      (* sized for the row count up front: no rehashing while filling *)
      let batches = batches_of name in
      let map = Tid_map.create (Batch.list_length batches) in
      Hashtbl.replace id_maps name map;
      Batch.list_iter
        (fun row ->
          if Tid_map.find map row = Tid_map.absent then begin
            let id = fresh () in
            Tid_map.add map row id;
            if info.Hetstream.in_take then
              emit
                (Hetstream.Row
                   { comp = info.Hetstream.comp_no; id; values = project row })
          end)
        batches)
    c.rewritten.Xnf_rewrite.node_outputs;
  (* relationships: probe each joined row's partner spans for their ids *)
  List.iter
    (fun (ro : Xnf_rewrite.rel_output) ->
      let name = ro.Xnf_rewrite.ro_name in
      let info = Hetstream.find_comp c.header name in
      if info.Hetstream.in_take then begin
        let children, resolve =
          Tid_map.partners (Hashtbl.find id_maps)
            (ro.Xnf_rewrite.ro_parent, ro.Xnf_rewrite.ro_parent_span)
            ro.Xnf_rewrite.ro_child_spans ~missing:(fun comp ->
              Errors.execution_error
                "connection references a %s tuple missing from its component"
                comp)
        in
        let attr_off, attr_w = ro.Xnf_rewrite.ro_attr_span in
        (* a connection is a set-level fact: dedupe on the id tuple *)
        let batches = batches_of name in
        let seen =
          Tid_map.Conns.create ~children:(Array.length children)
            (Batch.list_length batches)
        in
        Batch.list_iter
          (fun row ->
            let parent = resolve row in
            if Tid_map.Conns.add seen parent children = 1 then
              emit
                (Hetstream.Conn
                   {
                     rel = info.Hetstream.comp_no;
                     id = fresh ();
                     parent;
                     children = Array.copy children;
                     attrs = Array.sub row attr_off attr_w;
                   }))
          batches
      end)
    c.rewritten.Xnf_rewrite.rel_outputs;
  ( { Hetstream.header = c.header; items = List.rev !items },
    List.map
      (fun (n : Xnf_rewrite.node_output) ->
        (n.Xnf_rewrite.no_name, Hashtbl.find id_maps n.Xnf_rewrite.no_name))
      c.rewritten.Xnf_rewrite.node_outputs )

let assemble c batches_of = fst (assemble_tids c batches_of)

(** Sequential extraction: execute all output plans under one execution
    context (shared derivations materialize once). *)
let extract_nonrecursive ~ctx (c : compiled) =
  assemble_tids c (fun name ->
      Executor.Exec.run_batches ~ctx (List.assoc name c.plans))

(* The base tables a non-recursive CO's plans read, each once. *)
let tables (c : compiled) : Base_table.t list =
  List.fold_left
    (fun acc (_, (p : Plan.compiled)) ->
      List.fold_left
        (fun acc t -> if List.memq t acc then acc else t :: acc)
        acc (Plan.tables p.Plan.plan))
    [] c.plans
  |> List.rev

exception Cached_stream of Hetstream.t
(** A bare-stream {!Executor.Result_cache} payload, for callers that
    cache extractions themselves under {!stream_cache_key}. *)

let stream_cache_key (c : compiled) : string option =
  if c.recursive then None
  else
    Some
      (Xnf_ivm.key c.op c.header c.plans
      ^ "|"
      ^ String.concat ","
          (List.map
             (fun t ->
               Printf.sprintf "t%d:v%d" (Base_table.tid t) (Base_table.version t))
             (tables c)))

(** Run [compute] through {!Xnf_ivm} when [use] allows it. *)
let with_stream_cache ~use (c : compiled) compute : Hetstream.t =
  if not use then fst (Xnf_ivm.recompute compute)
  else
    Xnf_ivm.extract ~key:(Xnf_ivm.key c.op c.header c.plans) ~tables:(tables c)
      ~reads:(fun () -> Xnf_ivm.analyse_reads c.op)
      compute

let use_result_cache = function
  | Some b -> b
  | None -> Executor.Result_cache.enabled ()

(** Extract the CO defined by a compiled XNF query (dispatches to the
    fixpoint evaluator for recursive COs).  [cache] (default: the
    [XNFDB_RESULT_CACHE_MB] knob) consults the cross-query result cache:
    a warm repeat returns the previously assembled stream without
    touching the executor. *)
let extract ?ctx ?cache (c : compiled) : Hetstream.t =
  if c.recursive then
    Xnf_recursive.extract
      ?snapshot:(Option.bind ctx (fun ctx -> ctx.Executor.Exec.snapshot))
      ~cache:(use_result_cache cache) c.db c.op
  else begin
    (* a snapshot (MVCC-lite) context must bypass the stream cache: its
       entries are versioned by — and patched to — live table versions,
       not the reader's pinned epoch *)
    let use =
      use_result_cache cache
      && (match ctx with
         | Some ctx -> ctx.Executor.Exec.snapshot = None
         | None -> true)
    in
    with_stream_cache ~use c (fun () ->
        let ctx =
          match ctx with
          | Some ctx -> ctx
          | None -> Executor.Exec.make_ctx ~result_cache:use ()
        in
        extract_nonrecursive ~ctx c)
  end

(** One-call convenience: compile and extract.  [cache] governs both
    levels: the compiled-query cache and the result cache. *)
let run ?share ?nf_rewrite ?cache ?ctx (db : Db.t) (text : string) : Hetstream.t =
  extract ?ctx ?cache (compile ?share ?nf_rewrite ?cache db text)

(** Compile and extract a stored XNF view by name. *)
let run_view ?share ?nf_rewrite ?cache ?ctx (db : Db.t) (view_name : string) :
    Hetstream.t =
  match Catalog.find_view_opt (Db.catalog db) view_name with
  | Some { Catalog.language = `Xnf; text; _ } ->
    run ?share ?nf_rewrite ?cache ?ctx db text
  | Some { Catalog.language = `Sql; _ } ->
    Errors.semantic_error "view %S is a plain SQL view, not an XNF view"
      view_name
  | None -> Errors.catalog_error "unknown view %S" view_name

(** The text of a stored XNF view, for analysis paths that re-enter
    {!val:explain_analyze} with query text. *)
let view_text (db : Db.t) (view_name : string) : string =
  match Catalog.find_view_opt (Db.catalog db) view_name with
  | Some { Catalog.language = `Xnf; text; _ } -> text
  | Some { Catalog.language = `Sql; _ } ->
    Errors.semantic_error "view %S is a plain SQL view, not an XNF view"
      view_name
  | None -> Errors.catalog_error "unknown view %S" view_name

(* -- view composition ------------------------------------------------------ *)

(** Expansion of [view.component] table references (closure of the model
    under its operations, paper Sect. 2): compile the referenced XNF
    view against the catalog and splice in the component's derived
    (reachability-rewritten) box.  A guard rejects cyclic view chains. *)
let expanding : (string, unit) Hashtbl.t = Hashtbl.create 4

let expand_component (cat : Catalog.t) ~view ~component : Qgm.box =
  match Catalog.find_view_opt cat view with
  | None -> Errors.catalog_error "unknown view %S" view
  | Some { Catalog.language = `Sql; _ } ->
    Errors.semantic_error
      "%S is a plain SQL view; only XNF views expose components" view
  | Some { Catalog.language = `Xnf; text; _ } ->
    let key = String.lowercase_ascii view in
    if Hashtbl.mem expanding key then
      Errors.semantic_error "cyclic view reference through %S" view;
    Hashtbl.add expanding key ();
    Fun.protect
      ~finally:(fun () -> Hashtbl.remove expanding key)
      (fun () ->
        let ast = Xnf_parser.parse text in
        if Xnf_ast.is_recursive ast then
          Errors.unsupported
            "components of recursive XNF views cannot be composed";
        let op = Xnf_semantic.analyze cat ast in
        let rewritten = Xnf_rewrite.rewrite op in
        match
          List.find_opt
            (fun (n : Xnf_rewrite.node_output) -> n.Xnf_rewrite.no_name = component)
            rewritten.Xnf_rewrite.node_outputs
        with
        | Some n -> n.Xnf_rewrite.no_box
        | None -> (
          match
            List.find_opt
              (fun (r : Xnf_rewrite.rel_output) -> r.Xnf_rewrite.ro_name = component)
              rewritten.Xnf_rewrite.rel_outputs
          with
          | Some r -> r.Xnf_rewrite.ro_box
          | None ->
            Errors.semantic_error "view %S has no component %S" view component))

let () = Starq.Build.xnf_component_expander := Some expand_component

(** EXPLAIN for XNF queries: the XNF operator, the rewritten graphs and
    the plans with their sharing structure. *)
let explain (db : Db.t) (text : string) : string =
  let c = compile db text in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== XNF operator ==\n";
  Buffer.add_string buf (Xnf_semantic.dump c.op);
  if not c.recursive then begin
    Buffer.add_string buf "== plans ==\n";
    List.iter
      (fun (name, (p : Plan.compiled)) ->
        Buffer.add_string buf (Printf.sprintf "-- %s --\n" name);
        Buffer.add_string buf (Plan.explain p.Plan.plan))
      c.plans
  end
  else Buffer.add_string buf "(recursive CO: fixpoint evaluation)\n";
  Buffer.contents buf

(** EXPLAIN ANALYZE for XNF extraction: run every output plan under one
    instrumented context (sequential — per-operator clocks need a single
    owning domain) and report per-operator estimated vs actual rows,
    q-error and inclusive wall time, one section per output.  Bypasses
    the result cache so the plans actually execute; the compiled-query
    cache stays on (plans are version-independent). *)
let explain_analyze (db : Db.t) (text : string) : string =
  let t0 = Executor.Opstats.now () in
  let c = compile db text in
  if c.recursive then
    "== plans (analyzed) ==\n\
     (recursive CO: fixpoint evaluation builds plans per iteration; \
     per-operator attribution is not available)\n"
  else begin
    let acc = Executor.Opstats.create c.plans in
    let ctx = Executor.Exec.make_ctx ~result_cache:false () in
    ctx.Executor.Exec.analyze <- Some acc;
    let stream, _ = extract_nonrecursive ~ctx c in
    acc.Executor.Opstats.total_wall <- Executor.Opstats.now () -. t0;
    let buf = Buffer.create 512 in
    Buffer.add_string buf "== plans (analyzed) ==\n";
    Buffer.add_string buf (Executor.Opstats.render acc);
    Buffer.add_string buf
      (Printf.sprintf "stream items: %d\n" (List.length stream.Hetstream.items));
    Buffer.contents buf
  end
