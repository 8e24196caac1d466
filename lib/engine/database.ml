(** The database engine facade: parse → QGM → rewrite → plan → execute,
    plus DDL and DML.

    This is the "integrated DBMS" of the paper (Sect. 3): one catalog,
    one query pipeline, which the XNF extension (lib/core) plugs into. *)

open Relcore
module Ast = Sqlkit.Ast
module Qgm = Starq.Qgm
module Plan = Optimizer.Plan

let log_src = Logs.Src.create "xnfdb.engine" ~doc:"query pipeline tracing"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Snapshot of the monotone cache/colstore/join-filter counters, taken
   at statement start so EXPLAIN's instrumentation sections report the
   work of {e this} statement instead of process lifetime. *)
type marks = {
  mk_plan_hits : int;
  mk_plan_misses : int;
  mk_result_hits : int;
  mk_result_misses : int;
  mk_result_evictions : int;
  mk_cs_scanned : int;
  mk_cs_skipped : int;
  mk_cs_materialized : int;
  mk_jf_built : int;
  mk_jf_chunks : int;
  mk_jf_rows : int;
  mk_jf_dropped : int;
}

type t = {
  catalog : Catalog.t;
  txn : Txn.t;
  (* prepared-plan cache: normalized query text × ablation flags → plan.
     Invalidated wholesale by DDL; DML leaves plans valid (they reference
     table objects, not snapshots), it only ages their cost estimates —
     standard prepared-statement behavior. *)
  plan_cache : (string, Plan.compiled) Hashtbl.t;
  (* compiled-object cache slot for layers above the engine (the XNF
     compiler stores its [compiled] values here behind its own exception
     constructor); shares the plan cache's DDL invalidation. *)
  plugin_cache : (string, exn) Hashtbl.t;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable marks : marks; (* counter snapshot of the current statement *)
}

let zero_marks =
  {
    mk_plan_hits = 0;
    mk_plan_misses = 0;
    mk_result_hits = 0;
    mk_result_misses = 0;
    mk_result_evictions = 0;
    mk_cs_scanned = 0;
    mk_cs_skipped = 0;
    mk_cs_materialized = 0;
    mk_jf_built = 0;
    mk_jf_chunks = 0;
    mk_jf_rows = 0;
    mk_jf_dropped = 0;
  }

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Done of string

let create () =
  {
    catalog = Catalog.create ();
    txn = Txn.create ();
    plan_cache = Hashtbl.create 32;
    plugin_cache = Hashtbl.create 16;
    plan_hits = 0;
    plan_misses = 0;
    marks = zero_marks;
  }

(** A session-scoped handle onto the same database: shares the catalog
    (tables, views, indexes, columnar mirrors — and through it the
    process-wide result cache and IVM state), but carries its own
    transaction and its own prepared-plan/plugin caches.  This is what
    each server connection gets: one client's open txn or prepared
    statements never leak into another's. *)
let session parent =
  {
    catalog = parent.catalog;
    txn = Txn.create ();
    plan_cache = Hashtbl.create 32;
    plugin_cache = Hashtbl.create 16;
    plan_hits = 0;
    plan_misses = 0;
    marks = zero_marks;
  }

let catalog db = db.catalog
let txn db = db.txn

(* -- plan-cache plumbing ------------------------------------------------- *)

(** Collapse whitespace runs and trim, so formatting differences don't
    split cache entries.  Contents of string literals are preserved
    whitespace and all (a space inside quotes is data). *)
let normalize_query_text (sql : string) : string =
  let buf = Buffer.create (String.length sql) in
  let in_str = ref false and pending_sp = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Buffer.add_char buf c;
        if c = '\'' then in_str := false
      end
      else
        match c with
        | ' ' | '\t' | '\n' | '\r' -> pending_sp := true
        | c ->
          if !pending_sp && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending_sp := false;
          Buffer.add_char buf c;
          if c = '\'' then in_str := true)
    sql;
  Buffer.contents buf

(* Crude bound so a query-generating workload can't grow the table
   without limit; wholesale reset is fine at this size. *)
let plan_cache_capacity = 512

let invalidate_plans db =
  Hashtbl.reset db.plan_cache;
  Hashtbl.reset db.plugin_cache

let plugin_cache_find db key =
  match Hashtbl.find_opt db.plugin_cache key with
  | Some _ as hit ->
    db.plan_hits <- db.plan_hits + 1;
    hit
  | None ->
    db.plan_misses <- db.plan_misses + 1;
    None

let plugin_cache_store db key payload =
  if Hashtbl.length db.plugin_cache >= plan_cache_capacity then
    Hashtbl.reset db.plugin_cache;
  Hashtbl.replace db.plugin_cache key payload

type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  plan_entries : int; (* prepared plans + plugin-cached compilations *)
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  result_entries : int;
  result_bytes : int;
}

let cache_stats (db : t) =
  let r = Executor.Result_cache.stats () in
  {
    plan_hits = db.plan_hits;
    plan_misses = db.plan_misses;
    plan_entries = Hashtbl.length db.plan_cache + Hashtbl.length db.plugin_cache;
    result_hits = r.Executor.Result_cache.hits;
    result_misses = r.Executor.Result_cache.misses;
    result_evictions = r.Executor.Result_cache.evictions;
    result_entries = r.Executor.Result_cache.entries;
    result_bytes = r.Executor.Result_cache.bytes;
  }

(** Run [f] as one atomic transaction against this database. *)
let atomically db f = Txn.atomically db.txn f

(* -- per-statement counter windows --------------------------------------- *)

let take_marks (db : t) : marks =
  let r = Executor.Result_cache.stats () in
  let ct = Colstore.totals in
  let jt = Bloom.totals in
  {
    mk_plan_hits = db.plan_hits;
    mk_plan_misses = db.plan_misses;
    mk_result_hits = r.Executor.Result_cache.hits;
    mk_result_misses = r.Executor.Result_cache.misses;
    mk_result_evictions = r.Executor.Result_cache.evictions;
    mk_cs_scanned = ct.Colstore.chunks_scanned;
    mk_cs_skipped = ct.Colstore.chunks_skipped;
    mk_cs_materialized = ct.Colstore.rows_materialized;
    mk_jf_built = jt.Bloom.filters_built;
    mk_jf_chunks = jt.Bloom.chunks_skipped;
    mk_jf_rows = jt.Bloom.rows_skipped;
    mk_jf_dropped = jt.Bloom.filters_dropped;
  }

(** Open a new per-statement counter window: the instrumentation
    sections of [explain] / [explain_analyze] report deltas against the
    last mark, so one statement's EXPLAIN never shows another's (or the
    whole process's) cache and colstore traffic. *)
let mark_statement (db : t) : unit = db.marks <- take_marks db

(** The cache/colstore/join-filter report for the current statement
    window.  Counters are deltas since {!mark_statement}; entry counts
    and byte totals are gauges and shown as-is. *)
let counter_sections (db : t) : string =
  let m = db.marks in
  let s = cache_stats db in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== caches (this statement) ==\n";
  Buffer.add_string buf
    (Printf.sprintf "  plan cache: %d entries, %d hits, %d misses\n"
       s.plan_entries
       (s.plan_hits - m.mk_plan_hits)
       (s.plan_misses - m.mk_plan_misses));
  Buffer.add_string buf
    (Printf.sprintf
       "  result cache: %d entries, %d bytes, %d hits, %d misses, %d \
        evictions%s\n"
       s.result_entries s.result_bytes
       (s.result_hits - m.mk_result_hits)
       (s.result_misses - m.mk_result_misses)
       (s.result_evictions - m.mk_result_evictions)
       (if Executor.Result_cache.enabled () then "" else " (disabled)"));
  let ct = Colstore.totals in
  Buffer.add_string buf "== colstore (this statement) ==\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  chunks scanned: %d, chunks skipped: %d, rows materialized: %d%s\n"
       (ct.Colstore.chunks_scanned - m.mk_cs_scanned)
       (ct.Colstore.chunks_skipped - m.mk_cs_skipped)
       (ct.Colstore.rows_materialized - m.mk_cs_materialized)
       (if Colstore.enabled () then "" else " (disabled)"));
  let jt = Bloom.totals in
  Buffer.add_string buf "== join filters (this statement) ==\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  filters built: %d, chunks skipped: %d, rows skipped: %d, filters \
        dropped: %d\n"
       (jt.Bloom.filters_built - m.mk_jf_built)
       (jt.Bloom.chunks_skipped - m.mk_jf_chunks)
       (jt.Bloom.rows_skipped - m.mk_jf_rows)
       (jt.Bloom.filters_dropped - m.mk_jf_dropped));
  Buffer.contents buf

(* -- query pipeline ---------------------------------------------------- *)

(** Compile a query AST down to an executable plan.  [rewrite] and
    [share] expose the ablation switches used by the benchmarks. *)
let compile_ast ?(rewrite = true) ?(share = true) db (q : Ast.query) :
    Plan.compiled =
  let g = Starq.Build.build_query db.catalog q in
  if rewrite then begin
    let stats = Starq.Engine.rewrite_graph g in
    Log.debug (fun m ->
        m "rewrite: %s"
          (String.concat ", "
             (List.map (fun (n, c) -> Printf.sprintf "%s x%d" n c) stats)))
  end;
  let compiled = Optimizer.Planner.compile ~share g in
  Log.debug (fun m ->
      m "plan (%d nodes):@
%s" (Plan.count_nodes compiled.Plan.plan)
        (Plan.explain compiled.Plan.plan));
  compiled

(** Compile query text, going through the prepared-plan cache: a repeat
    of the same (normalized) text with the same ablation flags skips
    parse → QGM build → rewrite → join ordering and returns the compiled
    plan directly unless [cache] (default [true]) is [false]. *)
let compile_query ?rewrite ?share ?(cache = true) db (sql : string) :
    Plan.compiled =
  if not cache then
    compile_ast ?rewrite ?share db (Sqlkit.Parser.parse_query_string sql)
  else begin
    let key =
      Printf.sprintf "%b|%b|%s"
        (Option.value rewrite ~default:true)
        (Option.value share ~default:true)
        (normalize_query_text sql)
    in
    match Hashtbl.find_opt db.plan_cache key with
    | Some c ->
      db.plan_hits <- db.plan_hits + 1;
      c
    | None ->
      db.plan_misses <- db.plan_misses + 1;
      let c =
        compile_ast ?rewrite ?share db (Sqlkit.Parser.parse_query_string sql)
      in
      if Hashtbl.length db.plan_cache >= plan_cache_capacity then
        Hashtbl.reset db.plan_cache;
      Hashtbl.replace db.plan_cache key c;
      c
  end

(** Run a SELECT and return schema + result batches — the table queue
    itself, without flattening. *)
let query_batches ?rewrite ?share ?ctx ?cache db (sql : string) :
    Schema.t * Batch.t list =
  let c = compile_query ?rewrite ?share ?cache db sql in
  (c.Plan.out_schema, Executor.Exec.run_batches ?ctx c)

(** Run a SELECT and return schema + rows. *)
let query ?rewrite ?share ?ctx ?cache db (sql : string) :
    Schema.t * Tuple.t list =
  let schema, batches = query_batches ?rewrite ?share ?ctx ?cache db sql in
  (schema, Batch.list_to_rows batches)

let query_rows ?rewrite ?share ?ctx ?cache db sql =
  snd (query ?rewrite ?share ?ctx ?cache db sql)

(** EXPLAIN: the rewritten QGM and the chosen plan.  The
    instrumentation sections cover only this statement (here: just its
    compilation — nothing executes), via {!mark_statement}. *)
let explain db (sql : string) : string =
  mark_statement db;
  let q = Sqlkit.Parser.parse_query_string sql in
  let g = Starq.Build.build_query db.catalog q in
  let stats = Starq.Engine.rewrite_graph g in
  let c = Optimizer.Planner.compile g in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== rewritten QGM ==\n";
  Buffer.add_string buf (Qgm.dump_graph g);
  Buffer.add_string buf "== rewrite rules fired ==\n";
  List.iter
    (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "  %s: %d\n" name n))
    stats;
  Buffer.add_string buf "== plan ==\n";
  Buffer.add_string buf (Plan.explain c.Plan.plan);
  Buffer.add_string buf (counter_sections db);
  Buffer.contents buf

(** EXPLAIN ANALYZE: compile through the prepared-plan cache, execute
    with per-operator attribution armed, and report estimated vs actual
    rows, per-operator inclusive wall time and q-error, plus this
    statement's cache/colstore/join-filter deltas. *)
let explain_analyze db (sql : string) : string =
  mark_statement db;
  let t0 = Executor.Opstats.now () in
  let c = compile_query db sql in
  let acc = Executor.Opstats.create1 c in
  let ctx = Executor.Exec.make_ctx () in
  ctx.Executor.Exec.analyze <- Some acc;
  let batches = Executor.Exec.run_batches ~ctx c in
  acc.Executor.Opstats.total_wall <- Executor.Opstats.now () -. t0;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== plan (analyzed) ==\n";
  Buffer.add_string buf (Executor.Opstats.render acc);
  Buffer.add_string buf
    (Printf.sprintf "rows returned: %d\n" (Batch.list_length batches));
  Buffer.add_string buf (counter_sections db);
  Buffer.contents buf

(* -- DML helpers -------------------------------------------------------- *)

(** Compile a WHERE predicate of UPDATE/DELETE against a single table
    into an executable [Plan.ppred].  Subqueries are supported (compiled
    as predicate-level probes). *)
let compile_row_ppred db (table : Base_table.t) (pred : Ast.pred) : Plan.ppred =
  let bbox = Qgm.base_box table in
  let quant = Qgm.make_quant bbox in
  let owner = Qgm.make_box Qgm.Select ~head:[||] in
  owner.Qgm.quants <- [ quant ];
  let scopes =
    [ [ { Starq.Build.alias = Base_table.name table |> String.lowercase_ascii; quant } ] ]
  in
  let bp =
    Starq.Build.build_pred ~conjunctive:false db.catalog scopes ~owner pred
  in
  let width = Schema.arity (Base_table.schema table) in
  let layout = [ (quant.Qgm.qid, (0, width)) ] in
  let pctx =
    Optimizer.Planner.
      { consumers = Hashtbl.create 4; outer = []; share = false; est = ref [] }
  in
  Optimizer.Planner.compile_pred pctx [ layout ] bp

let compile_row_expr _db (table : Base_table.t) (e : Ast.expr) :
    Tuple.t -> Value.t =
  let bbox = Qgm.base_box table in
  let quant = Qgm.make_quant bbox in
  let scopes =
    [ [ { Starq.Build.alias = Base_table.name table |> String.lowercase_ascii; quant } ] ]
  in
  let be = Starq.Build.build_expr scopes e in
  let width = Schema.arity (Base_table.schema table) in
  let layout = [ (quant.Qgm.qid, (0, width)) ] in
  let sc = Optimizer.Planner.compile_scalar (Optimizer.Planner.resolver [ layout ]) be in
  fun tuple -> Executor.Eval.scalar [] tuple sc

let const_expr_value (e : Ast.expr) : Value.t =
  let rec go = function
    | Ast.Lit v -> v
    | Ast.Neg e -> Executor.Eval.negate (go e)
    | Ast.Binop (op, a, b) -> Executor.Eval.arith op (go a) (go b)
    | Ast.Fn (name, args) -> Executor.Eval.apply_fn name (List.map go args)
    | Ast.Col _ | Ast.Agg _ ->
      Errors.semantic_error "INSERT values must be constant expressions"
  in
  go e

(* -- statement execution ------------------------------------------------ *)

(** Hook through which the XNF layer translates DML on a
    [view.component] target into DML on the underlying base table
    (updatable-view translation, paper Sect. 2).  Registered by
    [Xnf.Updatability] at link time. *)
let component_dml_translator :
    (Catalog.t ->
    view:string ->
    component:string ->
    Ast.stmt ->
    Ast.stmt option)
    option
    ref =
  ref None

(** If the DML target is [view.component], rewrite the statement against
    the base table; [None] when the target is an ordinary table. *)
let resolve_dml_target db (table_name : string) (stmt : Ast.stmt) :
    Ast.stmt option =
  match String.index_opt table_name '.' with
  | None -> None
  | Some i -> begin
    let view = String.sub table_name 0 i in
    let component =
      String.sub table_name (i + 1) (String.length table_name - i - 1)
    in
    match !component_dml_translator with
    | Some translate -> begin
      match translate db.catalog ~view ~component stmt with
      | Some stmt' -> Some stmt'
      | None -> Errors.catalog_error "unknown XNF view %S" view
    end
    | None ->
      Errors.semantic_error "no XNF layer registered to update %S" table_name
  end

(* Outside an open transaction each DML statement is its own commit:
   publish the table's new version so snapshot pins advance with it
   (inside a txn, [Txn.bump_touched] publishes at the boundary). *)
let autocommit_publish db table =
  if not (Txn.is_active db.txn) then Snapshot.publish [ table ]

let exec_insert db ~table_name ~columns ~rows =
  let table = Catalog.find_table db.catalog table_name in
  let schema = Base_table.schema table in
  let positions =
    match columns with
    | None -> Array.init (Schema.arity schema) Fun.id
    | Some cols -> Array.of_list (List.map (Schema.find schema) cols)
  in
  let count = ref 0 in
  List.iter
    (fun exprs ->
      if List.length exprs <> Array.length positions then
        Errors.semantic_error "INSERT arity mismatch";
      let row = Array.make (Schema.arity schema) Value.Null in
      List.iteri (fun i e -> row.(positions.(i)) <- const_expr_value e) exprs;
      let rid = Base_table.insert table row in
      Txn.record db.txn (Txn.U_insert (table, rid));
      incr count)
    rows;
  autocommit_publish db table;
  Affected !count

(* Victim finding for UPDATE/DELETE goes through the executor's batch
   layer ([Exec.scan_victims]): the predicate is evaluated once per
   batch over a selection vector — with zone-map pruning on the columnar
   path — instead of once per row through the interpreter.  Victims come
   back descending by rid, the order the historical per-row fold
   produced, which unique-violation timing (e.g. [SET k = k + 1] on a
   unique column) observably depends on. *)
let exec_update db ~table_name ~sets ~where =
  let table = Catalog.find_table db.catalog table_name in
  let schema = Base_table.schema table in
  let pp = compile_row_ppred db table where in
  let setters =
    List.map (fun (c, e) -> (Schema.find schema c, compile_row_expr db table e)) sets
  in
  let ctx = Executor.Exec.make_ctx () in
  let victims = Executor.Exec.scan_victims ctx table pp in
  List.iter
    (fun (rid, tuple) ->
      let row = Array.copy tuple in
      List.iter (fun (i, f) -> row.(i) <- f tuple) setters;
      Base_table.update table rid row;
      Txn.record db.txn (Txn.U_update (table, rid, Array.copy tuple)))
    victims;
  autocommit_publish db table;
  Affected (List.length victims)

let exec_delete db ~table_name ~where =
  let table = Catalog.find_table db.catalog table_name in
  let pp = compile_row_ppred db table where in
  let ctx = Executor.Exec.make_ctx () in
  let victims = Executor.Exec.scan_victims ctx table pp in
  List.iter
    (fun (rid, tuple) ->
      Base_table.delete table rid;
      Txn.record db.txn (Txn.U_delete (table, Array.copy tuple)))
    victims;
  autocommit_publish db table;
  Affected (List.length victims)

(** Heuristic: is a view body XNF? *)
let looks_like_xnf body =
  let tokens = Sqlkit.Lexer.tokenize body in
  Array.length tokens >= 2
  && (match tokens.(0).Sqlkit.Token.token with
     | Sqlkit.Token.Ident "out" -> true
     | _ -> false)

let rec exec_stmt db (stmt : Ast.stmt) : result =
  (* DDL is not undo-logged: refuse it inside a transaction *)
  (match stmt with
  | Ast.Create_table _ | Ast.Create_index _ | Ast.Create_view _
  | Ast.Drop_table _ | Ast.Drop_view _
    when Txn.is_active db.txn ->
    Errors.execution_error "DDL is not allowed inside a transaction"
  | _ -> ());
  match stmt with
  | Ast.Select_stmt q ->
    let c = compile_ast db q in
    Rows (c.Plan.out_schema, Executor.Exec.run c)
  | Ast.Create_table { table_name; columns; primary_key } ->
    let schema =
      Schema.make
        (List.map
           (fun { Ast.col_name; col_type; col_nullable } ->
             Schema.column ~nullable:col_nullable col_name col_type)
           columns)
    in
    let table = Base_table.create ?primary_key ~name:table_name schema in
    Catalog.add_table db.catalog table;
    invalidate_plans db;
    Done (Printf.sprintf "table %s created" table_name)
  | Ast.Create_index { index_name; on_table; columns; unique } ->
    let table = Catalog.find_table db.catalog on_table in
    ignore (Base_table.create_index table ~idx_name:index_name ~columns ~unique);
    invalidate_plans db;
    Done (Printf.sprintf "index %s created" index_name)
  | Ast.Create_view { view_name; body_text } ->
    let language = if looks_like_xnf body_text then `Xnf else `Sql in
    Catalog.add_view db.catalog { Catalog.view_name; language; text = body_text };
    invalidate_plans db;
    Done (Printf.sprintf "view %s created" view_name)
  | Ast.Insert { table_name; columns; rows } -> begin
    match resolve_dml_target db table_name stmt with
    | Some stmt' -> exec_stmt db stmt'
    | None -> exec_insert db ~table_name ~columns ~rows
  end
  | Ast.Update { table_name; sets; where } -> begin
    match resolve_dml_target db table_name stmt with
    | Some stmt' -> exec_stmt db stmt'
    | None -> exec_update db ~table_name ~sets ~where
  end
  | Ast.Delete { table_name; where } -> begin
    match resolve_dml_target db table_name stmt with
    | Some stmt' -> exec_stmt db stmt'
    | None -> exec_delete db ~table_name ~where
  end
  | Ast.Drop_table name ->
    Catalog.drop_table db.catalog name;
    invalidate_plans db;
    Done (Printf.sprintf "table %s dropped" name)
  | Ast.Drop_view name ->
    Catalog.drop_view db.catalog name;
    invalidate_plans db;
    Done (Printf.sprintf "view %s dropped" name)
  | Ast.Begin_txn ->
    Txn.begin_txn db.txn;
    Done "transaction started"
  | Ast.Commit_txn ->
    Txn.commit db.txn;
    Done "committed"
  | Ast.Rollback_txn ->
    Txn.rollback db.txn;
    Done "rolled back"

(** [strip_keyword s kw]: [Some rest] when [s] starts with the keyword
    (case-insensitive, followed by whitespace), with the remainder
    trimmed.  Used to peel [EXPLAIN [ANALYZE]] prefixes — which are not
    part of the statement grammar — off query text. *)
let strip_keyword (s : string) (kw : string) : string option =
  let s = String.trim s in
  let n = String.length kw in
  if
    String.length s > n
    && String.uppercase_ascii (String.sub s 0 n) = kw
    &&
    match s.[n] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  then Some (String.trim (String.sub s n (String.length s - n)))
  else None

(** Execute one SQL statement given as text.  SELECTs route through the
    prepared-plan cache (the text is at hand here, unlike in
    {!exec_stmt}), so the REPL and script surfaces get repeat-query
    reuse too.  [EXPLAIN <query>] and [EXPLAIN ANALYZE <query>] are
    handled here (they are a front-end affordance, not grammar). *)
let exec db (sql : string) : result =
  match strip_keyword sql "EXPLAIN" with
  | Some rest -> (
    match strip_keyword rest "ANALYZE" with
    | Some q -> Done (explain_analyze db q)
    | None -> Done (explain db rest))
  | None -> (
    match Sqlkit.Parser.parse_stmt sql with
    | Ast.Select_stmt _ ->
      let c = compile_query db sql in
      Rows (c.Plan.out_schema, Executor.Exec.run c)
    | stmt -> exec_stmt db stmt)

(** Split a script on ';' at top level: string literals and [--]
    comments are respected. *)
let split_script (text : string) : string list =
  let stmts = ref [] and buf = Buffer.create 128 in
  let in_str = ref false in
  let i = ref 0 in
  let n = String.length text in
  while !i < n do
    let c = text.[!i] in
    if !in_str then begin
      Buffer.add_char buf c;
      if c = '\'' then in_str := false;
      incr i
    end
    else if c = '\'' then begin
      in_str := true;
      Buffer.add_char buf c;
      incr i
    end
    else if c = '-' && !i + 1 < n && text.[!i + 1] = '-' then begin
      (* line comment: skip to end of line *)
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = ';' then begin
      stmts := Buffer.contents buf :: !stmts;
      Buffer.clear buf;
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  stmts := Buffer.contents buf :: !stmts;
  List.rev !stmts |> List.filter (fun s -> String.trim s <> "")

(** Execute a batch of ';'-separated statements (a tiny script runner
    used by examples and tests). *)
let exec_script db (script : string) : result list =
  List.map (fun s -> exec db s) (split_script script)

(* -- convenience accessors ---------------------------------------------- *)

let find_table db name = Catalog.find_table db.catalog name

(** Render rows as an aligned text table (examples / debugging). *)
let render (schema : Schema.t) (rows : Tuple.t list) : string =
  let headers = Schema.column_names schema in
  let cells = List.map (fun r -> List.map Value.to_string (Tuple.to_list r)) rows in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) headers;
  List.iter
    (fun row ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) row)
    cells;
  let line cells =
    String.concat " | "
      (List.mapi
         (fun i c -> c ^ String.make (max 0 (widths.(i) - String.length c)) ' ')
         cells)
  in
  let sep = String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" ((line headers :: sep :: List.map line cells) @ [])
