(** Baseline: single-component SQL derivation (paper Fig. 6, Table 1).

    Without the XNF multi-table framework, each component of the CO must
    be retrieved by its own standalone SQL query: reachability becomes
    existential subqueries over the parents' (recursively reachable)
    derivations, and every query recomputes the shared subexpressions.
    This module synthesises those queries from the XNF AST, so the same
    CO definition drives both the XNF pipeline and the relational
    baseline. *)

open Relcore
module Ast = Sqlkit.Ast
module Db = Engine.Database

(** Rename table qualifiers in an expression/predicate (component names
    to generated aliases).  Unqualified columns pass through — the
    standalone queries keep one alias per partner, so SQL scoping
    resolves them the same way the XNF frame did. *)
let rec rename_expr (map : (string * string) list) (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Col { tbl = Some t; col } ->
    let t = String.lowercase_ascii t in
    let t' = Option.value (List.assoc_opt t map) ~default:t in
    Ast.Col { tbl = Some t'; col }
  | Ast.Col { tbl = None; _ } | Ast.Lit _ -> e
  | Ast.Binop (op, a, b) -> Ast.Binop (op, rename_expr map a, rename_expr map b)
  | Ast.Neg a -> Ast.Neg (rename_expr map a)
  | Ast.Agg (fn, arg) -> Ast.Agg (fn, Option.map (rename_expr map) arg)
  | Ast.Fn (name, args) -> Ast.Fn (name, List.map (rename_expr map) args)

let rec rename_pred map (p : Ast.pred) : Ast.pred =
  match p with
  | Ast.Ptrue -> p
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, rename_expr map a, rename_expr map b)
  | Ast.And (a, b) -> Ast.And (rename_pred map a, rename_pred map b)
  | Ast.Or (a, b) -> Ast.Or (rename_pred map a, rename_pred map b)
  | Ast.Not a -> Ast.Not (rename_pred map a)
  | Ast.Is_null e -> Ast.Is_null (rename_expr map e)
  | Ast.Is_not_null e -> Ast.Is_not_null (rename_expr map e)
  | Ast.Like (e, pat) -> Ast.Like (rename_expr map e, pat)
  | Ast.Between (e, lo, hi) ->
    Ast.Between (rename_expr map e, rename_expr map lo, rename_expr map hi)
  | Ast.In_list (e, es) ->
    Ast.In_list (rename_expr map e, List.map (rename_expr map) es)
  | Ast.Exists q -> Ast.Exists q (* subqueries keep their own scope *)
  | Ast.In_query (e, q) -> Ast.In_query (rename_expr map e, q)

let find_table_def (ast : Xnf_ast.query) name : Xnf_ast.table_def =
  match
    List.find_opt (fun (t : Xnf_ast.table_def) -> t.Xnf_ast.tname = name)
      ast.Xnf_ast.tables
  with
  | Some t -> t
  | None -> Errors.semantic_error "unknown component %S" name

let incoming (ast : Xnf_ast.query) c =
  List.filter (fun (r : Xnf_ast.relate_def) -> List.mem c r.Xnf_ast.children)
    ast.Xnf_ast.relates

let fresh_alias =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s%d" base !n

let using_refs (r : Xnf_ast.relate_def) =
  List.map
    (fun (u : Xnf_ast.using_ref) ->
      Ast.Table_name { name = u.Xnf_ast.utable; alias = Some u.Xnf_ast.ualias })
    r.Xnf_ast.using

(** Qualifier renaming for a relationship predicate: the role and the
    parent name to the parent's alias, each child name to its alias.  In
    a self-relationship the bare name denotes the child, as in the XNF
    frame, and only the role addresses the parent. *)
let partner_map (r : Xnf_ast.relate_def) ~parent_alias children =
  let parent = String.lowercase_ascii r.Xnf_ast.parent in
  ((String.lowercase_ascii r.Xnf_ast.role, parent_alias)
  :: (if List.mem_assoc parent children then [] else [ (parent, parent_alias) ]))
  @ children

(** The reachability predicate for component [c] bound to alias
    [c_alias]: an EXISTS per incoming relationship, recursively requiring
    a reachable parent.  Mirrors Fig. 3a / Sect. 4.2. *)
let rec reach_pred (ast : Xnf_ast.query) (c : string) (c_alias : string) :
    Ast.pred =
  (* roots, explicit ones included, are reachable by definition: an
     explicit root's own incoming relationships (a self-relationship)
     would otherwise recurse forever *)
  let rels = if List.mem c (Xnf_ast.roots ast) then [] else incoming ast c in
  if rels = [] then Ast.Ptrue
  else
    let per_rel (r : Xnf_ast.relate_def) =
      let parent_alias = fresh_alias "p" in
      let parent_def = find_table_def ast r.Xnf_ast.parent in
      (* siblings (other children of an n-ary relationship) must also match *)
      let sibling_aliases =
        List.map
          (fun ch -> if ch = c then (ch, c_alias) else (ch, fresh_alias "s"))
          r.Xnf_ast.children
      in
      let map =
        partner_map r ~parent_alias
          (List.map (fun (ch, a) -> (String.lowercase_ascii ch, a)) sibling_aliases)
      in
      let from =
        Ast.Derived { query = parent_def.Xnf_ast.texpr; alias = parent_alias }
        :: List.filter_map
             (fun (ch, a) ->
               if a = c_alias then None
               else
                 Some
                   (Ast.Derived
                      { query = (find_table_def ast ch).Xnf_ast.texpr; alias = a }))
             sibling_aliases
        @ using_refs r
      in
      let where =
        Ast.conj
          [
            rename_pred map r.Xnf_ast.rpred;
            reach_pred ast r.Xnf_ast.parent parent_alias;
          ]
      in
      Ast.Exists (Ast.simple_query ~where [ Ast.Sel_expr (Ast.int_lit 1, None) ] from)
    in
    match List.map per_rel rels with
    | [] -> Ast.Ptrue
    | [ p ] -> p
    | p :: rest -> List.fold_left (fun acc q -> Ast.Or (acc, q)) p rest

(** Standalone query deriving node component [c]. *)
let node_query (ast : Xnf_ast.query) (c : string) : Ast.query =
  let def = find_table_def ast c in
  let alias = String.lowercase_ascii c in
  let where = reach_pred ast c alias in
  let q =
    Ast.simple_query ~distinct:true ~where [ Ast.Table_star alias ]
      [ Ast.Derived { query = def.Xnf_ast.texpr; alias } ]
  in
  q

(** Standalone query deriving relationship [r]'s connections: the
    reachable parent derivation joined with the children's defining
    expressions (Fig. 6c). *)
let rel_query (ast : Xnf_ast.query) (r : Xnf_ast.relate_def) : Ast.query =
  let parent_alias = fresh_alias "p" in
  let parent_derived =
    (* the full reachable-parent derivation, as in the xdept/xemp views *)
    node_query ast r.Xnf_ast.parent
  in
  let child_aliases = List.map (fun ch -> (ch, fresh_alias "c")) r.Xnf_ast.children in
  let map =
    partner_map r ~parent_alias
      (List.map (fun (ch, a) -> (String.lowercase_ascii ch, a)) child_aliases)
  in
  let from =
    Ast.Derived { query = parent_derived; alias = parent_alias }
    :: List.map
         (fun (ch, a) ->
           Ast.Derived { query = (find_table_def ast ch).Xnf_ast.texpr; alias = a })
         child_aliases
    @ using_refs r
  in
  let select =
    Ast.Table_star parent_alias
    :: List.map (fun (_, a) -> Ast.Table_star a) child_aliases
  in
  Ast.simple_query ~distinct:true ~where:(rename_pred map r.Xnf_ast.rpred) select
    from

(** All standalone component queries, Table-1 style: nodes then
    relationships, in declaration order. *)
let component_queries (ast : Xnf_ast.query) : (string * Ast.query) list =
  if Xnf_ast.is_recursive ast then
    Errors.unsupported
      "single-component SQL derivation cannot express recursive COs";
  List.map
    (fun (t : Xnf_ast.table_def) -> (t.Xnf_ast.tname, node_query ast t.Xnf_ast.tname))
    ast.Xnf_ast.tables
  @ List.map
      (fun (r : Xnf_ast.relate_def) -> (r.Xnf_ast.rname, rel_query ast r))
      ast.Xnf_ast.relates

(** Execute the baseline: one independent query per component, each with
    its own execution context (no cross-query sharing — that is the
    point of the comparison). *)
let extract (db : Db.t) (ast : Xnf_ast.query) : (string * Tuple.t list) list =
  List.map
    (fun (name, q) -> (name, Executor.Exec.run (Db.compile_ast db q)))
    (component_queries ast)

(** Compile each standalone query to its rewritten QGM graph (for
    operation counting à la Table 1). *)
let component_graphs (db : Db.t) (ast : Xnf_ast.query) :
    (string * Starq.Qgm.box list) list =
  List.map
    (fun (name, q) ->
      let g = Starq.Build.build_query (Db.catalog db) q in
      ignore (Starq.Engine.rewrite_graph g);
      (name, [ g.Starq.Qgm.top ]))
    (component_queries ast)
