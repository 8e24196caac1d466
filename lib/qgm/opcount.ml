(** Operation counting over compiled QGM graphs — the measurement behind
    the paper's Table 1 (SQL vs XNF derivation w.r.t. common
    subexpressions).

    Counting scheme (documented in EXPERIMENTS.md):
    - every local selection (a quantifier restricted by single-table
      predicates) is one {e selection} operation;
    - every equi-join edge (predicates linking a pair of quantifiers) is
      one {e join} operation;
    - residual existential quantifiers/predicate subqueries count one
      {e semijoin} operation, and their subgraphs are counted too;
    - unions, projections and DISTINCT enforcement are free (they merge
      or reshape already-computed streams).

    Each operation carries a structural {e descriptor} normalised by the
    base tables and predicates it involves — independent of box merging,
    head shape and DISTINCT — so that the same logical work appearing in
    two separate queries is recognised as {e replicated}.  Physically
    shared boxes (XNF common subexpressions) are visited once. *)

module Ast = Sqlkit.Ast

type row = { component : string; ops : int; replicated : int }

(* -- structural signatures --------------------------------------------- *)

(** Sorted base-table names under a box. *)
let rec base_tables (memo : (int, string list) Hashtbl.t) (b : Qgm.box) :
    string list =
  match Hashtbl.find_opt memo b.Qgm.bid with
  | Some ts -> ts
  | None ->
    Hashtbl.add memo b.Qgm.bid []; (* cycle guard *)
    let ts =
      match b.Qgm.kind with
      | Qgm.Base t -> [ Relcore.Base_table.name t ]
      | Qgm.Select | Qgm.Group | Qgm.Union ->
        List.concat_map (fun q -> base_tables memo q.Qgm.over) b.Qgm.quants
        |> List.sort_uniq compare
    in
    Hashtbl.replace memo b.Qgm.bid ts;
    ts

type sigs = {
  tables_memo : (int, string list) Hashtbl.t;
  box_memo : (int, string) Hashtbl.t;
}

let make_sigs () = { tables_memo = Hashtbl.create 64; box_memo = Hashtbl.create 64 }

(** Normalised rendering of an expression within [owner]: quantifier
    references become "[base tables].column". *)
let rec expr_sig sigs (owner : Qgm.box) (e : Qgm.bexpr) : string =
  match e with
  | Qgm.Qcol (qid, i) -> begin
    match Qgm.find_quant owner qid with
    | Some q ->
      let tables = String.concat "+" (base_tables sigs.tables_memo q.Qgm.over) in
      let colname =
        if i < Array.length q.Qgm.over.Qgm.head then
          q.Qgm.over.Qgm.head.(i).Qgm.hname
        else string_of_int i
      in
      Printf.sprintf "[%s].%s" tables colname
    | None -> Printf.sprintf "outer.%d" i
  end
  | Qgm.Const v -> Relcore.Value.to_literal v
  | Qgm.Bop (op, a, b) ->
    Printf.sprintf "(%s%s%s)" (expr_sig sigs owner a)
      (Sqlkit.Pretty.binop_str op) (expr_sig sigs owner b)
  | Qgm.Bneg a -> "(-" ^ expr_sig sigs owner a ^ ")"
  | Qgm.Bagg (fn, Some a) ->
    Sqlkit.Pretty.agg_str fn ^ "(" ^ expr_sig sigs owner a ^ ")"
  | Qgm.Bagg (fn, None) -> Sqlkit.Pretty.agg_str fn ^ "(*)"
  | Qgm.Bfn (name, args) ->
    name ^ "("
    ^ String.concat "," (List.map (expr_sig sigs owner) args)
    ^ ")"

and pred_sig sigs owner (p : Qgm.bpred) : string =
  match p with
  | Qgm.Btrue -> "true"
  | Qgm.Bcmp (op, a, b) ->
    let sa = expr_sig sigs owner a and sb = expr_sig sigs owner b in
    let sa, sb =
      if op = Ast.Eq && compare sb sa < 0 then (sb, sa) else (sa, sb)
    in
    sa ^ Sqlkit.Pretty.cmpop_str op ^ sb
  | Qgm.Band (a, b) -> "(" ^ pred_sig sigs owner a ^ "&" ^ pred_sig sigs owner b ^ ")"
  | Qgm.Bor (a, b) -> "(" ^ pred_sig sigs owner a ^ "|" ^ pred_sig sigs owner b ^ ")"
  | Qgm.Bnot p -> "!(" ^ pred_sig sigs owner p ^ ")"
  | Qgm.Bis_null e -> expr_sig sigs owner e ^ " isnull"
  | Qgm.Bis_not_null e -> expr_sig sigs owner e ^ " notnull"
  | Qgm.Blike (e, pat) -> expr_sig sigs owner e ^ " like " ^ pat
  | Qgm.Bexists b -> "exists{" ^ box_sig sigs b ^ "}"
  | Qgm.Bin_sub (e, b) -> expr_sig sigs owner e ^ " in{" ^ box_sig sigs b ^ "}"

(** Full structural signature of a box (heads/DISTINCT ignored). *)
and box_sig sigs (b : Qgm.box) : string =
  match Hashtbl.find_opt sigs.box_memo b.Qgm.bid with
  | Some s -> s
  | None ->
    Hashtbl.add sigs.box_memo b.Qgm.bid "<cycle>";
    let s =
      match b.Qgm.kind with
      | Qgm.Base t -> "base:" ^ Relcore.Base_table.name t
      | Qgm.Union ->
        let inputs =
          List.map (fun q -> box_sig sigs q.Qgm.over) b.Qgm.quants
          |> List.sort compare
        in
        "union{" ^ String.concat "," inputs ^ "}"
      | Qgm.Select | Qgm.Group ->
        let inputs =
          List.map (fun q -> box_sig sigs q.Qgm.over) b.Qgm.quants
          |> List.sort compare
        in
        let preds = List.map (pred_sig sigs b) b.Qgm.preds |> List.sort compare in
        Printf.sprintf "sel{%s|%s}" (String.concat "," inputs)
          (String.concat "&" preds)
    in
    Hashtbl.replace sigs.box_memo b.Qgm.bid s;
    s

(* -- operation extraction ----------------------------------------------- *)

(** Operation descriptors contributed by one box (children excluded). *)
let box_ops sigs (b : Qgm.box) : string list =
  match b.Qgm.kind with
  | Qgm.Base _ | Qgm.Union -> []
  | Qgm.Select | Qgm.Group ->
    let local_qids = Qgm.local_qids b in
    let fqids =
      List.filter_map
        (fun q -> if q.Qgm.qkind = Qgm.F then Some q.Qgm.qid else None)
        b.Qgm.quants
    in
    (* classify predicates *)
    let local_by_quant : (int, Qgm.bpred list ref) Hashtbl.t = Hashtbl.create 8 in
    let pair_joins : (int * int, Qgm.bpred list ref) Hashtbl.t = Hashtbl.create 8 in
    let complex = ref [] in
    List.iter
      (fun p ->
        if Qgm.pred_subqueries p <> [] then () (* counted via their graphs *)
        else begin
          let refs = Qgm.bpred_quants p in
          let locals = List.filter (fun q -> List.mem q local_qids) refs in
          let has_outer = List.exists (fun q -> not (List.mem q local_qids)) refs in
          match List.sort_uniq compare locals with
          | [ q ] when not has_outer ->
            let r =
              match Hashtbl.find_opt local_by_quant q with
              | Some r -> r
              | None ->
                let r = ref [] in
                Hashtbl.add local_by_quant q r;
                r
            in
            r := p :: !r
          | [ a; q ] when not has_outer ->
            let key = (min a q, max a q) in
            let r =
              match Hashtbl.find_opt pair_joins key with
              | Some r -> r
              | None ->
                let r = ref [] in
                Hashtbl.add pair_joins key r;
                r
            in
            r := p :: !r
          | [] -> () (* pure outer/constant: no derivation work *)
          | _ when has_outer -> () (* correlated: evaluated by the outer op *)
          | qs -> complex := (qs, p) :: !complex
        end)
      b.Qgm.preds;
    let quant_of qid = List.find (fun q -> q.Qgm.qid = qid) b.Qgm.quants in
    (* effective input signature: the input box restricted by its local
       predicates — identical whether the selection was merged or kept
       as a separate box *)
    let eff_sig qid =
      let q = quant_of qid in
      let base = box_sig sigs q.Qgm.over in
      match Hashtbl.find_opt local_by_quant qid with
      | None | Some { contents = [] } -> base
      | Some preds ->
        let ps = List.map (pred_sig sigs b) !preds |> List.sort compare in
        Printf.sprintf "sel{%s|%s}" base (String.concat "&" ps)
    in
    let sel_ops =
      Hashtbl.fold
        (fun qid preds acc ->
          let q = quant_of qid in
          let ps = List.map (pred_sig sigs b) !preds |> List.sort compare in
          Printf.sprintf "sel{%s|%s}"
            (box_sig sigs q.Qgm.over)
            (String.concat "&" ps)
          :: acc)
        local_by_quant []
    in
    let join_ops =
      Hashtbl.fold
        (fun (a, c) preds acc ->
          let sa = eff_sig a and sc = eff_sig c in
          let sa, sc = if compare sc sa < 0 then (sc, sa) else (sa, sc) in
          let ps = List.map (pred_sig sigs b) !preds |> List.sort compare in
          Printf.sprintf "join{%s><%s|%s}" sa sc (String.concat "&" ps) :: acc)
        pair_joins []
    in
    let complex_ops =
      List.map
        (fun (qs, p) ->
          let inputs = List.map eff_sig qs |> List.sort compare in
          Printf.sprintf "join{%s|%s}"
            (String.concat "><" inputs)
            (pred_sig sigs b p))
        !complex
    in
    let semi_ops =
      List.filter_map
        (fun q ->
          if q.Qgm.qkind = Qgm.E then
            Some (Printf.sprintf "semijoin{%s}" (box_sig sigs q.Qgm.over))
          else None)
        b.Qgm.quants
    in
    ignore fqids;
    sel_ops @ join_ops @ complex_ops @ semi_ops

(** Analyze a sequence of named derivations.  Each entry provides the
    output boxes of one component; boxes already visited (physical
    sharing across components, i.e. XNF common subexpressions) are not
    recounted.  Descriptor equality across entries yields the
    "replicated" column. *)
let analyze (outputs : (string * Qgm.box list) list) : row list =
  let sigs = make_sigs () in
  let visited = Hashtbl.create 64 in
  let seen_descriptors = Hashtbl.create 64 in
  List.map
    (fun (component, roots) ->
      let ops = ref 0 and replicated = ref 0 in
      let boxes =
        Qgm.reachable_boxes roots
        |> List.filter (fun b -> not (Hashtbl.mem visited b.Qgm.bid))
      in
      List.iter
        (fun b ->
          Hashtbl.add visited b.Qgm.bid ();
          List.iter
            (fun descr ->
              incr ops;
              if Hashtbl.mem seen_descriptors descr then incr replicated
              else Hashtbl.add seen_descriptors descr ())
            (box_ops sigs b))
        boxes;
      { component; ops = !ops; replicated = !replicated })
    outputs

let total rows = List.fold_left (fun a r -> a + r.ops) 0 rows
let total_replicated rows = List.fold_left (fun a r -> a + r.replicated) 0 rows

(** Human-readable dump of every operation in a derivation (used by
    tests). *)
let describe (outputs : (string * Qgm.box list) list) : (string * string list) list =
  let sigs = make_sigs () in
  let visited = Hashtbl.create 64 in
  List.map
    (fun (component, roots) ->
      let descrs =
        Qgm.reachable_boxes roots
        |> List.filter (fun b ->
               if Hashtbl.mem visited b.Qgm.bid then false
               else begin
                 Hashtbl.add visited b.Qgm.bid ();
                 true
               end)
        |> List.concat_map (fun b -> box_ops sigs b)
      in
      (component, descrs))
    outputs
