(** The Query Graph Model (QGM): Starburst's internal query
    representation (paper Sect. 3.2).

    A query is a graph of {e boxes}; each box has a {e head} (the output
    table it defines) and a {e body} (quantifiers ranging over other
    boxes, plus predicates).  Quantifiers are either [F] ("foreach", the
    usual FROM-clause range variable) or [E] (existential, produced by
    EXISTS / IN subqueries).  Rewrite rules transform the graph in place
    (e.g. E-to-F quantifier conversion, SELECT merge). *)

open Relcore

type quant_kind = F | E

(** Body-level scalar expressions.  [Qcol (qid, i)] refers to column [i]
    of the box that quantifier [qid] ranges over.  A [Qcol] whose
    quantifier does not belong to the enclosing box is a {e correlated}
    reference into an ancestor box. *)
type bexpr =
  | Qcol of int * int
  | Const of Value.t
  | Bop of Sqlkit.Ast.binop * bexpr * bexpr
  | Bneg of bexpr
  | Bagg of Sqlkit.Ast.agg_fn * bexpr option (* meaningful only in Group boxes *)
  | Bfn of string * bexpr list (* scalar function *)

(** Predicates.  [Bexists] and [Bin_sub] are {e predicate-level}
    subqueries: they appear where an existential cannot soundly become an
    E quantifier (under OR or NOT) and are evaluated tuple-at-a-time —
    exactly the naive strategy the paper's Sect. 3.2 contrasts with the
    rewritten join. *)
type bpred =
  | Btrue
  | Bcmp of Sqlkit.Ast.cmpop * bexpr * bexpr
  | Band of bpred * bpred
  | Bor of bpred * bpred
  | Bnot of bpred
  | Bis_null of bexpr
  | Bis_not_null of bexpr
  | Blike of bexpr * string
  | Bexists of box
  | Bin_sub of bexpr * box

and head_col = { hname : string; htype : Dtype.t; hexpr : bexpr }

and box_kind =
  | Base of Base_table.t
  | Select
  | Group (* grouped aggregation; group keys in [group_by] *)
  | Union
      (* positional UNION ALL of the quantifiers' inputs; set [distinct]
         for UNION semantics.  Heads must be arity-compatible. *)

and box = {
  bid : int;
  mutable kind : box_kind;
  mutable name : string; (* diagnostic label, e.g. "xdept" *)
  mutable head : head_col array;
  mutable distinct : bool; (* head enforces duplicate elimination *)
  mutable quants : quant list;
  mutable preds : bpred list; (* implicitly conjoined *)
  mutable group_by : bexpr list; (* Group boxes only *)
}

and quant = { qid : int; mutable qkind : quant_kind; mutable over : box }

type graph = {
  mutable top : box;
  (* ORDER BY / LIMIT apply to the top box's output stream *)
  mutable order_by : (int * [ `Asc | `Desc ]) list; (* head column positions *)
  mutable limit : int option;
  mutable strip : int option;
      (* hidden sort columns: keep only the first [n] output columns *)
}

(* box ids are drawn by every domain that compiles *)
let counter = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add counter 1

let make_box ?(name = "") ?(distinct = false) kind ~head =
  {
    bid = fresh_id ();
    kind;
    name;
    head;
    distinct;
    quants = [];
    preds = [];
    group_by = [];
  }

let make_quant ?(kind = F) over = { qid = fresh_id (); qkind = kind; over }

let base_box table =
  let head =
    Array.of_list
      (List.mapi
         (fun i (c : Schema.column) ->
           (* Base-box head exprs are self-referential placeholders;
              position [i] is what matters. *)
           { hname = c.Schema.name; htype = c.Schema.dtype; hexpr = Qcol (-1, i) })
         (Schema.columns (Base_table.schema table)))
  in
  make_box ~name:(Base_table.name table) (Base table) ~head

(* -- traversal ------------------------------------------------------- *)

let rec iter_bexpr f = function
  | Qcol _ as e -> f e
  | Const _ as e -> f e
  | Bop (_, a, b) as e ->
    f e;
    iter_bexpr f a;
    iter_bexpr f b
  | Bneg a as e ->
    f e;
    iter_bexpr f a
  | Bagg (_, Some a) as e ->
    f e;
    iter_bexpr f a
  | Bagg (_, None) as e -> f e
  | Bfn (_, args) as e ->
    f e;
    List.iter (iter_bexpr f) args

let rec iter_bpred_exprs f = function
  | Btrue -> ()
  | Bcmp (_, a, b) ->
    iter_bexpr f a;
    iter_bexpr f b
  | Band (a, b) | Bor (a, b) ->
    iter_bpred_exprs f a;
    iter_bpred_exprs f b
  | Bnot p -> iter_bpred_exprs f p
  | Bis_null e | Bis_not_null e -> iter_bexpr f e
  | Blike (e, _) -> iter_bexpr f e
  | Bexists _ -> ()
  | Bin_sub (e, _) -> iter_bexpr f e

(** Quantifier ids referenced by an expression. *)
let bexpr_quants e =
  let acc = ref [] in
  iter_bexpr (function Qcol (q, _) -> if not (List.mem q !acc) then acc := q :: !acc | _ -> ()) e;
  !acc

(** Quantifier ids referenced by the graph rooted at [box] that no box
    in that graph binds (i.e. correlated/outer references). *)
let free_quants_of_box box =
  let bound = Hashtbl.create 16 and used = ref [] in
  let seen = Hashtbl.create 16 in
  let note = function
    | Qcol (q, _) -> if not (List.mem q !used) then used := q :: !used
    | _ -> ()
  in
  let rec go b =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.add seen b.bid ();
      List.iter (fun q -> Hashtbl.add bound q.qid ()) b.quants;
      List.iter (iter_bpred_exprs note) b.preds;
      Array.iter (fun h -> iter_bexpr note h.hexpr) b.head;
      List.iter (iter_bexpr note) b.group_by;
      List.iter (fun q -> go q.over) b.quants
    end
  in
  go box;
  (* qid -1 is the base-box self-reference placeholder, never bound *)
  List.filter (fun q -> q >= 0 && not (Hashtbl.mem bound q)) !used

let rec pred_subqueries = function
  | Bexists b -> [ b ]
  | Bin_sub (_, b) -> [ b ]
  | Band (a, b) | Bor (a, b) -> pred_subqueries a @ pred_subqueries b
  | Bnot p -> pred_subqueries p
  | Btrue | Bcmp _ | Bis_null _ | Bis_not_null _ | Blike _ -> []

let bpred_quants p =
  let acc = ref [] in
  let add q = if not (List.mem q !acc) then acc := q :: !acc in
  iter_bpred_exprs (function Qcol (q, _) -> add q | _ -> ()) p;
  (* predicate-level subqueries contribute their correlated references *)
  List.iter (fun b -> List.iter add (free_quants_of_box b)) (pred_subqueries p);
  !acc

(** Substitute quantifier-column references via [lookup]; [lookup q i]
    returns [Some e] to replace [Qcol (q, i)]. *)
let rec subst_bexpr lookup = function
  | Qcol (q, i) as e -> (match lookup q i with Some e' -> e' | None -> e)
  | Const _ as e -> e
  | Bop (op, a, b) -> Bop (op, subst_bexpr lookup a, subst_bexpr lookup b)
  | Bneg a -> Bneg (subst_bexpr lookup a)
  | Bagg (fn, arg) -> Bagg (fn, Option.map (subst_bexpr lookup) arg)
  | Bfn (name, args) -> Bfn (name, List.map (subst_bexpr lookup) args)

let rec subst_bpred lookup = function
  | Btrue -> Btrue
  | Bcmp (op, a, b) -> Bcmp (op, subst_bexpr lookup a, subst_bexpr lookup b)
  | Band (a, b) -> Band (subst_bpred lookup a, subst_bpred lookup b)
  | Bor (a, b) -> Bor (subst_bpred lookup a, subst_bpred lookup b)
  | Bnot p -> Bnot (subst_bpred lookup p)
  | Bis_null e -> Bis_null (subst_bexpr lookup e)
  | Bis_not_null e -> Bis_not_null (subst_bexpr lookup e)
  | Blike (e, pat) -> Blike (subst_bexpr lookup e, pat)
  | Bexists box ->
    subst_box_correlations lookup box;
    Bexists box
  | Bin_sub (e, box) ->
    subst_box_correlations lookup box;
    Bin_sub (subst_bexpr lookup e, box)

(** Apply a substitution to correlated references inside a predicate
    subquery graph (in place; local quantifier references are shielded by
    the subquery's own quantifier ids being distinct). *)
and subst_box_correlations lookup box =
  let seen = Hashtbl.create 8 in
  let rec go b =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.add seen b.bid ();
      b.preds <- List.map (subst_bpred lookup) b.preds;
      b.head <-
        Array.map (fun h -> { h with hexpr = subst_bexpr lookup h.hexpr }) b.head;
      b.group_by <- List.map (subst_bexpr lookup) b.group_by;
      List.iter (fun q -> go q.over) b.quants
    end
  in
  go box

(** All boxes reachable from [roots], each visited once, parents before
    children (preorder on first visit). *)
let reachable_boxes roots =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  let rec visit box =
    if not (Hashtbl.mem seen box.bid) then begin
      Hashtbl.add seen box.bid ();
      order := box :: !order;
      List.iter (fun q -> visit q.over) box.quants;
      List.iter
        (fun p -> List.iter visit (pred_subqueries p))
        box.preds
    end
  in
  List.iter visit roots;
  List.rev !order

(** Map from box id to the list of (consumer box, quantifier) pairs that
    range over it, computed over the graph reachable from [roots]. *)
let consumers roots =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun box ->
      List.iter
        (fun q ->
          let prev = Option.value (Hashtbl.find_opt tbl q.over.bid) ~default:[] in
          Hashtbl.replace tbl q.over.bid ((box, q) :: prev))
        box.quants)
    (reachable_boxes roots);
  tbl

let find_quant box qid = List.find_opt (fun q -> q.qid = qid) box.quants

(** The local quantifier ids of a box. *)
let local_qids box = List.map (fun q -> q.qid) box.quants

(** Does predicate [p] reference only quantifiers local to [box]? *)
let pred_is_local box p =
  List.for_all (fun q -> List.mem q (local_qids box)) (bpred_quants p)

(* -- typing ---------------------------------------------------------- *)

(** Infer the type of a body expression given an environment resolving
    quantifier ids to their input boxes. *)
let rec type_of_bexpr env = function
  | Qcol (q, i) -> begin
    match env q with
    | Some box when i < Array.length box.head -> box.head.(i).htype
    | Some box ->
      Errors.semantic_error "column %d out of range for box %s" i box.name
    | None -> Errors.semantic_error "unresolved quantifier %d" q
  end
  | Const v -> begin
    match v with
    | Value.Null -> Dtype.Tstr (* arbitrary; nulls admit every type *)
    | Value.Bool _ -> Dtype.Tbool
    | Value.Int _ -> Dtype.Tint
    | Value.Float _ -> Dtype.Tfloat
    | Value.Str _ -> Dtype.Tstr
  end
  | Bop ((Sqlkit.Ast.Add | Sub | Mul | Div | Mod), a, b) ->
    Dtype.join (type_of_bexpr env a) (type_of_bexpr env b)
  | Bneg a -> type_of_bexpr env a
  | Bagg ((Sqlkit.Ast.Count_star | Count), _) -> Dtype.Tint
  | Bagg (Avg, _) -> Dtype.Tfloat
  | Bagg ((Sum | Min | Max), Some a) -> type_of_bexpr env a
  | Bagg ((Sum | Min | Max), None) -> assert false
  | Bfn (name, args) -> begin
    (* the engine's scalar function catalog *)
    match name, args with
    | ("upper" | "lower" | "substr" | "trim"), _ -> Dtype.Tstr
    | "length", _ -> Dtype.Tint
    | "abs", [ a ] -> type_of_bexpr env a
    | "coalesce", a :: _ -> type_of_bexpr env a
    | _ ->
      Errors.semantic_error "unknown scalar function %S/%d" name
        (List.length args)
  end

(** Environment resolving a quantifier id to its box by searching a list
    of scope boxes (innermost first). *)
let env_of_boxes boxes qid =
  let rec find = function
    | [] -> None
    | b :: rest -> (
      match find_quant b qid with Some q -> Some q.over | None -> find rest)
  in
  find boxes

(* -- pretty-printing -------------------------------------------------- *)

let quant_kind_str = function F -> "F" | E -> "E"

let rec bexpr_to_string = function
  | Qcol (q, i) -> Printf.sprintf "q%d.%d" q i
  | Const v -> Value.to_literal v
  | Bop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (bexpr_to_string a)
      (Sqlkit.Pretty.binop_str op) (bexpr_to_string b)
  | Bneg a -> Printf.sprintf "(-%s)" (bexpr_to_string a)
  | Bagg (fn, Some a) ->
    Printf.sprintf "%s(%s)" (Sqlkit.Pretty.agg_str fn) (bexpr_to_string a)
  | Bagg (fn, None) -> Printf.sprintf "%s(*)" (Sqlkit.Pretty.agg_str fn)
  | Bfn (name, args) ->
    Printf.sprintf "%s(%s)" name
      (String.concat ", " (List.map bexpr_to_string args))

let rec bpred_to_string = function
  | Btrue -> "true"
  | Bcmp (op, a, b) ->
    Printf.sprintf "%s %s %s" (bexpr_to_string a)
      (Sqlkit.Pretty.cmpop_str op) (bexpr_to_string b)
  | Band (a, b) ->
    Printf.sprintf "(%s AND %s)" (bpred_to_string a) (bpred_to_string b)
  | Bor (a, b) ->
    Printf.sprintf "(%s OR %s)" (bpred_to_string a) (bpred_to_string b)
  | Bnot p -> Printf.sprintf "(NOT %s)" (bpred_to_string p)
  | Bis_null e -> Printf.sprintf "%s IS NULL" (bexpr_to_string e)
  | Bis_not_null e -> Printf.sprintf "%s IS NOT NULL" (bexpr_to_string e)
  | Blike (e, pat) -> Printf.sprintf "%s LIKE '%s'" (bexpr_to_string e) pat
  | Bexists b -> Printf.sprintf "EXISTS(box %d)" b.bid
  | Bin_sub (e, b) ->
    Printf.sprintf "%s IN (box %d)" (bexpr_to_string e) b.bid

let box_kind_str = function
  | Base t -> "Base(" ^ Base_table.name t ^ ")"
  | Select -> "Select"
  | Group -> "Group"
  | Union -> "Union"

let dump_box buf box =
  Buffer.add_string buf
    (Printf.sprintf "box %d [%s]%s%s\n" box.bid (box_kind_str box.kind)
       (if box.name <> "" then " " ^ box.name else "")
       (if box.distinct then " DISTINCT" else ""));
  Array.iteri
    (fun i h ->
      Buffer.add_string buf
        (Printf.sprintf "  head %d: %s %s = %s\n" i h.hname
           (Dtype.to_string h.htype)
           (bexpr_to_string h.hexpr)))
    box.head;
  List.iter
    (fun q ->
      Buffer.add_string buf
        (Printf.sprintf "  quant q%d : %s over box %d (%s)\n" q.qid
           (quant_kind_str q.qkind) q.over.bid q.over.name))
    box.quants;
  List.iter
    (fun p -> Buffer.add_string buf ("  pred " ^ bpred_to_string p ^ "\n"))
    box.preds;
  if box.group_by <> [] then
    Buffer.add_string buf
      ("  group by "
      ^ String.concat ", " (List.map bexpr_to_string box.group_by)
      ^ "\n")

let dump_graph g =
  let buf = Buffer.create 256 in
  List.iter (fun b -> dump_box buf b) (reachable_boxes [ g.top ]);
  Buffer.contents buf
