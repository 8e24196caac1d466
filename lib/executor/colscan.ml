(** Columnar access path recognition: map a [Scan] / [Filter(Scan)]
    plan subtree onto {!Relcore.Colstore} predicate atoms plus a
    residual row predicate.

    A filter's conjunction is flattened; every conjunct of
    column-vs-constant shape that the chunk kernels can evaluate with
    exact row-path semantics becomes an unboxed atom, and everything
    else (correlated params, subquery probes, expressions, constants
    the kernels cannot fold exactly) stays in the residual, evaluated
    over materialized heap tuples.  Dropping a conjunct to the residual
    never changes results — a row passes the filter iff every conjunct
    is true, regardless of evaluation order. *)

open Relcore
module Plan = Optimizer.Plan
module Ast = Sqlkit.Ast

type t = {
  table : Base_table.t;
  store : Colstore.t;
  katoms : Colstore.catom array; (* compiled against [store]'s dictionary *)
  residual : Plan.ppred option;
}

let cmp_of_ast : Ast.cmpop -> Colstore.cmp = function
  | Ast.Eq -> Colstore.Ceq
  | Ast.Ne -> Colstore.Cne
  | Ast.Lt -> Colstore.Clt
  | Ast.Le -> Colstore.Cle
  | Ast.Gt -> Colstore.Cgt
  | Ast.Ge -> Colstore.Cge

(* [const op col] reads as [col (mirror op) const] *)
let mirror : Ast.cmpop -> Ast.cmpop = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

let atom_of (p : Plan.ppred) : Colstore.atom option =
  match p with
  | Plan.P_cmp (op, Plan.P_col i, Plan.P_const v) ->
    Some (Colstore.A_cmp (i, cmp_of_ast op, v))
  | Plan.P_cmp (op, Plan.P_const v, Plan.P_col i) ->
    Some (Colstore.A_cmp (i, cmp_of_ast (mirror op), v))
  | Plan.P_is_null (Plan.P_col i) -> Some (Colstore.A_is_null i)
  | Plan.P_is_not_null (Plan.P_col i) -> Some (Colstore.A_not_null i)
  | _ -> None

let rec flatten (p : Plan.ppred) acc =
  match p with
  | Plan.P_and (a, b) -> flatten a (flatten b acc)
  | Plan.P_true -> acc
  | _ -> p :: acc

(* Scan with zero or more stacked filters over it; conjuncts in
   original application order. *)
let rec split (p : Plan.t) : (Base_table.t * Plan.ppred list) option =
  match p with
  | Plan.Scan t -> Some (t, [])
  | Plan.Filter (inner, pred) ->
    (match split inner with
    | Some (t, cs) -> Some (t, cs @ flatten pred [])
    | None -> None)
  | _ -> None

(** Recognize a columnar scan under the current [XNFDB_COLSTORE] knob.
    With [require_atoms] (the default), at least one conjunct must
    compile to an unboxed atom — otherwise the row path does the same
    work with no benefit.  Join build/probe sides pass
    [~require_atoms:false]: there the payoff is direct key extraction,
    which needs no atoms at all. *)
let of_plan ?(require_atoms = true) (p : Plan.t) : t option =
  if not (Colstore.enabled ()) then None
  else
    match split p with
    | None -> None
    | Some (table, conjuncts) ->
      let store = table.Base_table.colstore in
      let katoms = ref [] in
      let resid = ref [] in
      let n = ref 0 in
      List.iter
        (fun c ->
          match atom_of c with
          | Some a ->
            (match Colstore.compile_atom store a with
            | Some k ->
              katoms := k :: !katoms;
              incr n
            | None -> resid := c :: !resid)
          | None -> resid := c :: !resid)
        conjuncts;
      if !n = 0 && require_atoms then None
      else
        let residual =
          match List.rev !resid with
          | [] -> None
          | c :: rest ->
            Some (List.fold_left (fun a b -> Plan.P_and (a, b)) c rest)
        in
        Some
          {
            table;
            store;
            katoms = Array.of_list (List.rev !katoms);
            residual;
          }

(** The column position behind a single-column [Tint] join key, if the
    key is a bare column of one.  Per-chunk data comes from
    {!Relcore.Colstore.key_chunk} (the chunk's own int array). *)
let int_key (cs : t) (key : Plan.scalar) : int option =
  match key with
  | Plan.P_col i when Colstore.int_key_col cs.store i -> Some i
  | _ -> None

(** The column position behind a single-column [Tstr] join key, if the
    key is a bare column of one.  {!Relcore.Colstore.key_chunk} then
    yields dictionary codes private to this table: build-side strings
    must be translated through {!Relcore.Colstore.dict_find} before
    probing. *)
let str_key (cs : t) (key : Plan.scalar) : int option =
  match key with
  | Plan.P_col i when Colstore.str_key_col cs.store i -> Some i
  | _ -> None
