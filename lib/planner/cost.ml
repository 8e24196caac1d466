(** Cardinality and selectivity estimation for plan optimization.

    Deliberately simple, System-R-style: base cardinalities are exact
    (in-memory tables), predicate selectivities use fixed heuristics,
    equi-join selectivity assumes a key/foreign-key shape. *)

module Qgm = Starq.Qgm

let eq_selectivity = 0.05
let range_selectivity = 0.3
let default_selectivity = 0.5

(* -- batched streaming cost ---------------------------------------------- *)

(** Cost of evaluating one tuple inside a batch loop — the normalized
    unit the other cost constants are expressed in. *)
let tuple_cost = 1.0

(** Fixed cost of moving one batch across an operator boundary: batch
    allocation, iterator dispatch, selection-vector setup.  With
    tuple-at-a-time execution this was paid {e per row}; batching
    amortizes it over [Relcore.Batch.default_capacity] rows. *)
let batch_overhead = 4.0

(** Cost of streaming [rows] tuples through one operator hop under
    batch-at-a-time execution: a per-tuple term plus a per-batch term
    for however many batches the rows occupy. *)
let stream_cost (rows : float) : float =
  if rows <= 0.0 then batch_overhead
  else
    let batches =
      Float.of_int (Relcore.Batch.default_capacity ())
      |> fun cap -> Float.ceil (rows /. cap)
    in
    (rows *. tuple_cost) +. (batches *. batch_overhead)

(** Trace a body expression to a base-table column when the expression
    is a bare column reference whose quantifier (resolved by [resolve])
    ranges directly over a base table, or over a pass-through projection
    of one. *)
let rec base_column_of resolve (e : Qgm.bexpr) :
    (Relcore.Base_table.t * int) option =
  match e with
  | Qgm.Qcol (qid, i) -> begin
    match resolve qid with
    | Some (box : Qgm.box) -> begin
      match box.Qgm.kind with
      | Qgm.Base t -> Some (t, i)
      | Qgm.Select when i < Array.length box.Qgm.head ->
        (* follow identity projections one level *)
        base_column_of
          (fun q -> Option.map (fun qu -> qu.Qgm.over) (Qgm.find_quant box q))
          box.Qgm.head.(i).Qgm.hexpr
      | _ -> None
    end
    | None -> None
  end
  | _ -> None

let value_as_float : Relcore.Value.t -> float option = function
  | Relcore.Value.Int i -> Some (float_of_int i)
  | Relcore.Value.Float f when not (Float.is_nan f) -> Some f
  | _ -> None

(* [k op col] reads as [col (mirrored op) k] *)
let mirror_cmp : Sqlkit.Ast.cmpop -> Sqlkit.Ast.cmpop = function
  | Sqlkit.Ast.Lt -> Sqlkit.Ast.Gt
  | Sqlkit.Ast.Le -> Sqlkit.Ast.Ge
  | Sqlkit.Ast.Gt -> Sqlkit.Ast.Lt
  | Sqlkit.Ast.Ge -> Sqlkit.Ast.Le
  | o -> o

(** Interpolated selectivity of [col op k] against the zone-derived
    column range [lo, hi]: the fraction (k - lo) / (hi - lo) of the
    span falls below [k], clamped away from 0 and 1 (zone bounds may be
    conservative, and a zero estimate would hide the row-visit cost).
    [None] when either side is not a numeric base column vs. constant,
    or no range is known — the caller keeps its textbook constant. *)
let range_const_selectivity resolve (op : Sqlkit.Ast.cmpop) (a : Qgm.bexpr)
    (b : Qgm.bexpr) : float option =
  let attempt col_e k_v (op : Sqlkit.Ast.cmpop) =
    match base_column_of resolve col_e with
    | None -> None
    | Some (t, c) -> begin
      match Stats.column_range t c, value_as_float k_v with
      | Some (lo_v, hi_v), Some k -> begin
        match value_as_float lo_v, value_as_float hi_v with
        | Some lo, Some hi when hi > lo ->
          let below = Float.max 0.0 (Float.min 1.0 ((k -. lo) /. (hi -. lo))) in
          let s =
            match op with
            | Sqlkit.Ast.Lt | Sqlkit.Ast.Le -> below
            | Sqlkit.Ast.Gt | Sqlkit.Ast.Ge -> 1.0 -. below
            | _ -> range_selectivity
          in
          Some (Float.max 0.02 (Float.min 0.98 s))
        | _ -> None
      end
      | _ -> None
    end
  in
  match a, b with
  | _, Qgm.Const k -> attempt a k op
  | Qgm.Const k, _ -> attempt b k (mirror_cmp op)
  | _ -> None

(** Predicate selectivity.  With [resolve] (quantifier id -> input box),
    equality predicates consult per-column NDV statistics, range
    predicates against constants interpolate over zone-map column
    bounds, and NULL tests use zone null counts; without it (or with
    the colstore off), fixed textbook constants are used. *)
let pred_selectivity ?resolve (p : Qgm.bpred) =
  let resolve = Option.value resolve ~default:(fun _ -> None) in
  (* one [col op const] conjunct, normalized so the column is on the
     left; these are the shapes where treating conjuncts as independent
     double-counts (e.g. [col >= a AND col <= b] multiplies two range
     fractions where the truth is the intersection of one interval) *)
  let atom_of = function
    | Qgm.Bcmp (((Sqlkit.Ast.Eq | Lt | Le | Gt | Ge) as op), a, Qgm.Const k)
      -> begin
      match base_column_of resolve a, value_as_float k with
      | Some (t, c), Some kf -> Some (t, c, op, kf)
      | _ -> None
    end
    | Qgm.Bcmp
        (((Sqlkit.Ast.Eq | Lt | Le | Gt | Ge) as op), (Qgm.Const k), b) -> begin
      match base_column_of resolve b, value_as_float k with
      | Some (t, c), Some kf -> Some (t, c, mirror_cmp op, kf)
      | _ -> None
    end
    | _ -> None
  in
  let rec flatten acc = function
    | Qgm.Band (a, b) -> flatten (flatten acc a) b
    | p -> p :: acc
  in
  (* combined selectivity of every column-vs-constant conjunct on one
     column: an equality dominates (the interval can only shrink it
     further), range bounds intersect into a single interval measured
     against the zone-derived column span *)
  let group_sel (t, c) atoms =
    let has_eq = List.exists (fun (op, _) -> op = Sqlkit.Ast.Eq) atoms in
    let has_range = List.exists (fun (op, _) -> op <> Sqlkit.Ast.Eq) atoms in
    let interval =
      if not has_range then None
      else
        match Stats.column_range t c with
        | Some (lo_v, hi_v) -> begin
          match value_as_float lo_v, value_as_float hi_v with
          | Some lo, Some hi when hi > lo ->
            let glo = ref lo and ghi = ref hi in
            List.iter
              (fun ((op : Sqlkit.Ast.cmpop), k) ->
                match op with
                | Sqlkit.Ast.Lt | Sqlkit.Ast.Le -> if k < !ghi then ghi := k
                | Sqlkit.Ast.Gt | Sqlkit.Ast.Ge -> if k > !glo then glo := k
                | _ -> ())
              atoms;
            Some
              (Float.max 0.02
                 (Float.min 0.98 ((!ghi -. !glo) /. (hi -. lo))))
          | _ -> None
        end
        | None -> None
    in
    match has_eq, interval with
    | true, Some f -> Float.min (Stats.eq_const_selectivity t c) f
    | true, None -> Stats.eq_const_selectivity t c
    | false, Some f -> f
    | false, None ->
      (* no zone statistics: one textbook constant for the whole
         interval, not one per bound *)
      range_selectivity
  in
  let rec go = function
    | Qgm.Btrue -> 1.0
    | Qgm.Bcmp (Sqlkit.Ast.Eq, a, b) -> begin
      match base_column_of resolve a, base_column_of resolve b with
      | Some (t1, c1), Some (t2, c2) -> Stats.eq_join_selectivity t1 c1 t2 c2
      | Some (t, c), None | None, Some (t, c) -> Stats.eq_const_selectivity t c
      | None, None -> eq_selectivity
    end
    | Qgm.Bcmp ((Sqlkit.Ast.Lt | Le | Gt | Ge) as op, a, b) -> begin
      match range_const_selectivity resolve op a b with
      | Some s -> s
      | None -> range_selectivity
    end
    | Qgm.Bcmp (Sqlkit.Ast.Ne, _, _) -> 1.0 -. eq_selectivity
    | Qgm.Band _ as band ->
      let conjuncts = List.rev (flatten [] band) in
      let groups = Hashtbl.create 4 in
      let rest_sel =
        List.fold_left
          (fun acc p ->
            match atom_of p with
            | Some (t, c, op, k) ->
              let key = (Relcore.Base_table.tid t, c) in
              let prev =
                match Hashtbl.find_opt groups key with
                | Some (_, atoms) -> atoms
                | None -> []
              in
              Hashtbl.replace groups key ((t, c), (op, k) :: prev);
              acc
            | None -> acc *. go p)
          1.0 conjuncts
      in
      Hashtbl.fold
        (fun _ (col, atoms) acc -> acc *. group_sel col atoms)
        groups rest_sel
    | Qgm.Bor (a, b) -> min 1.0 (go a +. go b)
    | Qgm.Bnot a -> 1.0 -. go a
    | Qgm.Bis_null e -> begin
      match base_column_of resolve e with
      | Some (t, c) -> begin
        match Stats.null_fraction t c with
        | Some f -> Float.max 0.001 (Float.min 0.999 f)
        | None -> 0.1
      end
      | None -> 0.1
    end
    | Qgm.Bis_not_null e -> begin
      match base_column_of resolve e with
      | Some (t, c) -> begin
        match Stats.null_fraction t c with
        | Some f -> Float.max 0.001 (Float.min 0.999 (1.0 -. f))
        | None -> 0.9
      end
      | None -> 0.9
    end
    | Qgm.Blike _ -> 0.25
    | Qgm.Bexists _ | Qgm.Bin_sub _ -> default_selectivity
  in
  go p

(* -- sideways information passing ---------------------------------------- *)

(** Estimated fraction of probe rows whose join key survives a filter
    built from the build side's key set (range check + Bloom): the
    overlap of the two zone-derived key ranges, capped by how many of
    the probe's distinct keys the build side can possibly contain
    (ndv containment).  [build_card] bounds the build-side NDV when the
    build input is itself filtered.  Falls back to
    {!default_selectivity} when statistics are unavailable — cheap
    insurance, since the executor adaptively drops useless filters. *)
let join_filter_pass_est resolve ~(probe : Qgm.bexpr) ~(build : Qgm.bexpr)
    ~(build_card : float) : float =
  match base_column_of resolve probe, base_column_of resolve build with
  | Some (tp, cp), Some (tb, cb) ->
    let overlap =
      match Stats.column_range tp cp, Stats.column_range tb cb with
      | Some (plo_v, phi_v), Some (blo_v, bhi_v) -> begin
        match
          ( value_as_float plo_v,
            value_as_float phi_v,
            value_as_float blo_v,
            value_as_float bhi_v )
        with
        | Some plo, Some phi, Some blo, Some bhi when phi > plo ->
          let lo = Float.max plo blo and hi = Float.min phi bhi in
          Float.max 0.0 (Float.min 1.0 ((hi -. lo) /. (phi -. plo)))
        | _ -> 1.0
      end
      | _ -> 1.0
    in
    let probe_ndv = float_of_int (max 1 (Stats.column_ndv tp cp)) in
    let build_ndv =
      Float.min (float_of_int (max 1 (Stats.column_ndv tb cb))) build_card
    in
    Float.min overlap (build_ndv /. probe_ndv) |> Float.max 0.0 |> Float.min 1.0
  | _ -> default_selectivity

(** Estimated output cardinality of a box.  Not memoized: each call
    walks the box's inputs again. *)
let rec box_cardinality (b : Qgm.box) : float =
  match b.Qgm.kind with
  | Qgm.Base t -> float_of_int (max 1 (Relcore.Base_table.cardinality t))
  | Qgm.Union ->
    List.fold_left
      (fun acc q -> acc +. box_cardinality q.Qgm.over)
      0.0 b.Qgm.quants
  | Qgm.Select | Qgm.Group ->
    let inputs =
      List.filter (fun q -> q.Qgm.qkind = Qgm.F) b.Qgm.quants
      |> List.map (fun q -> box_cardinality q.Qgm.over)
    in
    let cross = List.fold_left ( *. ) 1.0 inputs in
    let resolve qid =
      Option.map (fun q -> q.Qgm.over) (Qgm.find_quant b qid)
    in
    let sel =
      List.fold_left
        (fun acc p -> acc *. pred_selectivity ~resolve p)
        1.0 b.Qgm.preds
    in
    (* each equi-join predicate scales roughly by 1/max-side *)
    let card = max 1.0 (cross *. sel) in
    let card =
      if b.Qgm.kind = Qgm.Group then
        (* groups: assume square-root shrinkage *)
        max 1.0 (Float.sqrt card)
      else card
    in
    if b.Qgm.distinct then max 1.0 (card *. 0.8) else card

(** Estimated cardinality of joining a set of quantifiers with the given
    applicable predicates. *)
let join_cardinality ?resolve (cards : float list) (preds : Qgm.bpred list) :
    float =
  let cross = List.fold_left ( *. ) 1.0 cards in
  let sel =
    List.fold_left (fun acc p -> acc *. pred_selectivity ?resolve p) 1.0 preds
  in
  max 1.0 (cross *. sel)
