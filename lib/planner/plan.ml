(** Query execution plans (QEPs) — the output of plan optimization and
    refinement (Fig. 2), interpreted by the query evaluation system.

    Tuples flow bottom-up through demand-driven iterators ("table
    queues").  Scalars reference columns positionally; [P_param] reaches
    into enclosing tuples for correlated subplans (the naive existential
    evaluation strategy of Sect. 3.2). *)

open Relcore
module Ast = Sqlkit.Ast

type scalar =
  | P_col of int (* column of the current tuple *)
  | P_param of int * int (* (frames up, column): correlated reference *)
  | P_const of Value.t
  | P_bop of Ast.binop * scalar * scalar
  | P_neg of scalar
  | P_fn of string * scalar list (* scalar function *)

type ppred =
  | P_true
  | P_false
  | P_cmp of Ast.cmpop * scalar * scalar
  | P_and of ppred * ppred
  | P_or of ppred * ppred
  | P_not of ppred
  | P_is_null of scalar
  | P_is_not_null of scalar
  | P_like of scalar * string
  | P_exists of t (* correlated subplan probe *)
  | P_in of scalar * t

and agg_spec = { agg_fn : Ast.agg_fn; agg_arg : scalar option }

(** Planner hint for sideways information passing: attach a build-side
    join filter (Bloom + key range) to the probe scan.  [None] means the
    cost model predicts the filter would pass nearly everything and the
    executor should not bother.  Purely advisory — the relation computed
    is identical either way, so it is excluded from {!fingerprint}. *)
and jfilter = { jf_pass_est : float  (** estimated probe-key pass rate *) }

and t =
  | Scan of Base_table.t
  | Values of Tuple.t list
  | Filter of t * ppred
  | Project of t * scalar array
  | Nl_join of { outer : t; inner : t; cond : ppred }
  | Hash_join of {
      build : t; (* right side, materialized into a hash table *)
      probe : t; (* left side, streamed *)
      build_keys : scalar list; (* over build tuples *)
      probe_keys : scalar list; (* over probe tuples *)
      residual : ppred; (* over concat (probe, build) *)
      jfilter : jfilter option; (* sideways-information-passing hint *)
    }
  | Index_join of {
      outer : t;
      table : Base_table.t;
      index : Index.t;
      keys : scalar list; (* over outer tuples *)
      residual : ppred; (* over concat (outer, inner row) *)
    }
  | Distinct of t
  | Aggregate of { input : t; keys : scalar list; aggs : agg_spec list }
      (** output layout: keys then aggregates *)
  | Sort of t * (int * [ `Asc | `Desc ]) list
  | Limit of t * int
  | Union_all of t list
  | Shared of int * t
      (** materialize-once common subexpression, keyed by QGM box id *)

(** A compiled query: plan, output schema for presentation, and the
    planner's estimated output rows for the nodes it costed, keyed by
    physical identity.  The estimates stay out of [t], so they never
    reach {!fingerprint} or a cache key. *)
type compiled = { plan : t; out_schema : Schema.t; est : (t * float) list }

(** The planner's row estimate for node [p] of [c]; [None] when the
    planner emitted the node without costing it. *)
let estimate (c : compiled) (p : t) : float option =
  List.find_map (fun (n, rows) -> if n == p then Some rows else None) c.est

(* -- pretty-printing (EXPLAIN) ---------------------------------------- *)

let rec scalar_to_string = function
  | P_col i -> Printf.sprintf "$%d" i
  | P_param (lvl, i) -> Printf.sprintf "outer[%d].$%d" lvl i
  | P_const v -> Value.to_literal v
  | P_bop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (scalar_to_string a)
      (Sqlkit.Pretty.binop_str op) (scalar_to_string b)
  | P_neg a -> "(-" ^ scalar_to_string a ^ ")"
  | P_fn (name, args) ->
    Printf.sprintf "%s(%s)" name
      (String.concat ", " (List.map scalar_to_string args))

let rec ppred_to_string = function
  | P_true -> "true"
  | P_false -> "false"
  | P_cmp (op, a, b) ->
    Printf.sprintf "%s %s %s" (scalar_to_string a)
      (Sqlkit.Pretty.cmpop_str op) (scalar_to_string b)
  | P_and (a, b) ->
    Printf.sprintf "(%s AND %s)" (ppred_to_string a) (ppred_to_string b)
  | P_or (a, b) ->
    Printf.sprintf "(%s OR %s)" (ppred_to_string a) (ppred_to_string b)
  | P_not p -> "NOT " ^ ppred_to_string p
  | P_is_null s -> scalar_to_string s ^ " IS NULL"
  | P_is_not_null s -> scalar_to_string s ^ " IS NOT NULL"
  | P_like (s, pat) -> scalar_to_string s ^ " LIKE '" ^ pat ^ "'"
  | P_exists _ -> "EXISTS(<subplan>)"
  | P_in (s, _) -> scalar_to_string s ^ " IN (<subplan>)"

(** Subplans reachable through a predicate ([EXISTS]/[IN] probes). *)
let rec pred_subplans = function
  | P_exists p | P_in (_, p) -> [ p ]
  | P_and (a, b) | P_or (a, b) -> pred_subplans a @ pred_subplans b
  | P_not p -> pred_subplans p
  | P_true | P_false | P_cmp _ | P_is_null _ | P_is_not_null _ | P_like _ -> []

(** The one-line head of a node in EXPLAIN output (no children, no
    indentation) — shared by {!explain} and the EXPLAIN ANALYZE
    renderer, so both always print the same operator labels. *)
let node_line = function
  | Scan t ->
    Printf.sprintf "Scan %s (card=%d)" (Base_table.name t)
      (Base_table.cardinality t)
  | Values rows -> Printf.sprintf "Values (%d rows)" (List.length rows)
  | Filter (_, pred) -> "Filter " ^ ppred_to_string pred
  | Project (_, cols) ->
    Printf.sprintf "Project [%s]"
      (String.concat ", " (Array.to_list (Array.map scalar_to_string cols)))
  | Nl_join { cond; _ } -> "NestedLoopJoin on " ^ ppred_to_string cond
  | Hash_join { build_keys; probe_keys; residual; jfilter; _ } ->
    Printf.sprintf "HashJoin probe[%s] = build[%s]%s%s"
      (String.concat ", " (List.map scalar_to_string probe_keys))
      (String.concat ", " (List.map scalar_to_string build_keys))
      (match residual with
      | P_true -> ""
      | r -> " residual " ^ ppred_to_string r)
      (match jfilter with
      | Some { jf_pass_est } -> Printf.sprintf " jfilter(pass~%.2f)" jf_pass_est
      | None -> "")
  | Index_join { table; index; keys; residual; _ } ->
    Printf.sprintf "IndexJoin %s via %s keys [%s]%s" (Base_table.name table)
      index.Index.name
      (String.concat ", " (List.map scalar_to_string keys))
      (match residual with
      | P_true -> ""
      | r -> " residual " ^ ppred_to_string r)
  | Distinct _ -> "Distinct"
  | Aggregate { keys; aggs; _ } ->
    Printf.sprintf "Aggregate keys=[%s] aggs=[%s]"
      (String.concat ", " (List.map scalar_to_string keys))
      (String.concat ", "
         (List.map
            (fun a ->
              Sqlkit.Pretty.agg_str a.agg_fn
              ^
              match a.agg_arg with
              | Some s -> "(" ^ scalar_to_string s ^ ")"
              | None -> "(*)")
            aggs))
  | Sort (_, specs) ->
    Printf.sprintf "Sort [%s]"
      (String.concat ", "
         (List.map
            (fun (i, d) ->
              Printf.sprintf "$%d%s" i
                (match d with `Asc -> "" | `Desc -> " DESC"))
            specs))
  | Limit (_, n) -> Printf.sprintf "Limit %d" n
  | Union_all inputs -> Printf.sprintf "UnionAll (%d inputs)" (List.length inputs)
  | Shared (bid, _) -> Printf.sprintf "Shared (cse box %d)" bid

(** Direct children in EXPLAIN rendering order (including predicate
    subplans, which execute as correlated probes). *)
let children = function
  | Scan _ | Values _ -> []
  | Filter (input, pred) -> input :: pred_subplans pred
  | Project (input, _) | Distinct input | Sort (input, _) | Limit (input, _)
  | Shared (_, input) ->
    [ input ]
  | Nl_join { outer; inner; _ } -> [ outer; inner ]
  | Hash_join { build; probe; _ } -> [ probe; build ]
  | Index_join { outer; _ } -> [ outer ]
  | Aggregate { input; _ } -> [ input ]
  | Union_all inputs -> inputs

let explain (plan : t) : string =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pad = String.make (indent * 2) ' ' in
    Buffer.add_string buf (pad ^ node_line p ^ "\n");
    List.iter (go (indent + 1)) (children p)
  in
  go 0 plan;
  Buffer.contents buf

(* -- structural fingerprint (cache keys) -------------------------------- *)

(** Structural fingerprint of a plan, suitable as a cache key: two plans
    with the same fingerprint compute the same relation over the same
    base tables.  Tables are identified by {!Base_table.tid} (names can
    collide across databases); predicate subplans ([P_exists]/[P_in])
    are fingerprinted recursively; [Shared] nodes are fingerprinted by
    structure only — QGM box ids differ across compilations of the same
    query, so including them would defeat cross-query matching.  [label]
    overrides a table's label (default: its tid), for tables that are
    created afresh per compilation. *)
let fingerprint ?(label = fun t -> string_of_int (Base_table.tid t))
    (plan : t) : string =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let addf fmt = Printf.ksprintf add fmt in
  let scalars ss = add (String.concat "," (List.map scalar_to_string ss)) in
  let rec pred = function
    | P_true -> add "T"
    | P_false -> add "F"
    | P_cmp (op, a, b) ->
      addf "cmp(%s %s %s)" (scalar_to_string a) (Sqlkit.Pretty.cmpop_str op)
        (scalar_to_string b)
    | P_and (a, b) ->
      add "and(";
      pred a;
      add ",";
      pred b;
      add ")"
    | P_or (a, b) ->
      add "or(";
      pred a;
      add ",";
      pred b;
      add ")"
    | P_not p ->
      add "not(";
      pred p;
      add ")"
    | P_is_null s -> addf "isnull(%s)" (scalar_to_string s)
    | P_is_not_null s -> addf "notnull(%s)" (scalar_to_string s)
    | P_like (s, pat) -> addf "like(%s,%s)" (scalar_to_string s) pat
    | P_exists sub ->
      add "exists(";
      plan_fp sub;
      add ")"
    | P_in (s, sub) ->
      addf "in(%s," (scalar_to_string s);
      plan_fp sub;
      add ")"
  and plan_fp = function
    | Scan t -> addf "scan#%s" (label t)
    | Values rows ->
      add "values[";
      List.iter (fun r -> addf "%s;" (Tuple.to_string r)) rows;
      add "]"
    | Filter (input, p) ->
      add "filter(";
      pred p;
      add ")(";
      plan_fp input;
      add ")"
    | Project (input, cols) ->
      add "project[";
      scalars (Array.to_list cols);
      add "](";
      plan_fp input;
      add ")"
    | Nl_join { outer; inner; cond } ->
      add "nlj(";
      pred cond;
      add ")(";
      plan_fp outer;
      add ",";
      plan_fp inner;
      add ")"
    (* [jfilter] is advisory (same relation either way), so it is
       deliberately excluded from the fingerprint *)
    | Hash_join { build; probe; build_keys; probe_keys; residual; jfilter = _ }
      ->
      add "hj[";
      scalars probe_keys;
      add "=";
      scalars build_keys;
      add "](";
      pred residual;
      add ")(";
      plan_fp probe;
      add ",";
      plan_fp build;
      add ")"
    | Index_join { outer; table; index; keys; residual } ->
      addf "ij#%s/%s[" (label table) index.Index.name;
      scalars keys;
      add "](";
      pred residual;
      add ")(";
      plan_fp outer;
      add ")"
    | Distinct input ->
      add "distinct(";
      plan_fp input;
      add ")"
    | Aggregate { input; keys; aggs } ->
      add "agg[";
      scalars keys;
      add "|";
      List.iter
        (fun a ->
          add (Sqlkit.Pretty.agg_str a.agg_fn);
          (match a.agg_arg with
          | Some s -> addf "(%s)" (scalar_to_string s)
          | None -> add "(*)");
          add ";")
        aggs;
      add "](";
      plan_fp input;
      add ")"
    | Sort (input, specs) ->
      add "sort[";
      List.iter
        (fun (i, d) ->
          addf "%d%s;" i (match d with `Asc -> "a" | `Desc -> "d"))
        specs;
      add "](";
      plan_fp input;
      add ")"
    | Limit (input, n) ->
      addf "limit%d(" n;
      plan_fp input;
      add ")"
    | Union_all inputs ->
      add "union(";
      List.iter
        (fun i ->
          plan_fp i;
          add ";")
        inputs;
      add ")"
    | Shared (_bid, input) ->
      add "shared(";
      plan_fp input;
      add ")"
  in
  plan_fp plan;
  Buffer.contents buf

(** Every base table the plan (including predicate subplans) reads,
    deduplicated by tid. *)
let tables (plan : t) : Base_table.t list =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let visit t =
    let tid = Base_table.tid t in
    if not (Hashtbl.mem seen tid) then begin
      Hashtbl.add seen tid ();
      acc := t :: !acc
    end
  in
  let rec pred = function
    | P_exists sub | P_in (_, sub) -> plan_t sub
    | P_and (a, b) | P_or (a, b) ->
      pred a;
      pred b
    | P_not p -> pred p
    | P_true | P_false | P_cmp _ | P_is_null _ | P_is_not_null _ | P_like _ ->
      ()
  and plan_t = function
    | Scan t -> visit t
    | Values _ -> ()
    | Filter (input, p) ->
      plan_t input;
      pred p
    | Project (input, _) | Distinct input | Sort (input, _) | Limit (input, _)
    | Shared (_, input) ->
      plan_t input
    | Nl_join { outer; inner; cond } ->
      plan_t outer;
      plan_t inner;
      pred cond
    | Hash_join { build; probe; residual; _ } ->
      plan_t probe;
      plan_t build;
      pred residual
    | Index_join { outer; table; residual; _ } ->
      visit table;
      plan_t outer;
      pred residual
    | Aggregate { input; _ } -> plan_t input
    | Union_all inputs -> List.iter plan_t inputs
  in
  plan_t plan;
  List.rev !acc

(** Version fragment for result-cache keys: the (tid, version) pair of
    every table the plan reads.  Any DML against any of them changes the
    fragment, so stale entries simply stop being found. *)
let version_key (plan : t) : string =
  tables plan
  |> List.map (fun t ->
         Printf.sprintf "t%d:v%d" (Base_table.tid t) (Base_table.version t))
  |> String.concat ","

(** Structural statistics used by tests. *)
let rec count_nodes p =
  match p with
  | Scan _ | Values _ -> 1
  | Filter (i, _) | Project (i, _) | Distinct i | Sort (i, _) | Limit (i, _)
  | Shared (_, i) ->
    1 + count_nodes i
  | Nl_join { outer; inner; _ } -> 1 + count_nodes outer + count_nodes inner
  | Hash_join { build; probe; _ } -> 1 + count_nodes build + count_nodes probe
  | Index_join { outer; _ } -> 1 + count_nodes outer
  | Aggregate { input; _ } -> 1 + count_nodes input
  | Union_all inputs -> List.fold_left (fun a i -> a + count_nodes i) 1 inputs
