(** Scalar and predicate evaluation with SQL three-valued logic. *)

open Relcore
module Ast = Sqlkit.Ast
module Plan = Optimizer.Plan

(** Correlation frames: enclosing tuples, innermost first. *)
type frames = Tuple.t list

let frame_get (frames : frames) lvl i =
  match List.nth_opt frames lvl with
  | Some t when i < Array.length t -> t.(i)
  | _ -> Errors.execution_error "dangling correlated reference (%d, %d)" lvl i

let arith op (a : Value.t) (b : Value.t) : Value.t =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    match a, b with
    | Value.Int x, Value.Int y -> begin
      match op with
      | Ast.Add -> Value.Int (x + y)
      | Ast.Sub -> Value.Int (x - y)
      | Ast.Mul -> Value.Int (x * y)
      | Ast.Div ->
        if y = 0 then Errors.execution_error "division by zero"
        else Value.Int (x / y)
      | Ast.Mod ->
        if y = 0 then Errors.execution_error "modulo by zero"
        else Value.Int (x mod y)
    end
    | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> begin
      let x = Value.as_float a and y = Value.as_float b in
      match op with
      | Ast.Add -> Value.Float (x +. y)
      | Ast.Sub -> Value.Float (x -. y)
      | Ast.Mul -> Value.Float (x *. y)
      | Ast.Div ->
        if y = 0.0 then Errors.execution_error "division by zero"
        else Value.Float (x /. y)
      | Ast.Mod -> Errors.type_error "MOD requires integers"
    end
    | Value.Str x, Value.Str y when op = Ast.Add ->
      (* string concatenation via + *)
      Value.Str (x ^ y)
    | _ ->
      Errors.type_error "arithmetic on %s and %s" (Value.to_string a)
        (Value.to_string b)

let negate = function
  | Value.Null -> Value.Null
  | Value.Int x -> Value.Int (-x)
  | Value.Float x -> Value.Float (-.x)
  | v -> Errors.type_error "cannot negate %s" (Value.to_string v)

(** Scalar function dispatch (null-propagating except COALESCE). *)
let apply_fn name (args : Value.t list) : Value.t =
  match name, args with
  | "coalesce", args ->
    (try List.find (fun v -> not (Value.is_null v)) args
     with Not_found -> Value.Null)
  | _, args when List.exists Value.is_null args -> Value.Null
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | "trim", [ Value.Str s ] -> Value.Str (String.trim s)
  | "length", [ Value.Str s ] -> Value.Int (String.length s)
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "substr", [ Value.Str s; Value.Int start ] ->
    (* 1-based start, to end of string *)
    let off = max 0 (start - 1) in
    Value.Str
      (if off >= String.length s then ""
       else String.sub s off (String.length s - off))
  | "substr", [ Value.Str s; Value.Int start; Value.Int len ] ->
    let off = max 0 (start - 1) in
    let len = max 0 (min len (String.length s - off)) in
    Value.Str (if off >= String.length s then "" else String.sub s off len)
  | _ ->
    Errors.type_error "bad arguments to %s(%s)" name
      (String.concat ", " (List.map Value.to_string args))

let rec scalar (frames : frames) (tuple : Tuple.t) (s : Plan.scalar) : Value.t =
  match s with
  | Plan.P_col i ->
    if i < Array.length tuple then tuple.(i)
    else Errors.execution_error "column %d out of range (width %d)" i (Array.length tuple)
  | Plan.P_param (lvl, i) -> frame_get frames lvl i
  | Plan.P_const v -> v
  | Plan.P_bop (op, a, b) -> arith op (scalar frames tuple a) (scalar frames tuple b)
  | Plan.P_neg a -> negate (scalar frames tuple a)
  | Plan.P_fn (name, args) ->
    apply_fn name (List.map (scalar frames tuple) args)

(* -- compiled (closure-specialized) evaluation --------------------------- *)

(** Compile a scalar once into a closure so the per-row loop pays no AST
    dispatch — the amortization that batch-at-a-time execution buys. *)
let rec compile_scalar_fn (s : Plan.scalar) : frames -> Tuple.t -> Value.t =
  match s with
  | Plan.P_col i ->
    fun _ tuple ->
      if i < Array.length tuple then tuple.(i)
      else
        Errors.execution_error "column %d out of range (width %d)" i
          (Array.length tuple)
  | Plan.P_param (lvl, i) -> fun frames _ -> frame_get frames lvl i
  | Plan.P_const v -> fun _ _ -> v
  | Plan.P_bop (op, a, b) ->
    let fa = compile_scalar_fn a and fb = compile_scalar_fn b in
    fun frames tuple -> arith op (fa frames tuple) (fb frames tuple)
  | Plan.P_neg a ->
    let fa = compile_scalar_fn a in
    fun frames tuple -> negate (fa frames tuple)
  | Plan.P_fn (name, args) ->
    let fs = List.map compile_scalar_fn args in
    fun frames tuple -> apply_fn name (List.map (fun f -> f frames tuple) fs)

(** SQL LIKE with [%] and [_] wildcards. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pattern index, string index) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then si = ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let compare3 op (a : Value.t) (b : Value.t) : bool option =
  match Value.sql_compare a b with
  | None -> None
  | Some c ->
    Some
      (match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let and3 a b =
  match a, b with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

let or3 a b =
  match a, b with
  | Some true, _ | _, Some true -> Some true
  | Some false, Some false -> Some false
  | _ -> None

let not3 = Option.map not

(** Compile a predicate with no subplan probes into a closure.  Returns
    [None] when the predicate contains [P_exists]/[P_in] (those need the
    executor's plan opener and stay tuple-at-a-time). *)
let compile_pred_pure (p : Plan.ppred) :
    (frames -> Tuple.t -> bool option) option =
  let exception Has_subplan in
  let rec go (p : Plan.ppred) : frames -> Tuple.t -> bool option =
    match p with
    | Plan.P_true -> fun _ _ -> Some true
    | Plan.P_false -> fun _ _ -> Some false
    | Plan.P_cmp (op, a, b) ->
      let fa = compile_scalar_fn a and fb = compile_scalar_fn b in
      fun frames t -> compare3 op (fa frames t) (fb frames t)
    | Plan.P_and (a, b) ->
      let fa = go a and fb = go b in
      fun frames t -> and3 (fa frames t) (fb frames t)
    | Plan.P_or (a, b) ->
      let fa = go a and fb = go b in
      fun frames t -> or3 (fa frames t) (fb frames t)
    | Plan.P_not a ->
      let fa = go a in
      fun frames t -> not3 (fa frames t)
    | Plan.P_is_null s ->
      let fs = compile_scalar_fn s in
      fun frames t -> Some (Value.is_null (fs frames t))
    | Plan.P_is_not_null s ->
      let fs = compile_scalar_fn s in
      fun frames t -> Some (not (Value.is_null (fs frames t)))
    | Plan.P_like (s, pat) ->
      let fs = compile_scalar_fn s in
      fun frames t -> begin
        match fs frames t with
        | Value.Null -> None
        | Value.Str str -> Some (like_match ~pattern:pat str)
        | v -> Errors.type_error "LIKE on non-string %s" (Value.to_string v)
      end
    | Plan.P_exists _ | Plan.P_in _ -> raise Has_subplan
  in
  match go p with f -> Some f | exception Has_subplan -> None

(* -- batch entry points -------------------------------------------------- *)

(** Refine [b]'s selection in place, keeping rows where [test] yields
    [Some true] (SQL semantics: unknown drops the row). *)
let select_batch (frames : frames) (b : Batch.t)
    (test : frames -> Tuple.t -> bool option) : unit =
  Batch.refine b (fun row ->
      match test frames row with Some true -> true | Some false | None -> false)

(** Compile a projection once (operator open time); the returned closure
    maps each batch through it — the vectorized [Project] body. *)
let compile_project (cols : Plan.scalar array) : frames -> Batch.t -> Batch.t =
  let fs = Array.map compile_scalar_fn cols in
  let n = Array.length fs in
  fun frames b ->
    Batch.map b (fun row ->
        let out = Array.make n Value.Null in
        for k = 0 to n - 1 do
          out.(k) <- fs.(k) frames row
        done;
        out)
