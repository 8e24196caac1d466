(** Reference tuple-at-a-time interpreter — the pre-batching evaluation
    strategy, kept verbatim as the differential-testing oracle for the
    batched executor in {!Exec}.  Every operator passes one
    [Tuple.t option] per closure call.

    It shares {!Exec.ctx} (and therefore the [Shared]-node cache, stored
    as batch lists) so both executors can be pointed at the same
    context. *)

open Relcore
open Executor
module Plan = Optimizer.Plan

type ctx = Exec.ctx

let make_ctx = Exec.make_ctx

type iter = unit -> Tuple.t option

let iter_of_list (rows : Tuple.t list) : iter =
  let rest = ref rows in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
      rest := tl;
      Some r

let iter_of_array (rows : Tuple.t array) : iter =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length rows then None
    else begin
      let r = rows.(!i) in
      incr i;
      Some r
    end

let drain (it : iter) : Tuple.t list =
  let rec go acc = match it () with None -> List.rev acc | Some t -> go (t :: acc) in
  go []

let rec open_plan (ctx : ctx) (frames : Eval.frames) (p : Plan.t) : iter =
  match p with
  | Plan.Scan t ->
    let scan = Base_table.scan t in
    fun () ->
      (match scan () with
      | Some (_rid, tuple) ->
        ctx.Exec.rows_scanned <- ctx.Exec.rows_scanned + 1;
        Some tuple
      | None -> None)
  | Plan.Values rows -> iter_of_list rows
  | Plan.Filter (input, pred) ->
    let it = open_plan ctx frames input in
    let rec next () =
      match it () with
      | None -> None
      | Some t ->
        if eval_pred ctx frames t pred = Some true then Some t else next ()
    in
    next
  | Plan.Project (input, cols) ->
    let it = open_plan ctx frames input in
    fun () ->
      (match it () with
      | None -> None
      | Some t -> Some (Array.map (Eval.scalar frames t) cols))
  | Plan.Nl_join { outer; inner; cond } ->
    let outer_it = open_plan ctx frames outer in
    let inner_rows = lazy (Array.of_list (drain (open_plan ctx frames inner))) in
    let cur_outer = ref None and inner_pos = ref 0 in
    let rec next () =
      match !cur_outer with
      | None -> begin
        match outer_it () with
        | None -> None
        | Some o ->
          cur_outer := Some o;
          inner_pos := 0;
          next ()
      end
      | Some o ->
        let rows = Lazy.force inner_rows in
        if !inner_pos >= Array.length rows then begin
          cur_outer := None;
          next ()
        end
        else begin
          let i = rows.(!inner_pos) in
          incr inner_pos;
          let t = Tuple.concat o i in
          if eval_pred ctx frames t cond = Some true then Some t else next ()
        end
    in
    next
  | Plan.Hash_join { build; probe; build_keys; probe_keys; residual; jfilter = _ }
    ->
    let table =
      lazy
        (let tbl = Tuple.Tbl.create 256 in
         let it = open_plan ctx frames build in
         let rec fill () =
           match it () with
           | None -> ()
           | Some row ->
             let key =
               Array.of_list (List.map (Eval.scalar frames row) build_keys)
             in
             if not (Array.exists Value.is_null key) then begin
               let prev =
                 Option.value (Tuple.Tbl.find_opt tbl key) ~default:[]
               in
               Tuple.Tbl.replace tbl key (row :: prev)
             end;
             fill ()
         in
         fill ();
         tbl)
    in
    let probe_it = open_plan ctx frames probe in
    let matches = ref [] and cur_probe = ref [||] in
    let rec next () =
      match !matches with
      | m :: rest ->
        matches := rest;
        let t = Tuple.concat !cur_probe m in
        if eval_pred ctx frames t residual = Some true then Some t else next ()
      | [] -> begin
        match probe_it () with
        | None -> None
        | Some row ->
          let key =
            Array.of_list (List.map (Eval.scalar frames row) probe_keys)
          in
          if Array.exists Value.is_null key then next ()
          else begin
            cur_probe := row;
            matches :=
              Option.value (Tuple.Tbl.find_opt (Lazy.force table) key) ~default:[];
            next ()
          end
      end
    in
    next
  | Plan.Index_join { outer; table; index; keys; residual } ->
    let outer_it = open_plan ctx frames outer in
    let matches = ref [] and cur_outer = ref [||] in
    let rec next () =
      match !matches with
      | rid :: rest -> begin
        matches := rest;
        match Base_table.get table rid with
        | None -> next ()
        | Some row ->
          ctx.Exec.rows_scanned <- ctx.Exec.rows_scanned + 1;
          let t = Tuple.concat !cur_outer row in
          if eval_pred ctx frames t residual = Some true then Some t else next ()
      end
      | [] -> begin
        match outer_it () with
        | None -> None
        | Some row ->
          let key = Array.of_list (List.map (Eval.scalar frames row) keys) in
          if Array.exists Value.is_null key then next ()
          else begin
            cur_outer := row;
            matches := Index.lookup index key;
            next ()
          end
      end
    in
    next
  | Plan.Distinct input ->
    let it = open_plan ctx frames input in
    let seen = Tuple.Tbl.create 256 in
    let rec next () =
      match it () with
      | None -> None
      | Some t ->
        if Tuple.Tbl.mem seen t then next ()
        else begin
          Tuple.Tbl.add seen t ();
          Some t
        end
    in
    next
  | Plan.Aggregate { input; keys; aggs } ->
    let result =
      lazy
        (let it = open_plan ctx frames input in
         let groups = Tuple.Tbl.create 64 in
         let order = ref [] in
         let rec fill () =
           match it () with
           | None -> ()
           | Some row ->
             let key = Array.of_list (List.map (Eval.scalar frames row) keys) in
             let accs =
               match Tuple.Tbl.find_opt groups key with
               | Some accs -> accs
               | None ->
                 let accs = Array.map (fun a -> Agg_acc.create a.Plan.agg_fn) (Array.of_list aggs) in
                 Tuple.Tbl.add groups key accs;
                 order := key :: !order;
                 accs
             in
             List.iteri
               (fun i (a : Plan.agg_spec) ->
                 let v =
                   match a.Plan.agg_arg with
                   | Some s -> Eval.scalar frames row s
                   | None -> Value.Int 1
                 in
                 Agg_acc.add accs.(i) v)
               aggs;
             fill ()
         in
         fill ();
         let emit key =
           let accs = Tuple.Tbl.find groups key in
           Tuple.concat key (Array.map Agg_acc.result accs)
         in
         if Tuple.Tbl.length groups = 0 && keys = [] then
           [ Array.of_list
               (List.map (fun a -> Agg_acc.empty_result a.Plan.agg_fn) aggs) ]
         else List.rev_map emit !order)
    in
    let it = ref None in
    fun () ->
      (match !it with
      | Some i -> i ()
      | None ->
        let i = iter_of_list (Lazy.force result) in
        it := Some i;
        i ())
  | Plan.Sort (input, specs) ->
    let sorted =
      lazy
        (let rows = Array.of_list (drain (open_plan ctx frames input)) in
         let cmp a b =
           let rec go = function
             | [] -> 0
             | (i, dir) :: rest ->
               let c = Value.compare a.(i) b.(i) in
               let c = match dir with `Asc -> c | `Desc -> -c in
               if c <> 0 then c else go rest
           in
           go specs
         in
         Array.stable_sort cmp rows;
         rows)
    in
    let pos = ref 0 in
    fun () ->
      let rows = Lazy.force sorted in
      if !pos >= Array.length rows then None
      else begin
        let r = rows.(!pos) in
        incr pos;
        Some r
      end
  | Plan.Limit (input, n) ->
    let it = open_plan ctx frames input in
    let count = ref 0 in
    fun () ->
      if !count >= n then None
      else begin
        incr count;
        it ()
      end
  | Plan.Union_all inputs ->
    let remaining = ref inputs and cur = ref (fun () -> None) in
    let rec next () =
      match !cur () with
      | Some t -> Some t
      | None -> begin
        match !remaining with
        | [] -> None
        | p :: rest ->
          remaining := rest;
          cur := open_plan ctx frames p;
          next ()
      end
    in
    next
  | Plan.Shared (bid, input) -> begin
    match Hashtbl.find_opt ctx.Exec.shared bid with
    | Some bs -> iter_of_list (Batch.list_to_rows bs)
    | None ->
      let rows = drain (open_plan ctx frames input) in
      ctx.Exec.materializations <- ctx.Exec.materializations + 1;
      Hashtbl.replace ctx.Exec.shared bid (Batch.of_list rows);
      iter_of_list rows
  end

and eval_pred ctx (frames : Eval.frames) (tuple : Tuple.t) (p : Plan.ppred) :
    bool option =
  match p with
  | Plan.P_true -> Some true
  | Plan.P_false -> Some false
  | Plan.P_cmp (op, a, b) ->
    Eval.compare3 op (Eval.scalar frames tuple a) (Eval.scalar frames tuple b)
  | Plan.P_and (a, b) ->
    Eval.and3 (eval_pred ctx frames tuple a) (eval_pred ctx frames tuple b)
  | Plan.P_or (a, b) ->
    Eval.or3 (eval_pred ctx frames tuple a) (eval_pred ctx frames tuple b)
  | Plan.P_not a -> Eval.not3 (eval_pred ctx frames tuple a)
  | Plan.P_is_null s -> Some (Value.is_null (Eval.scalar frames tuple s))
  | Plan.P_is_not_null s -> Some (not (Value.is_null (Eval.scalar frames tuple s)))
  | Plan.P_like (s, pat) -> begin
    match Eval.scalar frames tuple s with
    | Value.Null -> None
    | Value.Str str -> Some (Eval.like_match ~pattern:pat str)
    | v -> Errors.type_error "LIKE on non-string %s" (Value.to_string v)
  end
  | Plan.P_exists sub ->
    ctx.Exec.subqueries_run <- ctx.Exec.subqueries_run + 1;
    let it = open_plan ctx (tuple :: frames) sub in
    Some (it () <> None)
  | Plan.P_in (s, sub) -> begin
    let v = Eval.scalar frames tuple s in
    ctx.Exec.subqueries_run <- ctx.Exec.subqueries_run + 1;
    let it = open_plan ctx (tuple :: frames) sub in
    let saw_null = ref false in
    let rec go () =
      match it () with
      | None -> if Value.is_null v || !saw_null then None else Some false
      | Some row ->
        let w = row.(0) in
        if Value.is_null w || Value.is_null v then begin
          saw_null := true;
          go ()
        end
        else if Value.compare v w = 0 then Some true
        else go ()
    in
    go ()
  end

(** Run a compiled plan to completion, one tuple at a time. *)
let run ?(ctx = make_ctx ()) (c : Plan.compiled) : Tuple.t list =
  drain (open_plan ctx [] c.Plan.plan)

(** Open a compiled plan as a demand-driven cursor. *)
let cursor ?(ctx = make_ctx ()) (c : Plan.compiled) : iter =
  open_plan ctx [] c.Plan.plan
