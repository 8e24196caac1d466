(** Per-operator execution statistics for EXPLAIN ANALYZE.

    Every node of a plan (including correlated predicate subplans) gets
    a stable id by preorder numbering; the executors record wall time,
    rows and batches against those ids while the query runs.  Times are
    {e inclusive} (an operator's clock includes its children, as in
    PostgreSQL's EXPLAIN ANALYZE); rows are the operator's {e output}
    rows, counted after selection vectors are applied, so the child
    row count of a pipeline is exactly its parent's input.

    The executor ({!Exec}) mutates the accumulator directly, on the
    domain that runs the query. *)

module Plan = Optimizer.Plan

type op = {
  id : int;
  node : Plan.t;  (** the physical plan node (identity is the key) *)
  depth : int;  (** indentation level under its section root *)
  section : int;  (** which [create] root this op belongs to *)
  est : float option;
      (** the planner's estimated output rows; [None] where it emitted
          the node without costing it *)
  mutable opens : int;  (** times the operator was opened (loops) *)
  mutable rows : int;  (** output rows across all opens *)
  mutable batches : int;  (** output batches across all opens *)
  mutable wall : float;  (** inclusive wall seconds across all opens *)
}

type t = {
  sections : (string * Plan.t) array;  (** named roots, render order *)
  ops : op array;  (** preorder over all sections *)
  mutable total_wall : float;  (** whole-statement wall seconds *)
}

let now = Unix.gettimeofday

(* -- construction --------------------------------------------------------- *)

let create (sections : (string * Plan.compiled) list) : t =
  let acc = ref [] in
  let n = ref 0 in
  let rec number c section depth p =
    let op =
      {
        id = !n;
        node = p;
        depth;
        section;
        est = Plan.estimate c p;
        opens = 0;
        rows = 0;
        batches = 0;
        wall = 0.0;
      }
    in
    incr n;
    acc := op :: !acc;
    List.iter (number c section (depth + 1)) (Plan.children p)
  in
  List.iteri (fun s (_, (c : Plan.compiled)) -> number c s 0 c.plan) sections;
  {
    sections = Array.of_list (List.map (fun (n, c) -> (n, c.Plan.plan)) sections);
    ops = Array.of_list (List.rev !acc);
    total_wall = 0.0;
  }

let create1 (c : Plan.compiled) : t = create [ ("", c) ]
let count (t : t) = Array.length t.ops

(** Id of a physical plan node; [-1] for nodes outside the numbered
    tree (a plan the accumulator was not created over).
    Linear scan on physical identity — plans are tens of nodes. *)
let id_of (t : t) (p : Plan.t) : int =
  let n = Array.length t.ops in
  let rec go i =
    if i >= n then -1 else if t.ops.(i).node == p then i else go (i + 1)
  in
  go 0

(* -- recording (serial executor: single-domain mutation) ------------------ *)

let note_open (t : t) id dt =
  let op = t.ops.(id) in
  op.opens <- op.opens + 1;
  op.wall <- op.wall +. dt

let add_batch (t : t) id ~dt ~rows =
  let op = t.ops.(id) in
  op.rows <- op.rows + rows;
  op.batches <- op.batches + 1;
  op.wall <- op.wall +. dt

let add_time (t : t) id dt =
  let op = t.ops.(id) in
  op.wall <- op.wall +. dt

(* -- reporting ------------------------------------------------------------ *)

(** q-error of an operator's row estimate: max(est/act, act/est), both
    sides floored at one row so empty results stay finite; [None] for an
    unestimated operator. *)
let q_error (op : op) : float option =
  Option.map
    (fun est ->
      let e = Float.max 1.0 est and a = Float.max 1.0 (float_of_int op.rows) in
      Float.max (e /. a) (a /. e))
    op.est

(** The opened, estimated operator with the worst q-error, if that
    estimate was off by more than 2x. *)
let worst_estimate (t : t) : op option =
  Array.fold_left
    (fun acc op ->
      match (q_error op, acc) with
      | Some q, Some (_, worst) when op.opens > 0 && q > worst -> Some (op, q)
      | Some q, None when op.opens > 0 && q > 2.0 -> Some (op, q)
      | _ -> acc)
    None t.ops
  |> Option.map fst

let est_str (op : op) =
  match op.est with Some e -> Printf.sprintf "%.0f" e | None -> "?"

let fmt_ms s =
  if s < 0.000_1 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let render (t : t) : string =
  let buf = Buffer.create 512 in
  let worst = worst_estimate t in
  Array.iteri
    (fun s (name, _) ->
      if name <> "" then Buffer.add_string buf (Printf.sprintf "-- %s --\n" name);
      Array.iter
        (fun op ->
          if op.section = s then begin
            Buffer.add_string buf (String.make (op.depth * 2) ' ');
            Buffer.add_string buf (Plan.node_line op.node);
            if op.opens = 0 then
              Buffer.add_string buf
                (Printf.sprintf "  (est=%s never opened: fused or cached)"
                   (est_str op))
            else begin
              Buffer.add_string buf
                (Printf.sprintf "  (est=%s act=%d%s time=%s" (est_str op)
                   op.rows
                   (match q_error op with
                   | Some q -> Printf.sprintf " q=%.2f" q
                   | None -> "")
                   (fmt_ms op.wall));
              if op.batches > 0 then
                Buffer.add_string buf (Printf.sprintf " batches=%d" op.batches);
              if op.opens > 1 then
                Buffer.add_string buf (Printf.sprintf " loops=%d" op.opens);
              Buffer.add_string buf ")";
              match worst with
              | Some w when w == op -> Buffer.add_string buf "  <- worst estimate"
              | _ -> ()
            end;
            Buffer.add_char buf '\n'
          end)
        t.ops)
    t.sections;
  (match worst with
  | Some w ->
    Buffer.add_string buf
      (Printf.sprintf "worst estimate: %s (est=%s act=%d q-error=%.1f)\n"
         (Plan.node_line w.node) (est_str w) w.rows
         (Option.get (q_error w)))
  | None -> Buffer.add_string buf "estimates within 2x of actuals\n");
  if t.total_wall > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "total time: %s\n" (fmt_ms t.total_wall));
  Buffer.contents buf
