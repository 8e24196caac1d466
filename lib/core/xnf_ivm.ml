(** Carrying cached CO streams across DML, for recursive and
    non-recursive COs alike.

    An extraction through the result cache stores one entry under the
    CO's structural key ({!key}): the stream, the version of every base
    table it read, and each node component's full-row -> tuple-id map,
    which assembly and the fixpoint build anyway.  A read at the stored
    versions is a hit.  A read after DML carries the entry forward when
    every change logged since is an update of columns the CO reads only
    as values ({!analyse_reads}).  Such an update cannot move a tuple
    into or out of the CO, reorder a component or touch a connection,
    so the patch moves each updated row's tuple id to its new value and
    rebuilds only those rows' items; the item list is re-consed up to
    the last changed row and its tail is shared.  Anything else
    (inserts, deletes, structural updates, a delta-log overflow or a
    rollback hole) recomputes. *)

open Relcore
module Qgm = Starq.Qgm
module Plan = Optimizer.Plan

type stats = {
  mutable hits : int; (* served at the stored versions *)
  mutable patches : int; (* served by patching the stored stream *)
  mutable recomputes : int; (* executor or fixpoint runs *)
}

let stats = { hits = 0; patches = 0; recomputes = 0 }

(** Zero {!stats}.  Entries live in the result cache: clearing it drops
    them. *)
let reset () =
  stats.hits <- 0;
  stats.patches <- 0;
  stats.recomputes <- 0

(** Count one recomputation and run it: for reads that bypass the
    cache. *)
let recompute (compute : unit -> Hetstream.t * (string * Tid_map.t) list) =
  stats.recomputes <- stats.recomputes + 1;
  compute ()

(* -- structural reads ------------------------------------------------- *)

(* What a CO reads of each base table: the columns it reads
   structurally — in a predicate, join or recursion condition, a
   DISTINCT or GROUP key, a relationship attribute, or the head of a
   node component that is not a plain filtered copy of one base table —
   and the node components that are such copies.  A value-only update
   of the other columns changes no component's membership, order or
   connection: it only changes the values of the copies' rows.  No sort
   key needs marking: components are compiled as boxes, and ORDER BY
   and LIMIT live only on a query graph's top. *)
type reads = {
  structural : (int * bool array) list; (* tid -> per-column flag *)
  copies : (string * Base_table.t) list; (* identity node components *)
}

let analyse_reads (op : Xnf_semantic.xnf_op) : reads =
  (* a relationship's parent quantifier is retargeted (to the derived
     parent table, or to a fixpoint step's delta table): read through
     it as the parent component *)
  let parent_of =
    List.map
      (fun (_, (r : Xnf_semantic.relbox)) ->
        ( r.Xnf_semantic.rparent_quant.Qgm.qid,
          Option.get (Xnf_semantic.find_node op r.Xnf_semantic.rparent) ))
      op.Xnf_semantic.rel_boxes
  in
  let over (q : Qgm.quant) =
    Option.value (List.assoc_opt q.Qgm.qid parent_of) ~default:q.Qgm.over
  in
  let boxes = Hashtbl.create 32 and qbox = Hashtbl.create 32 in
  let rec visit (b : Qgm.box) =
    if not (Hashtbl.mem boxes b.Qgm.bid) then begin
      Hashtbl.add boxes b.Qgm.bid b;
      List.iter
        (fun q ->
          Hashtbl.replace qbox q.Qgm.qid (over q);
          visit (over q))
        b.Qgm.quants;
      List.iter (fun p -> List.iter visit (Qgm.pred_subqueries p)) b.Qgm.preds
    end
  in
  List.iter (fun (_, b) -> visit b) op.Xnf_semantic.node_boxes;
  List.iter
    (fun (_, (r : Xnf_semantic.relbox)) -> visit r.Xnf_semantic.rbox)
    op.Xnf_semantic.rel_boxes;
  let cols = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      match b.Qgm.kind with
      | Qgm.Base t ->
        Hashtbl.replace cols (Base_table.tid t)
          (Array.make (Array.length b.Qgm.head) false)
      | Qgm.Select | Qgm.Group | Qgm.Union -> ())
    boxes;
  let marked = Hashtbl.create 64 in
  let rec mark (b : Qgm.box) i =
    if not (Hashtbl.mem marked (b.Qgm.bid, i)) then begin
      Hashtbl.add marked (b.Qgm.bid, i) ();
      match b.Qgm.kind with
      | Qgm.Base t -> (Hashtbl.find cols (Base_table.tid t)).(i) <- true
      | Qgm.Select | Qgm.Group -> Qgm.iter_bexpr on_col b.Qgm.head.(i).Qgm.hexpr
      | Qgm.Union -> List.iter (fun q -> mark (over q) i) b.Qgm.quants
    end
  (* every quantifier a reference can name belongs to a visited box *)
  and on_col = function Qgm.Qcol (q, i) -> mark (Hashtbl.find qbox q) i | _ -> () in
  let mark_all (b : Qgm.box) = Array.iteri (fun i _ -> mark b i) b.Qgm.head in
  Hashtbl.iter
    (fun _ (b : Qgm.box) ->
      List.iter
        (fun p ->
          Qgm.iter_bpred_exprs on_col p;
          List.iter mark_all (Qgm.pred_subqueries p))
        b.Qgm.preds;
      List.iter (Qgm.iter_bexpr on_col) b.Qgm.group_by;
      if b.Qgm.distinct then mark_all b)
    boxes;
  List.iter
    (fun (_, (r : Xnf_semantic.relbox)) ->
      let off, w = r.Xnf_semantic.rattr_span in
      for i = off to off + w - 1 do
        mark r.Xnf_semantic.rbox i
      done)
    op.Xnf_semantic.rel_boxes;
  (* [SELECT * FROM t WHERE ...]: one F quantifier over a base table,
     every column passed through in place *)
  let copy_of (b : Qgm.box) =
    match (b.Qgm.kind, b.Qgm.quants) with
    | Qgm.Select, [ q ] when q.Qgm.qkind = Qgm.F && not b.Qgm.distinct -> (
      let src = over q in
      match src.Qgm.kind with
      | Qgm.Base t
        when Array.length b.Qgm.head = Array.length src.Qgm.head
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun i (h : Qgm.head_col) ->
                       match h.Qgm.hexpr with
                       | Qgm.Qcol (q', j) -> q' = q.Qgm.qid && j = i
                       | _ -> false)
                     b.Qgm.head) ->
        Some t
      | _ -> None)
    | _ -> None
  in
  let copies =
    List.filter_map
      (fun (name, b) ->
        match copy_of b with
        | Some t -> Some (name, t)
        | None ->
          mark_all b;
          None)
      op.Xnf_semantic.node_boxes
  in
  { structural = Hashtbl.fold (fun tid flags acc -> (tid, flags) :: acc) cols []; copies }

(* -- structural key ----------------------------------------------------- *)

(** A CO's identity across DML: stream layout, relationship spans and
    the fingerprint of every plan its stream is computed from ([label]
    names the tables in them; default: their tids).  Equal for every
    compilation of the same CO over the same tables and plans. *)
let key ?label (op : Xnf_semantic.xnf_op) (header : Hetstream.header)
    (plans : (string * Plan.compiled) list) : string =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  add "xnf|";
  add (Hetstream.header_key header);
  let span (o, w) = Printf.sprintf "%d+%d" o w in
  List.iter
    (fun (name, (r : Xnf_semantic.relbox)) ->
      add
        (Printf.sprintf "|%s@%s/%s/%s" name
           (span r.Xnf_semantic.rparent_span)
           (String.concat ","
              (List.map (fun (ch, s) -> ch ^ "@" ^ span s) r.Xnf_semantic.rchild_spans))
           (span r.Xnf_semantic.rattr_span)))
    op.Xnf_semantic.rel_boxes;
  List.iter
    (fun (name, (p : Plan.compiled)) ->
      add (Printf.sprintf "|%s=%s" name (Plan.fingerprint ?label p.Plan.plan)))
    plans;
  Buffer.contents buf

(* -- the cached entry and its patch ------------------------------------ *)

(* The last stream stored under a structural key, with what a patch
   needs to carry it forward. *)
type last = {
  versions : (Base_table.t * int) list; (* base-table versions it reflects *)
  stream : Hetstream.t;
  maps : (string * Tid_map.t) list; (* node -> full row -> tuple id *)
  bytes : int;
}

exception Cached of last
(** {!Executor.Result_cache} payload constructor for CO streams. *)

exception Recompute

(* [items] with the rows of [changed] (id -> new values) rebuilt; only
   the items up to the last of its [left] rows are re-consed, the rest
   is shared. *)
let[@tail_mod_cons] rec rebuild changed left (items : Hetstream.item list) =
  if left = 0 then items
  else
    match items with
    | [] -> []
    | (Hetstream.Row r as item) :: rest -> (
      match Hashtbl.find_opt changed r.id with
      | Some values ->
        Hetstream.Row { r with values } :: rebuild changed (left - 1) rest
      | None -> item :: rebuild changed left rest)
    | item :: rest -> item :: rebuild changed left rest

(* Carry [last] forward to [versions]: every change logged since is an
   update pair whose changed columns are all read as values only, and
   each updated row of a copy component moves its tuple id one-to-one
   to the new row.  Raises [Recompute] otherwise, leaving [last.maps]
   partly moved. *)
let patch (reads : reads) (last : last) (versions : (Base_table.t * int) list)
    : Hetstream.t =
  let moves = ref [] in
  List.iter
    (fun (t, v) ->
      let now =
        match List.assq_opt t versions with Some v -> v | None -> raise Recompute
      in
      let flags =
        Option.value
          (List.assoc_opt (Base_table.tid t) reads.structural)
          ~default:[||]
      in
      let rec pairs = function
        | [] -> ()
        | (v1, Heap.D_del (r1, a)) :: (v2, Heap.D_ins (r2, b)) :: rest
          when v1 = v2 && r1 = r2 && Array.length a = Array.length b ->
          Array.iteri
            (fun c x ->
              if compare x b.(c) <> 0 && (c >= Array.length flags || flags.(c))
              then raise Recompute)
            a;
          moves := (t, a, b) :: !moves;
          pairs rest
        | _ -> raise Recompute
      in
      match Base_table.deltas_since t v with
      | None -> raise Recompute
      | Some ops -> pairs (List.filter (fun (ver, _) -> ver <= now) ops))
    last.versions;
  let header = last.stream.Hetstream.header in
  let changed = Hashtbl.create 16 in
  List.iter
    (fun (t, a, b) ->
      List.iter
        (fun (name, src) ->
          if src == t then begin
            let map = List.assoc name last.maps in
            let id = Tid_map.find map a in
            let taken = Tid_map.find map b <> Tid_map.absent in
            if id <> Tid_map.absent then begin
              (* without a key another row may still hold the old value *)
              if taken || t.Base_table.primary_key = None then raise Recompute;
              Tid_map.remove map a;
              Tid_map.add map b id;
              let info = Hetstream.find_comp header name in
              if info.Hetstream.in_take then
                let _, project =
                  Hetstream.take_projection (Base_table.schema t)
                    info.Hetstream.take_cols
                in
                Hashtbl.replace changed id (project b)
            end
            else if taken then raise Recompute
          end)
        reads.copies)
    (List.rev !moves);
  if Hashtbl.length changed = 0 then last.stream
  else
    {
      last.stream with
      Hetstream.items =
        rebuild changed (Hashtbl.length changed) last.stream.Hetstream.items;
    }

(* -- entry point -------------------------------------------------------- *)

(* Reads and patches of one key serialize on its stripe. *)
let stripes = Array.init 16 (fun _ -> Mutex.create ())

(** Serve a CO stream through the result cache under [key]: a hit at
    the current versions of [tables], else a patch of the stored stream
    under [reads ()], else [compute] (the executor and assembly, or the
    fixpoint), whose stream and node maps become the new entry. *)
let extract ~(key : string) ~(tables : Base_table.t list)
    ~(reads : unit -> reads)
    (compute : unit -> Hetstream.t * (string * Tid_map.t) list) : Hetstream.t =
  Mutex.protect stripes.(Hashtbl.hash key land 15) @@ fun () ->
  (* one commit-consistent cut: a group commit publishing between two
     per-table reads would otherwise leave a torn baseline *)
  let versions =
    Mutex.protect Snapshot.publish_mu (fun () ->
        List.map (fun t -> (t, Base_table.version t)) tables)
  in
  let fresh () =
    let stream, maps = recompute compute in
    {
      versions;
      stream;
      maps;
      bytes =
        List.fold_left
          (fun acc (_, m) -> acc + Tid_map.bytes m)
          (Hetstream.approx_bytes stream) maps;
    }
  in
  match Executor.Result_cache.find key with
  | Some (Cached last)
    when List.equal (fun (t, v) (t', v') -> t == t' && v = v') last.versions
           versions ->
    stats.hits <- stats.hits + 1;
    last.stream
  | found ->
    let last =
      match found with
      | Some (Cached last) -> (
        match patch (reads ()) last versions with
        | stream ->
          stats.patches <- stats.patches + 1;
          (* the byte count of the stored stream stands: a fresh walk
             would cost more than the patch *)
          { last with versions; stream }
        | exception Recompute ->
          Executor.Result_cache.remove key;
          fresh ())
      | Some _ | None -> fresh ()
    in
    Executor.Result_cache.store key ~bytes:last.bytes (Cached last);
    last.stream
