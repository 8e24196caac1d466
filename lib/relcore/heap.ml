(** Slotted in-memory row store.

    Rows live in stable slots identified by a row id (rid).  Deletion
    tombstones the slot (rid stability is what the composite-object
    cache's tuple identifiers rely on); freed slots are recycled by
    subsequent inserts. *)

type rid = int

type delta_op = D_ins of rid * Tuple.t | D_del of rid * Tuple.t

type t = {
  mu : Mutex.t;
      (* spans every slot mutation together with its delta-log append, so
         {!frozen_at} can copy the slots and read the log as one atomic
         observation while writers proceed.  Lock-free readers (plain
         scans) are unaffected: they either hold the process read lock
         (no concurrent writers) or go through {!frozen_at}. *)
  slots : Tuple.t option Vec.t;
  free : int Vec.t; (* stack of tombstoned slots available for reuse *)
  mutable live : int;
  mutable version : int;
      (* monotonic mutation counter: every insert/update/delete bumps it,
         so (heap, version) identifies a snapshot of the contents.
         Versions never repeat — undoing a change still moves forward. *)
  mutable committed_version : int;
      (* last version published by a commit (or autocommit / rollback
         completion): the snapshot boundary MVCC-lite readers pin.
         [committed_version <= version]; they differ exactly while a
         transaction holds unpublished writes. *)
  deltas : (int * delta_op) Vec.t;
      (* bounded row-delta log alongside the undo log: one (version, op)
         entry per insert/delete, two per update (delete + insert at the
         same version, keyed by slot).  [touch] logs nothing. *)
  mutable delta_floor : int;
      (* oldest version the log still reaches back to; advanced past the
         current version when the log overflows its capacity, declaring
         older snapshots unmaintainable *)
  mutable hole_lo : int;
  mutable hole_hi : int;
      (* versions discarded by [delta_rewind] (rolled-back txns): a
         snapshot taken inside [hole_lo, hole_hi) saw uncommitted state
         the log no longer records, so [deltas_since] must refuse it.
         Multiple rewinds merge conservatively (min lo, max hi).
         Empty when hole_lo > hole_hi. *)
}

(* [XNFDB_DELTA_LOG]: per-table delta-log capacity (default 4096).
   0 effectively disables maintenance: the log is clipped after every
   mutation, so only the empty delta (no DML at all) is answerable. *)
let log_capacity () =
  match Sys.getenv_opt "XNFDB_DELTA_LOG" with
  | Some s -> (match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | _ -> 4096)
  | None -> 4096

let create () =
  {
    mu = Mutex.create ();
    slots = Vec.create ~dummy:None;
    free = Vec.create ~dummy:(-1);
    live = 0;
    version = 0;
    committed_version = 0;
    deltas = Vec.create ~dummy:(0, D_del (-1, [||]));
    delta_floor = 0;
    hole_lo = max_int;
    hole_hi = min_int;
  }

let cardinality h = h.live
let version h = h.version
let touch h = h.version <- h.version + 1
let committed_version h = h.committed_version
let mark_committed h = h.committed_version <- h.version

let log_delta h op =
  Vec.push h.deltas (h.version, op);
  if Vec.length h.deltas > log_capacity () then begin
    (* overflow: drop history and declare every snapshot older than the
       current contents beyond repair *)
    Vec.clear h.deltas;
    h.delta_floor <- h.version
  end

let deltas_since_unlocked h v =
  if v < h.delta_floor || (v >= h.hole_lo && v < h.hole_hi) then None
  else
    Some
      (Vec.fold_left
         (fun acc (ver, op) -> if ver > v then (ver, op) :: acc else acc)
         [] h.deltas
      |> List.rev)

(** Row deltas logged after version [v]: [Some ops] iff the log still
    reaches back to [v] (in particular [Some []] when nothing changed);
    [None] once overflow discarded that history. *)
let deltas_since h v = Mutex.protect h.mu (fun () -> deltas_since_unlocked h v)

let delta_mark h = Vec.length h.deltas

let delta_rewind h mark =
  (* if the log overflowed after the mark was taken, the position no
     longer corresponds to the txn's entries — it can even be negative
     when the overflow hit the txn's own first write.  Clamping to 0
     stays safe: everything still logged is discarded and covered by
     the refusal hole below, so affected readers fall back. *)
  Mutex.protect h.mu (fun () ->
      let mark = max mark 0 in
      if mark < Vec.length h.deltas then begin
        (* the discarded versions saw uncommitted state: any snapshot
           taken among them is unanswerable once the entries are gone,
           while snapshots at or before the last surviving entry stay
           maintainable (the rolled-back txn is net zero for them) *)
        let first_discarded, _ = Vec.get h.deltas mark in
        h.hole_lo <- min h.hole_lo first_discarded;
        h.hole_hi <- max h.hole_hi (h.version + 1);
        Vec.truncate h.deltas mark
      end)

(** Number of slots ever allocated (live + tombstoned). *)
let capacity h = Vec.length h.slots

(** Drop every row and reset slot allocation, so refilling scans in
    insertion order exactly like a fresh heap (tombstone-and-recycle
    would reverse it via the free stack).  Snapshots from before the
    clear are not delta-replayable: the log is cleared and floored. *)
let clear h =
  Mutex.protect h.mu (fun () ->
      touch h;
      Vec.clear h.slots;
      Vec.clear h.free;
      h.live <- 0;
      Vec.clear h.deltas;
      h.delta_floor <- h.version;
      h.hole_lo <- max_int;
      h.hole_hi <- min_int)

let insert h tuple =
  Mutex.protect h.mu (fun () ->
      touch h;
      h.live <- h.live + 1;
      let rid =
        if Vec.length h.free > 0 then begin
          let rid = Vec.pop h.free in
          Vec.set h.slots rid (Some tuple);
          rid
        end
        else begin
          Vec.push h.slots (Some tuple);
          Vec.length h.slots - 1
        end
      in
      log_delta h (D_ins (rid, tuple));
      rid)

let get h rid =
  if rid < 0 || rid >= Vec.length h.slots then None else Vec.get h.slots rid

let get_exn h rid =
  match get h rid with
  | Some t -> t
  | None -> Errors.execution_error "dangling rid %d" rid

let update h rid tuple =
  Mutex.protect h.mu (fun () ->
      match get h rid with
      | Some old ->
        touch h;
        Vec.set h.slots rid (Some tuple);
        log_delta h (D_del (rid, old));
        log_delta h (D_ins (rid, tuple))
      | None -> Errors.execution_error "update of dangling rid %d" rid)

let delete h rid =
  Mutex.protect h.mu (fun () ->
      match get h rid with
      | Some old ->
        touch h;
        Vec.set h.slots rid None;
        Vec.push h.free rid;
        h.live <- h.live - 1;
        log_delta h (D_del (rid, old))
      | None -> Errors.execution_error "delete of dangling rid %d" rid)

(** Pre-image of the slot array as of version [v], reconstructed from the
    live slots and the retained delta log: [None] when the log no longer
    reaches back to [v] (overflow past it, or [v] fell in a rollback
    hole) — the caller must fall back to a locked read.

    Atomic with respect to writers: the copy and the log walk happen
    under the heap mutex every mutator holds, so the returned array is a
    consistent cut even while DML proceeds.  Patching walks the ops
    {e newest first}, rewriting each touched slot to the row content
    recorded before the oldest post-[v] change: a [D_del] restores the
    deleted/overwritten row, a [D_ins] clears the slot it filled, and
    the final state per slot is decided by the oldest op (last writer in
    the reverse walk) — exactly the pre-image. *)
let frozen_at h v : Tuple.t option array option =
  Mutex.protect h.mu (fun () ->
      match deltas_since_unlocked h v with
      | None -> None
      | Some ops ->
        let arr = Vec.to_array h.slots in
        List.iter
          (fun (_, op) ->
            match op with
            | D_ins (rid, _) -> arr.(rid) <- None
            | D_del (rid, old) -> arr.(rid) <- Some old)
          (List.rev ops);
        Some arr)

(** Approximate bytes retained by the delta log (the MVCC-lite undo
    window): header words plus the logged row payloads. *)
let undo_bytes h =
  Mutex.protect h.mu (fun () ->
      Vec.fold_left
        (fun acc (_, op) ->
          let row = match op with D_ins (_, t) | D_del (_, t) -> t in
          acc + ((4 + Array.length row) * 8))
        0 h.deltas)

let iter f h =
  Vec.iteri (fun rid slot -> match slot with Some t -> f rid t | None -> ()) h.slots

let fold f acc h =
  let acc = ref acc in
  iter (fun rid t -> acc := f !acc rid t) h;
  !acc

let to_list h = List.rev (fold (fun acc rid t -> (rid, t) :: acc) [] h)

(** Demand-driven scan cursor: returns [(rid, tuple)] pairs.  The cursor
    tolerates concurrent appends (sees rows added behind its position)
    and skips tombstones, like a real heap scan. *)
let scan h =
  let pos = ref 0 in
  fun () ->
    let rec go () =
      if !pos >= Vec.length h.slots then None
      else begin
        let i = !pos in
        incr pos;
        match Vec.get h.slots i with
        | Some t -> Some (i, t)
        | None -> go ()
      end
    in
    go ()

(** Batched scan: fill [out.(start .. start+max)] with live tuples
    beginning at slot [from] — no per-row pair/option allocation.
    Returns [(next_slot, n_filled)]; like {!scan}, tolerates concurrent
    appends and skips tombstones. *)
let scan_into ?filter h ~from (out : Tuple.t array) ~start ~max =
  let pos = ref from and k = ref start in
  let stop = start + max in
  (match filter with
  | None ->
    while !k < stop && !pos < Vec.length h.slots do
      (match Vec.get h.slots !pos with
      | Some t ->
        out.(!k) <- t;
        incr k
      | None -> ());
      incr pos
    done
  | Some keep ->
    (* push-down filter (e.g. a sideways join filter): visited live rows
       failing it are dropped before they reach the output batch *)
    while !k < stop && !pos < Vec.length h.slots do
      (match Vec.get h.slots !pos with
      | Some t ->
        if keep t then begin
          out.(!k) <- t;
          incr k
        end
      | None -> ());
      incr pos
    done);
  (!pos, !k - start)
