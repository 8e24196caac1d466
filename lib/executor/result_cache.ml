(** Cross-query materialized result cache.

    One process-wide, mutex-guarded LRU store shared by every database
    and every execution context.  Entries hold materialized table queues (batch
    lists for shared subexpressions) or assembled CO-view streams;
    payloads travel as [exn] — the classic universal-type trick — so
    this module stays below the layers that define those types (the
    executor caches batches, the XNF layer caches [Hetstream.t]s)
    without circular dependencies.

    Batch-list keys embed a per-table version fragment
    ([Plan.version_key]): every DML bumps the touched table's monotonic
    counter, so a stale entry is simply never looked up again and ages
    out by LRU.  Versions never repeat, which is what makes rollback
    safe — entries filled from in-transaction state are keyed to
    versions that no post-rollback lookup can reproduce.  CO streams
    are keyed by structure instead and carry their versions in the
    payload (see [Xnf_ivm]).

    Budget comes from [XNFDB_RESULT_CACHE_MB] (default 64; 0 disables
    caching entirely).  Eviction is least-recently-used by access
    stamp.  Domain-safe: a single mutex guards the table; payloads are
    immutable once published (callers hand out fresh batch records via
    [Batch.share_list], never the cached ones). *)

type entry = { payload : exn; bytes : int; mutable stamp : int }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

let mutex = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let total_bytes = ref 0
let clock = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* Test hook: overrides the environment knob when set. *)
let budget_override : int option ref = ref None
let set_budget_mb mb = budget_override := mb

let budget_bytes () =
  let mb =
    match !budget_override with
    | Some mb -> mb
    | None -> (
      match
        Option.bind (Sys.getenv_opt "XNFDB_RESULT_CACHE_MB") int_of_string_opt
      with
      | Some mb when mb >= 0 -> mb
      | _ -> 64)
  in
  mb * 1024 * 1024

let enabled () = budget_bytes () > 0

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let find key =
  with_lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some e ->
        incr clock;
        e.stamp <- !clock;
        incr hits;
        Some e.payload
      | None ->
        incr misses;
        None)

(* O(entries) min-stamp scan; the cache holds few, large entries, so a
   heap would be overkill. *)
let evict_until_fits budget =
  while !total_bytes > budget && Hashtbl.length table > 0 do
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, oldest) when oldest.stamp <= e.stamp -> ()
        | _ -> victim := Some (key, e))
      table;
    match !victim with
    | Some (key, e) ->
      Hashtbl.remove table key;
      total_bytes := !total_bytes - e.bytes;
      incr evictions
    | None -> ()
  done

let store key ~bytes payload =
  let budget = budget_bytes () in
  if budget > 0 && bytes <= budget then
    with_lock (fun () ->
        (match Hashtbl.find_opt table key with
        | Some old ->
          Hashtbl.remove table key;
          total_bytes := !total_bytes - old.bytes
        | None -> ());
        incr clock;
        Hashtbl.replace table key { payload; bytes; stamp = !clock };
        total_bytes := !total_bytes + bytes;
        evict_until_fits budget)

let remove key =
  with_lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some e ->
        Hashtbl.remove table key;
        total_bytes := !total_bytes - e.bytes
      | None -> ())

let clear () =
  with_lock (fun () ->
      Hashtbl.reset table;
      total_bytes := 0)

let reset_stats () =
  with_lock (fun () ->
      hits := 0;
      misses := 0;
      evictions := 0)

let stats () =
  with_lock (fun () ->
      {
        hits = !hits;
        misses = !misses;
        evictions = !evictions;
        entries = Hashtbl.length table;
        bytes = !total_bytes;
      })

(* -- byte estimators ----------------------------------------------------- *)

open Relcore

let value_bytes = function
  | Value.Str s -> 24 + String.length s
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Float _ -> 16

let row_bytes row =
  Array.fold_left (fun acc v -> acc + value_bytes v) 16 row

(** Rough heap footprint of a materialized table queue. *)
let batch_list_bytes (bs : Batch.t list) : int =
  List.fold_left
    (fun acc b -> Batch.fold (fun acc row -> acc + row_bytes row) (acc + 64) b)
    0 bs
