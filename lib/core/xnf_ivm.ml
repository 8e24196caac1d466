(** Incremental maintenance of cached CO-view streams.

    The stream cache in {!Xnf_compile} is version-keyed: any DML against
    a table a cached extraction read moves the key and the entry is
    never found again.  This module turns that invalidate-on-write into
    maintain-on-read: a registry keyed by the {e structural} part of the
    stream key remembers, per cached extraction, a {!Executor.Delta}
    maintainer tree (plan operators with their join/posting mirrors),
    the per-component [(prov, row)] contents, and a mirror of the
    assembly state (tuple-id maps and the emitted items).  When a read
    misses only because versions moved, the per-table delta logs are
    pushed through the maintainer, the component contents are spliced,
    the assembled [Hetstream] is patched (in place for pure value
    updates; re-assembled from the maintained components when the item
    structure shifts), and the result is stored under the new versioned
    key — byte-identical to a cold recomputation.

    Trust is earned, not assumed: the maintainer state is only built on
    a {e refill} (a miss for a query seen before), and at that moment
    the maintainer's idea of every component is verified row-by-row
    against the executor's actual output; any mismatch falls back to
    the executor and, after two strikes, disables instrumentation for
    that query.  Delta-log overflow and the {!threshold} cost gate
    (delta rows / cached rows) fall back per-window to invalidate +
    recompute. *)

open Relcore
module Plan = Optimizer.Plan
module Delta = Executor.Delta
module Exec = Executor.Exec

(* Maintenance cost gate: fall back to recompute when the window's delta
   rows exceed this fraction of the cached rows. *)
let threshold = 0.2

type stats = {
  mutable fills : int; (* instrumented refills (state built + verified) *)
  mutable maintained : int; (* reads served by delta maintenance *)
  mutable patched : int; (* ... of which patched items in place *)
  mutable reassembled : int; (* ... of which re-assembled from components *)
  mutable fallbacks : int; (* windows that fell back to recompute *)
  mutable mismatches : int; (* verification failures at refill *)
  (* recursive COs ({!Xnf_recursive}), which have no maintainer tree *)
  mutable rec_hits : int; (* served by a result-cache hit *)
  mutable rec_patches : int; (* served by patching the last stream *)
  mutable rec_recomputes : int; (* fixpoint evaluations *)
}

let stats = {
  fills = 0;
  maintained = 0;
  patched = 0;
  reassembled = 0;
  fallbacks = 0;
  mismatches = 0;
  rec_hits = 0;
  rec_patches = 0;
  rec_recomputes = 0;
}

let reset_stats () =
  stats.fills <- 0;
  stats.maintained <- 0;
  stats.patched <- 0;
  stats.reassembled <- 0;
  stats.fallbacks <- 0;
  stats.mismatches <- 0;
  stats.rec_hits <- 0;
  stats.rec_patches <- 0;
  stats.rec_recomputes <- 0

(* -- registry ----------------------------------------------------------- *)

(* A node component's ids are contiguous, [ns_first_id] onward: one per
   distinct row (cell), and [ns_counts] says how many component rows
   carry each cell's value. *)
type node_state = {
  ns_name : string;
  ns_comp : Hetstream.comp_info;
  ns_project : Tuple.t -> Tuple.t;
  ns_map : Tid_map.t; (* full (pre-projection) row -> id *)
  mutable ns_counts : int array; (* [id - ns_first_id] -> multiplicity *)
  mutable ns_first_id : int;
  mutable ns_ncells : int; (* distinct rows = ids assigned to this comp *)
  mutable ns_items : Hetstream.item array; (* [||] unless in TAKE *)
}

let count_of ns id = ns.ns_counts.(id - ns.ns_first_id)

(* Record the multiplicity of the cell with id [id], growing the array
   as cells are appended. *)
let set_count ns id c =
  let k = id - ns.ns_first_id in
  if k >= Array.length ns.ns_counts then begin
    let grown = Array.make (max 16 (2 * (k + 1))) 0 in
    Array.blit ns.ns_counts 0 grown 0 (Array.length ns.ns_counts);
    ns.ns_counts <- grown
  end;
  ns.ns_counts.(k) <- c

type rel_state = {
  rs_name : string;
  rs_comp : Hetstream.comp_info;
  rs_ro : Xnf_rewrite.rel_output;
  (* one slot per component row, [None] for deduplicated duplicates *)
  mutable rs_items : Hetstream.item option array;
  rs_keys : Tid_map.Conns.t; (* [parent; children...] id multiset *)
  mutable rs_start_id : int; (* id cursor on entry to this comp *)
  mutable rs_nemit : int; (* ids this comp consumed *)
}

type state = {
  roots : (string * Delta.node) list; (* per needed component, in order *)
  mutable comps : (string * (Delta.prov * Tuple.t) array) list;
  nstates : node_state list; (* node_outputs order *)
  rstates : rel_state list; (* in-TAKE rel_outputs order *)
  mutable stream : Hetstream.t;
  (* [tails.(k)] is the emitted item list from the k-th streamed
     component onward ([tails.(ncomp)] = []); a window that only touches
     early components re-conses their items and shares the rest. *)
  mutable tails : Hetstream.item list array;
  mutable approx : int; (* cached [Hetstream.approx_bytes] of [stream] *)
}

type entry = {
  mutable seen : bool; (* a first fill happened; instrument the refill *)
  mutable failures : int; (* verification strikes; dead at 2 *)
  mutable st : state option;
  mutable versions : (Base_table.t * int) list; (* as of last sync *)
}

let registry : (string, entry) Hashtbl.t = Hashtbl.create 16
let mu = Mutex.create ()
let gen = ref 0

let reset () =
  Mutex.protect mu (fun () -> Hashtbl.reset registry)

let find_entry skey =
  match Hashtbl.find_opt registry skey with
  | Some e -> e
  | None ->
    if Hashtbl.length registry >= 64 then Hashtbl.reset registry;
    let e = { seen = false; failures = 0; st = None; versions = [] } in
    Hashtbl.add registry skey e;
    e

exception Fallback of string

(* -- tracked assembly --------------------------------------------------- *)

(* Emitted components in stream order — the TAKE-listed node components,
   then the relationship components; each fold conses that component's
   current items onto an accumulator (the next component's tail). *)
let slot_folds (st : state) :
    (Hetstream.item list -> Hetstream.item list) array =
  let node_slots =
    List.filter_map
      (fun ns ->
        if ns.ns_comp.Hetstream.in_take then
          Some
            (fun acc ->
              Array.fold_right (fun it acc -> it :: acc) ns.ns_items acc)
        else None)
      st.nstates
  in
  let rel_slots =
    List.map
      (fun rs acc ->
        Array.fold_right
          (fun o acc -> match o with Some it -> it :: acc | None -> acc)
          rs.rs_items acc)
      st.rstates
  in
  Array.of_list (node_slots @ rel_slots)

(* Rebuild the stream's item list from the per-component item arrays,
   re-consing only components up to the last changed one and sharing the
   previous stream's tail beyond it. *)
let rebuild_items (st : state) (last_changed : int) : Hetstream.item list =
  let folds = slot_folds st in
  let ncomp = Array.length folds in
  if Array.length st.tails <> ncomp + 1 then
    st.tails <- Array.make (ncomp + 1) [];
  for k = last_changed downto 0 do
    st.tails.(k) <- folds.(k) st.tails.(k + 1)
  done;
  st.tails.(0)

(* Partner-id resolution against the mirrored node maps (see
   {!Tid_map.partners}). *)
let partners (st : state) (ro : Xnf_rewrite.rel_output) ~missing =
  Tid_map.partners ~missing
    (fun comp ->
      (List.find (fun ns -> String.equal ns.ns_name comp) st.nstates).ns_map)
    (ro.Xnf_rewrite.ro_parent, ro.Xnf_rewrite.ro_parent_span)
    ro.Xnf_rewrite.ro_child_spans

(* Exactly [Xnf_compile.assemble], but driven from the maintained
   per-component [(prov, row)] arrays (prov-sorted = batch order) and
   recording the id maps and emitted items so later windows can patch
   them instead of re-running this. *)
let assemble_tracked (st : state) (header : Hetstream.header) : Hetstream.t =
  let id_counter = ref 0 in
  let fresh () =
    incr id_counter;
    !id_counter
  in
  List.iter
    (fun ns ->
      Tid_map.clear ns.ns_map;
      ns.ns_first_id <- !id_counter + 1;
      let buf = ref [] in
      Array.iter
        (fun ((_, row) : Delta.prov * Tuple.t) ->
          let id = Tid_map.find ns.ns_map row in
          if id <> Tid_map.absent then set_count ns id (count_of ns id + 1)
          else begin
            let id = fresh () in
            Tid_map.add ns.ns_map row id;
            set_count ns id 1;
            if ns.ns_comp.Hetstream.in_take then begin
              let item =
                Hetstream.Row
                  {
                    comp = ns.ns_comp.Hetstream.comp_no;
                    id;
                    values = ns.ns_project row;
                  }
              in
              buf := item :: !buf
            end
          end)
        (List.assoc ns.ns_name st.comps);
      ns.ns_ncells <- Tid_map.length ns.ns_map;
      ns.ns_items <- Array.of_list (List.rev !buf))
    st.nstates;
  List.iter
    (fun rs ->
      let ro = rs.rs_ro in
      let attr_off, attr_w = ro.Xnf_rewrite.ro_attr_span in
      let children, resolve =
        partners st ro ~missing:(fun comp ->
            Errors.execution_error
              "connection references a %s tuple missing from its component"
              comp)
      in
      Tid_map.Conns.clear rs.rs_keys;
      rs.rs_start_id <- !id_counter;
      rs.rs_items <-
        Array.map
          (fun ((_, row) : Delta.prov * Tuple.t) ->
            let parent = resolve row in
            if Tid_map.Conns.add rs.rs_keys parent children > 1 then None
            else
              Some
                (Hetstream.Conn
                   {
                     rel = rs.rs_comp.Hetstream.comp_no;
                     id = fresh ();
                     parent;
                     children = Array.copy children;
                     attrs = Array.sub row attr_off attr_w;
                   }))
          (List.assoc rs.rs_name st.comps);
      rs.rs_nemit <- !id_counter - rs.rs_start_id)
    st.rstates;
  let ncomp =
    List.length
      (List.filter (fun ns -> ns.ns_comp.Hetstream.in_take) st.nstates)
    + List.length st.rstates
  in
  st.tails <- Array.make (ncomp + 1) [];
  let items = rebuild_items st (ncomp - 1) in
  let stream = { Hetstream.header; items } in
  st.approx <- Hetstream.approx_bytes stream;
  stream

(* -- instrumented refill ------------------------------------------------ *)

let needed_names (rewritten : Xnf_rewrite.result)
    (header : Hetstream.header) : string list =
  List.map (fun (n : Xnf_rewrite.node_output) -> n.Xnf_rewrite.no_name)
    rewritten.Xnf_rewrite.node_outputs
  @ List.filter_map
      (fun (ro : Xnf_rewrite.rel_output) ->
        let info = Hetstream.find_comp header ro.Xnf_rewrite.ro_name in
        if info.Hetstream.in_take then Some ro.Xnf_rewrite.ro_name else None)
      rewritten.Xnf_rewrite.rel_outputs

exception Mismatch of string

(* Build maintainer state for the refill: run the executor (authoritative),
   fill the maintainer tree from current table contents, and verify the
   two agree row-for-row on every needed component before trusting the
   maintainer with future windows. *)
let instrument (entry : entry) ~(header : Hetstream.header)
    ~(rewritten : Xnf_rewrite.result) ~(plans : (string * Plan.compiled) list)
    : Hetstream.t =
  let needed = needed_names rewritten header in
  let tables =
    let seen = Hashtbl.create 8 in
    List.concat_map
      (fun name -> Plan.tables (List.assoc name plans).Plan.plan)
      needed
    |> List.filter (fun t ->
           let tid = Base_table.tid t in
           if Hashtbl.mem seen tid then false
           else begin
             Hashtbl.add seen tid ();
             true
           end)
  in
  (* Capture the version vector under the publication lock: a group
     commit publishing between two per-table reads would otherwise leave
     a torn baseline and the next [maintain] would replay half a txn. *)
  let versions =
    Mutex.protect Snapshot.publish_mu (fun () ->
        List.map (fun t -> (t, Base_table.version t)) tables)
  in
  let ctx = Exec.make_ctx ~result_cache:true () in
  let dctx = Delta.make_ctx () in
  let roots =
    List.map
      (fun name -> (name, Delta.compile dctx (List.assoc name plans).Plan.plan))
      needed
  in
  let comps =
    List.map
      (fun (name, root) ->
        let exec_rows =
          Batch.list_to_rows (Exec.run_batches ~ctx (List.assoc name plans))
        in
        let filled = Delta.fill_sorted root in
        if Array.length filled <> List.length exec_rows then
          raise (Mismatch name);
        List.iteri
          (fun i row ->
            if not (Tuple.equal row (snd filled.(i))) then raise (Mismatch name))
          exec_rows;
        (name, filled))
      roots
  in
  List.iter (fun (_, root) -> Delta.clear_fill_memo root) roots;
  let nstates =
    List.map
      (fun (n : Xnf_rewrite.node_output) ->
        let name = n.Xnf_rewrite.no_name in
        let info = Hetstream.find_comp header name in
        let plan = List.assoc name plans in
        let _, project =
          Hetstream.take_projection plan.Plan.out_schema
            n.Xnf_rewrite.no_take_cols
        in
        {
          ns_name = name;
          ns_comp = info;
          ns_project = project;
          ns_map = Tid_map.create 256;
          ns_counts = [||];
          ns_first_id = 0;
          ns_ncells = 0;
          ns_items = [||];
        })
      rewritten.Xnf_rewrite.node_outputs
  in
  let rstates =
    List.filter_map
      (fun (ro : Xnf_rewrite.rel_output) ->
        let info = Hetstream.find_comp header ro.Xnf_rewrite.ro_name in
        if info.Hetstream.in_take then
          Some
            {
              rs_name = ro.Xnf_rewrite.ro_name;
              rs_comp = info;
              rs_ro = ro;
              rs_items = [||];
              rs_keys =
                Tid_map.Conns.create
                  ~children:(List.length ro.Xnf_rewrite.ro_child_spans)
                  256;
              rs_start_id = 0;
              rs_nemit = 0;
            }
        else None)
      rewritten.Xnf_rewrite.rel_outputs
  in
  let st =
    {
      roots;
      comps;
      nstates;
      rstates;
      stream = { Hetstream.header; items = [] };
      tails = [||];
      approx = 0;
    }
  in
  let stream = assemble_tracked st header in
  st.stream <- stream;
  entry.st <- Some st;
  entry.versions <- versions;
  stats.fills <- stats.fills + 1;
  stream

(* -- maintenance window ------------------------------------------------- *)

(* Incremental patch: apply a window's per-component changes directly to
   the mirrored assembly state.  Value-level replacements transfer their
   tuple id in place; structural changes are spliced — node rows may
   appear or disappear at the id tail (OO1-style inserts and deletes of
   the newest rows), relationship rows anywhere — and every relationship
   item downstream of a shift is renumbered by one O(rows) pointer walk
   that reuses the untouched item records.  Anything the splice rules
   cannot prove id-stable raises [Slow] and the caller re-assembles from
   the maintained component arrays instead. *)

exception Slow

(* Per-component window results threaded from [maintain] into the patch:
   (pre-window array, post-window array, prov-ordered changes). *)
type comp_window =
  (Delta.prov * Tuple.t) array
  * (Delta.prov * Tuple.t) array
  * (Delta.prov * Delta.change) list

let patch_items (st : state) (header : Hetstream.header)
    (merged : (string * comp_window) list) : Hetstream.t =
  let n_nslots =
    List.length
      (List.filter (fun ns -> ns.ns_comp.Hetstream.in_take) st.nstates)
  in
  let ncomp = n_nslots + List.length st.rstates in
  let changed = Array.make (max 1 ncomp) false in
  (* -- node components -------------------------------------------------- *)
  (* A structural node change shifts every id assigned after it; allow it
     only when nothing but relationship ids (renumbered below) follow. *)
  let struct_seen = ref false in
  let nslot = ref (-1) in
  List.iter
    (fun ns ->
      if ns.ns_comp.Hetstream.in_take then incr nslot;
      let dirty = ref false in
      if !struct_seen && ns.ns_ncells > 0 then raise Slow;
      let _, new_arr, ops = List.assoc ns.ns_name merged in
      let reps = ref [] and rems = ref [] and adds = ref [] in
      List.iter
        (fun (p, ch) ->
          match ch with
          | Delta.C_rep (o, nw) -> reps := (o, nw) :: !reps
          | Delta.C_rem o -> rems := o :: !rems
          | Delta.C_add r -> adds := (p, r) :: !adds)
        ops;
      let reps = List.rev !reps
      and rems = List.rev !rems
      and adds = List.rev !adds in
      (* replacements: clean one-to-one id transfers only *)
      List.iter
        (fun (o, nw) ->
          let id = Tid_map.find ns.ns_map o in
          if id = Tid_map.absent || count_of ns id <> 1 then raise Slow;
          if Tid_map.find ns.ns_map nw <> Tid_map.absent then raise Slow;
          if List.exists (fun (o', _) -> Tuple.equal o' nw) reps then
            raise Slow)
        reps;
      List.iter
        (fun (o, nw) ->
          let id = Tid_map.find ns.ns_map o in
          Tid_map.remove ns.ns_map o;
          Tid_map.add ns.ns_map nw id;
          if ns.ns_comp.Hetstream.in_take then begin
            ns.ns_items.(id - ns.ns_first_id) <-
              Hetstream.Row
                {
                  comp = ns.ns_comp.Hetstream.comp_no;
                  id;
                  values = ns.ns_project nw;
                };
            dirty := true
          end)
        reps;
      (* removals: the freed ids must be exactly this component's tail
         (first-appearance order is unknowable for duplicated rows) *)
      if rems <> [] then begin
        let cids =
          List.map
            (fun o ->
              let id = Tid_map.find ns.ns_map o in
              if id = Tid_map.absent || count_of ns id <> 1 then raise Slow;
              id)
            rems
        in
        let k = List.length cids in
        let hi = ns.ns_first_id + ns.ns_ncells - 1 in
        let sorted = List.sort Int.compare cids in
        List.iteri
          (fun t cid -> if cid <> hi - k + 1 + t then raise Slow)
          sorted;
        List.iter (fun o -> Tid_map.remove ns.ns_map o) rems;
        ns.ns_ncells <- ns.ns_ncells - k;
        if ns.ns_comp.Hetstream.in_take then begin
          ns.ns_items <- Array.sub ns.ns_items 0 (Array.length ns.ns_items - k);
          dirty := true
        end;
        struct_seen := true
      end;
      (* additions: fresh values appended strictly after every survivor *)
      if adds <> [] then begin
        let m = List.length adds in
        let nn = Array.length new_arr in
        if nn < m then raise Slow;
        List.iteri
          (fun t (p, _) ->
            if Delta.compare_prov (fst new_arr.(nn - m + t)) p <> 0 then
              raise Slow)
          adds;
        let extra =
          List.map
            (fun (_, r) ->
              if Tid_map.find ns.ns_map r <> Tid_map.absent then raise Slow;
              ns.ns_ncells <- ns.ns_ncells + 1;
              let id = ns.ns_first_id + ns.ns_ncells - 1 in
              Tid_map.add ns.ns_map r id;
              set_count ns id 1;
              (id, r))
            adds
        in
        if ns.ns_comp.Hetstream.in_take then begin
          let rows =
            List.map
              (fun (id, r) ->
                Hetstream.Row
                  {
                    comp = ns.ns_comp.Hetstream.comp_no;
                    id;
                    values = ns.ns_project r;
                  })
              extra
          in
          ns.ns_items <- Array.append ns.ns_items (Array.of_list rows);
          dirty := true
        end;
        struct_seen := true
      end;
      if !dirty then changed.(!nslot) <- true)
    st.nstates;
  (* -- relationship components ------------------------------------------ *)
  let next_id =
    ref (List.fold_left (fun acc ns -> acc + ns.ns_ncells) 0 st.nstates)
  in
  let fresh () =
    incr next_id;
    !next_id
  in
  List.iteri
    (fun ri rs ->
      let dirty = ref false in
      let old_arr, new_arr, ops = List.assoc rs.rs_name merged in
      let start = !next_id in
      let ro = rs.rs_ro in
      let attr_off, attr_w = ro.Xnf_rewrite.ro_attr_span in
      (* [resolve row] answers the parent id and leaves the child ids in
         [children] (scratch, overwritten per call) *)
      let children, resolve = partners st ro ~missing:(fun _ -> raise Slow) in
      (* does [row] still resolve to this connection's partners? *)
      let same_partners row c_parent c_children =
        resolve row = c_parent
        && Array.length children = Array.length c_children
        && Array.for_all2 Int.equal children c_children
      in
      let all_reps =
        List.for_all
          (fun (_, ch) -> match ch with Delta.C_rep _ -> true | _ -> false)
          ops
      in
      if ops = [] && start = rs.rs_start_id then
        (* untouched and unshifted: items and ids stand as they are *)
        next_id := start + rs.rs_nemit
      else if all_reps && start = rs.rs_start_id then begin
        (* in-place value replacements: ids, provs and positions are all
           stable — fix up just the touched slots (copy-on-write) *)
        let n = Array.length new_arr in
        let bsearch p =
          let lo = ref 0 and hi = ref n in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Delta.compare_prov (fst new_arr.(mid)) p < 0 then lo := mid + 1
            else hi := mid
          done;
          !lo
        in
        let out = ref rs.rs_items in
        List.iter
          (fun (p, _) ->
            let jdx = bsearch p in
            if jdx >= n || Delta.compare_prov (fst new_arr.(jdx)) p <> 0 then
              raise Slow;
            match rs.rs_items.(jdx) with
            | Some (Hetstream.Conn c) ->
              let row = snd new_arr.(jdx) in
              if not (same_partners row c.parent c.children) then raise Slow;
              let attrs = Array.sub row attr_off attr_w in
              if not (Tuple.equal attrs c.attrs) then begin
                if !out == rs.rs_items then out := Array.copy rs.rs_items;
                !out.(jdx) <- Some (Hetstream.Conn { c with attrs });
                dirty := true
              end
            | Some (Hetstream.Row _) | None -> raise Slow)
          ops;
        rs.rs_items <- !out;
        next_id := start + rs.rs_nemit
      end
      else begin
        let n_old = Array.length old_arr and n_new = Array.length new_arr in
        let out = Array.make n_new None in
        let keys = rs.rs_keys in
        let i = ref 0 and j = ref 0 in
        while !i < n_old || !j < n_new do
          if !i < n_old && !j < n_new && old_arr.(!i) == new_arr.(!j) then begin
            (match rs.rs_items.(!i) with
            | None -> ()
            | Some (Hetstream.Conn c) as slot ->
              let id = fresh () in
              if id = c.id then out.(!j) <- slot
              else begin
                out.(!j) <- Some (Hetstream.Conn { c with id });
                dirty := true
              end
            | Some (Hetstream.Row _) -> raise Slow);
            incr i;
            incr j
          end
          else begin
            let cmp =
              if !i >= n_old then 1
              else if !j >= n_new then -1
              else Delta.compare_prov (fst old_arr.(!i)) (fst new_arr.(!j))
            in
            if cmp = 0 then begin
              (* same prov, new row value *)
              (match rs.rs_items.(!i) with
              | Some (Hetstream.Conn c) as slot ->
                let row = snd new_arr.(!j) in
                if not (same_partners row c.parent c.children) then raise Slow;
                let attrs = Array.sub row attr_off attr_w in
                let id = fresh () in
                if id = c.id && Tuple.equal attrs c.attrs then
                  out.(!j) <- slot
                else begin
                  out.(!j) <- Some (Hetstream.Conn { c with id; attrs });
                  dirty := true
                end
              | Some (Hetstream.Row _) | None -> raise Slow);
              incr i;
              incr j
            end
            else if cmp < 0 then begin
              (* row removed *)
              (match rs.rs_items.(!i) with
              | None ->
                (* one duplicate fewer behind an earlier emitter *)
                let parent = resolve (snd old_arr.(!i)) in
                if Tid_map.Conns.remove keys parent children < 0 then
                  raise Slow
              | Some (Hetstream.Conn c) ->
                (* a shadowed duplicate would emerge: count must be 1 *)
                if Tid_map.Conns.count keys c.parent c.children <> 1 then
                  raise Slow;
                ignore (Tid_map.Conns.remove keys c.parent c.children);
                dirty := true
              | Some (Hetstream.Row _) -> raise Slow);
              incr i
            end
            else begin
              (* row added *)
              let row = snd new_arr.(!j) in
              let parent = resolve row in
              if Tid_map.Conns.add keys parent children > 1 then raise Slow;
              out.(!j) <-
                Some
                  (Hetstream.Conn
                     {
                       rel = rs.rs_comp.Hetstream.comp_no;
                       id = fresh ();
                       parent;
                       children = Array.copy children;
                       attrs = Array.sub row attr_off attr_w;
                     });
              dirty := true;
              incr j
            end
          end
        done;
        rs.rs_items <- out;
        rs.rs_start_id <- start;
        rs.rs_nemit <- !next_id - start
      end;
      if !dirty then changed.(n_nslots + ri) <- true)
    st.rstates;
  if not (Array.exists Fun.id changed) then st.stream
  else begin
    let l = ref (ncomp - 1) in
    while not changed.(!l) do
      decr l
    done;
    { Hetstream.header; items = rebuild_items st !l }
  end

let maintain (entry : entry) (st : state) (header : Hetstream.header) :
    Hetstream.t =
  let wdeltas = Hashtbl.create 8 in
  let delta_rows = ref 0 in
  List.iter
    (fun (t, v) ->
      match Base_table.deltas_since t v with
      | None -> raise (Fallback "delta log overflow")
      | Some ops ->
        delta_rows := !delta_rows + List.length ops;
        Hashtbl.replace wdeltas (Base_table.tid t) ops)
    entry.versions;
  let cached_rows =
    List.fold_left (fun acc (_, arr) -> acc + Array.length arr) 0 st.comps
  in
  if float_of_int !delta_rows > threshold *. float_of_int (max 1 cached_rows)
  then raise (Fallback "cost gate");
  incr gen;
  let w = { Delta.wgen = !gen; wdeltas } in
  (* mirrors advance as the deltas flow; any failure from here on must
     discard the state, not retry *)
  let merged =
    List.map
      (fun (name, root) ->
        let drows = Delta.apply root w in
        let base = List.assoc name st.comps in
        let arr, ops = Delta.merge base drows in
        (name, ((base, arr, ops) : comp_window)))
      st.roots
  in
  st.comps <- List.map (fun (name, (_, arr, _)) -> (name, arr)) merged;
  let stream =
    if List.for_all (fun (_, (_, _, ops)) -> ops = []) merged then st.stream
    else
      match patch_items st header merged with
      | s ->
        stats.patched <- stats.patched + 1;
        s
      | exception Slow ->
        stats.reassembled <- stats.reassembled + 1;
        assemble_tracked st header
  in
  st.stream <- stream;
  (* Re-baseline under the publication lock (commit-consistent, same as
     the initial capture in [instrument]). *)
  entry.versions <-
    Mutex.protect Snapshot.publish_mu (fun () ->
        List.map (fun (t, _) -> (t, Base_table.version t)) entry.versions);
  stats.maintained <- stats.maintained + 1;
  stream

(* -- entry point -------------------------------------------------------- *)

(** Serve a stream-cache miss: maintain the registered state when one
    exists, build it on a refill of a previously seen query, and fall
    back to [body] (the executor) everywhere else.  [store] parks the
    returned stream under the caller's versioned cache key. *)
let extract ~(skey : string) ~(header : Hetstream.header)
    ~(rewritten : Xnf_rewrite.result)
    ~(plans : (string * Plan.compiled) list)
    ~(store : ?bytes:int -> Hetstream.t -> unit)
    (body : unit -> Hetstream.t) : Hetstream.t =
  Mutex.protect mu @@ fun () ->
  let entry = find_entry skey in
  let fallback_to_body () =
    let s = body () in
    entry.seen <- true;
    store s;
    s
  in
  match entry.st with
  | Some st -> (
    match maintain entry st header with
    | s ->
      (* the size estimate from the last full assembly is close enough
         for the cache's byte accounting; a fresh walk would cost more
         than the whole patch *)
      store ~bytes:st.approx s;
      s
    | exception (Fallback _ | Delta.Unmaintainable _ | Not_found) ->
      entry.st <- None;
      stats.fallbacks <- stats.fallbacks + 1;
      fallback_to_body ())
  | None ->
    if
      entry.seen && entry.failures < 2
      && List.for_all
           (fun name -> Plan.maintainable (List.assoc name plans).Plan.plan)
           (needed_names rewritten header)
    then
      match instrument entry ~header ~rewritten ~plans with
      | s ->
        store s;
        s
      | exception (Mismatch _ | Delta.Unmaintainable _) ->
        entry.failures <- entry.failures + 1;
        stats.mismatches <- stats.mismatches + 1;
        entry.st <- None;
        fallback_to_body ()
    else fallback_to_body ()
