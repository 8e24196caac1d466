(** Incremental view maintenance: push base-table row deltas through
    compiled plan operators instead of recomputing from scratch.

    Every maintained operator output is modelled as a set of
    [(prov, row)] pairs where [prov] — the provenance order key — is a
    lexicographically ordered vector that reproduces the executor's
    emission order exactly:

    - [Scan]: [S_int rid] (heap scans visit slots ascending; the
      columnar path is positional with slots, so byte-identical);
    - [Hash_join]: probe prov ++ negate(build prov) — the build side
      conses per key in scan order and the probe emits newest-first,
      i.e. {e descending} build prov;
    - [Index_join]: outer prov ++ [S_int (-rid)] — postings are kept
      rid-sorted and {!Relcore.Index.iter} walks them descending, so
      the inner order is a pure function of the row set;
    - [Sort]: one [S_val (key, dir)] segment per sort key, then the
      input prov as the stable tie-break;
    - [Union_all]: [S_int branch] ++ input prov.

    Sorting an output by prov therefore yields the batch order
    [Exec.run_batches] would produce, which is what CO-view assembly
    (and hence [Hetstream] byte identity) depends on.  Deltas are
    signed multisets of such pairs; joins use the exact bilinear rule
    dOut = dP ⋈ B_old ∪ P_new ⋈ dB, applied via in-operator mirrors of
    both sides, which is correct for simultaneous batch deltas no
    matter how the underlying DML interleaved across tables.

    Shapes outside {!Optimizer.Plan.maintainable} (aggregation,
    DISTINCT, nested-loop joins, LIMIT, correlated subplans)
    raise {!Unmaintainable}; callers fall back to invalidate +
    recompute, so maintenance is never load-bearing for correctness. *)

open Relcore
module Plan = Optimizer.Plan

exception Unmaintainable of string

let unmaintainable fmt =
  Printf.ksprintf (fun s -> raise (Unmaintainable s)) fmt

(* -- provenance order keys ---------------------------------------------- *)

type seg = S_int of int | S_val of Value.t * int (* dir: 1 asc, -1 desc *)
type prov = seg array

let compare_seg a b =
  match a, b with
  | S_int x, S_int y -> Int.compare x y
  | S_val (x, dx), S_val (y, _) -> dx * Value.compare x y
  | S_int _, S_val _ -> -1
  | S_val _, S_int _ -> 1

let compare_prov (a : prov) (b : prov) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      let c = compare_seg a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Order-reversing bijection on segments: prepending negated build provs
   makes "newest build row first" the ascending order. *)
let negate (p : prov) : prov =
  Array.map
    (function S_int i -> S_int (-1 - i) | S_val (v, d) -> S_val (v, -d))
    p

(* -- maintainer nodes --------------------------------------------------- *)

type drow = int * prov * Tuple.t (* sign (+1/-1), prov, row *)

type window = {
  wgen : int; (* maintenance generation, for shared-subtree memoization *)
  wdeltas : (int, (int * Heap.delta_op) list) Hashtbl.t; (* by tid *)
}

type bucket = (prov * Tuple.t) list ref

type node =
  | N_scan of Base_table.t
  | N_values of Tuple.t list
  | N_filter of node * (Tuple.t -> bool)
  | N_project of node * (Tuple.t -> Tuple.t)
  | N_hash_join of hj
  | N_index_join of ij
  | N_sort of node * (Tuple.t -> seg) array
  | N_union of node array
  | N_shared of shared_cell

and hj = {
  hbuild : node;
  hprobe : node;
  bkey : Tuple.t -> Tuple.t option; (* None: some key NULL, never joins *)
  pkey : Tuple.t -> Tuple.t option;
  hres : (Tuple.t -> bool) option; (* over concat (probe, build) *)
  btbl : bucket Tuple.Tbl.t;
  ptbl : bucket Tuple.Tbl.t;
}

and ij = {
  iouter : node;
  itable : Base_table.t;
  iindex : Index.t;
  okey : Tuple.t -> Tuple.t option; (* over outer rows *)
  ires : (Tuple.t -> bool) option; (* over concat (outer, inner) *)
  imirror : (Heap.rid * Tuple.t) list ref Tuple.Tbl.t;
      (* inner rows by key: postings are rid-sorted in the index, so the
         rid alone reproduces the probe order — no age counter needed *)
  iotbl : bucket Tuple.Tbl.t; (* outer rows, by key *)
}

and shared_cell = {
  scell : node;
  mutable sfill : (prov * Tuple.t) list option;
  mutable sgen : int;
  mutable sdelta : drow list;
}

(* -- compilation -------------------------------------------------------- *)

type ctx = { cells : (int, node) Hashtbl.t }

let make_ctx () = { cells = Hashtbl.create 8 }

let key_fn (keys : Plan.scalar list) : Tuple.t -> Tuple.t option =
  let fs = Array.of_list (List.map Eval.compile_scalar_fn keys) in
  fun row ->
    let n = Array.length fs in
    let out = Array.make n Value.Null in
    let ok = ref true in
    for k = 0 to n - 1 do
      let v = fs.(k) [] row in
      if Value.is_null v then ok := false;
      out.(k) <- v
    done;
    if !ok then Some out else None

let res_fn (p : Plan.ppred) : (Tuple.t -> bool) option =
  match p with
  | Plan.P_true -> None
  | _ -> (
    match Eval.compile_pred_pure p with
    | Some f -> Some (fun t -> f [] t = Some true)
    | None -> unmaintainable "impure predicate")

let rec compile (ctx : ctx) (p : Plan.t) : node =
  match p with
  | Plan.Scan t -> N_scan t
  | Plan.Values rows -> N_values rows
  | Plan.Filter (input, pred) -> (
    match res_fn pred with
    | Some f -> N_filter (compile ctx input, f)
    | None -> compile ctx input)
  | Plan.Project (input, cols) ->
    let fs = Array.map Eval.compile_scalar_fn cols in
    N_project (compile ctx input, fun row -> Array.map (fun f -> f [] row) fs)
  | Plan.Hash_join { build; probe; build_keys; probe_keys; residual; _ } ->
    N_hash_join
      {
        hbuild = compile ctx build;
        hprobe = compile ctx probe;
        bkey = key_fn build_keys;
        pkey = key_fn probe_keys;
        hres = res_fn residual;
        btbl = Tuple.Tbl.create 256;
        ptbl = Tuple.Tbl.create 256;
      }
  | Plan.Index_join { outer; table; index; keys; residual } ->
    N_index_join
      {
        iouter = compile ctx outer;
        itable = table;
        iindex = index;
        okey = key_fn keys;
        ires = res_fn residual;
        imirror = Tuple.Tbl.create 256;
        iotbl = Tuple.Tbl.create 256;
      }
  | Plan.Sort (input, specs) ->
    let segs =
      Array.of_list
        (List.map
           (fun (i, dir) ->
             let d = match dir with `Asc -> 1 | `Desc -> -1 in
             fun (row : Tuple.t) -> S_val (row.(i), d))
           specs)
    in
    N_sort (compile ctx input, segs)
  | Plan.Union_all inputs ->
    N_union (Array.of_list (List.map (compile ctx) inputs))
  | Plan.Shared (bid, inner) -> (
    match Hashtbl.find_opt ctx.cells bid with
    | Some n -> n
    | None ->
      let n =
        N_shared
          { scell = compile ctx inner; sfill = None; sgen = -1; sdelta = [] }
      in
      Hashtbl.add ctx.cells bid n;
      n)
  | Plan.Nl_join _ | Plan.Distinct _ | Plan.Aggregate _ | Plan.Limit _ ->
    unmaintainable "unsupported operator"

(* -- mirrors ------------------------------------------------------------ *)

let bucket_add tbl key prov row =
  match Tuple.Tbl.find_opt tbl key with
  | Some b -> b := (prov, row) :: !b
  | None -> Tuple.Tbl.add tbl key (ref [ (prov, row) ])

let bucket_remove tbl key prov =
  match Tuple.Tbl.find_opt tbl key with
  | Some b ->
    let found = ref false in
    b :=
      List.filter
        (fun (p, _) ->
          if (not !found) && compare_prov p prov = 0 then begin
            found := true;
            false
          end
          else true)
        !b;
    if not !found then unmaintainable "mirror missing a deleted row";
    if !b = [] then Tuple.Tbl.remove tbl key
  | None -> unmaintainable "mirror missing a deleted key"

let bucket_iter tbl key f =
  match Tuple.Tbl.find_opt tbl key with
  | Some b -> List.iter f !b
  | None -> ()

(* -- initial fill ------------------------------------------------------- *)

(* Unordered [(prov, row)] stream of the node's current contents, with
   every mirror populated as a side effect.  Callers sort by prov once
   per component (provs are unique by construction, so any sort works). *)
let rec fill (n : node) : (prov * Tuple.t) list =
  match n with
  | N_scan t ->
    List.rev
      (Base_table.fold
         (fun acc rid row -> ([| S_int rid |], row) :: acc)
         [] t)
  | N_values rows -> List.mapi (fun i row -> ([| S_int i |], row)) rows
  | N_filter (input, f) -> List.filter (fun (_, row) -> f row) (fill input)
  | N_project (input, f) ->
    List.map (fun (p, row) -> (p, f row)) (fill input)
  | N_sort (input, segs) ->
    List.map
      (fun (p, row) ->
        (Array.append (Array.map (fun g -> g row) segs) p, row))
      (fill input)
  | N_union inputs ->
    List.concat
      (Array.to_list
         (Array.mapi
            (fun k input ->
              List.map
                (fun (p, row) -> (Array.append [| S_int k |] p, row))
                (fill input))
            inputs))
  | N_hash_join j ->
    List.iter
      (fun (bp, brow) ->
        match j.bkey brow with
        | Some k -> bucket_add j.btbl k bp brow
        | None -> ())
      (fill j.hbuild);
    let out = ref [] in
    List.iter
      (fun (pp, prow) ->
        match j.pkey prow with
        | None -> ()
        | Some k ->
          bucket_add j.ptbl k pp prow;
          bucket_iter j.btbl k (fun (bp, brow) ->
              let row = Tuple.concat prow brow in
              if match j.hres with None -> true | Some f -> f row then
                out := (Array.append pp (negate bp), row) :: !out))
      (fill j.hprobe);
    !out
  | N_index_join j ->
    Index.iter_postings j.iindex (fun key _pos rid ->
        let row = Base_table.get_exn j.itable rid in
        match Tuple.Tbl.find_opt j.imirror key with
        | Some p -> p := (rid, row) :: !p
        | None -> Tuple.Tbl.add j.imirror key (ref [ (rid, row) ]));
    let out = ref [] in
    List.iter
      (fun (op, orow) ->
        match j.okey orow with
        | None -> ()
        | Some k ->
          bucket_add j.iotbl k op orow;
          (match Tuple.Tbl.find_opt j.imirror k with
          | Some p ->
            List.iter
              (fun (rid, irow) ->
                let row = Tuple.concat orow irow in
                if match j.ires with None -> true | Some f -> f row then
                  out := (Array.append op [| S_int (-rid) |], row) :: !out)
              !p
          | None -> ()))
      (fill j.iouter);
    !out
  | N_shared c -> (
    match c.sfill with
    | Some rows -> rows
    | None ->
      let rows = fill c.scell in
      c.sfill <- Some rows;
      rows)

(* Drop fill memos once every component is filled (they are only there
   so shared subtrees fill once). *)
let rec clear_fill_memo (n : node) =
  match n with
  | N_scan _ | N_values _ -> ()
  | N_filter (i, _) | N_project (i, _) | N_sort (i, _) -> clear_fill_memo i
  | N_union inputs -> Array.iter clear_fill_memo inputs
  | N_hash_join j ->
    clear_fill_memo j.hbuild;
    clear_fill_memo j.hprobe
  | N_index_join j -> clear_fill_memo j.iouter
  | N_shared c ->
    if c.sfill <> None then begin
      c.sfill <- None;
      clear_fill_memo c.scell
    end

(* -- delta propagation -------------------------------------------------- *)

let table_delta (w : window) (t : Base_table.t) : (int * Heap.delta_op) list =
  match Hashtbl.find_opt w.wdeltas (Base_table.tid t) with
  | Some ops -> ops
  | None -> []

(* Signed delta stream of the node under [w], advancing every mirror.
   Shared cells propagate once per generation, so a subtree referenced
   from several components neither double-applies nor double-mutates. *)
let rec apply (n : node) (w : window) : drow list =
  match n with
  | N_scan t ->
    List.map
      (fun (_, op) ->
        match op with
        | Heap.D_ins (rid, row) -> (1, [| S_int rid |], row)
        | Heap.D_del (rid, row) -> (-1, [| S_int rid |], row))
      (table_delta w t)
  | N_values _ -> []
  | N_filter (input, f) ->
    List.filter (fun (_, _, row) -> f row) (apply input w)
  | N_project (input, f) ->
    List.map (fun (s, p, row) -> (s, p, f row)) (apply input w)
  | N_sort (input, segs) ->
    List.map
      (fun (s, p, row) ->
        (s, Array.append (Array.map (fun g -> g row) segs) p, row))
      (apply input w)
  | N_union inputs ->
    List.concat
      (Array.to_list
         (Array.mapi
            (fun k input ->
              List.map
                (fun (s, p, row) -> (s, Array.append [| S_int k |] p, row))
                (apply input w))
            inputs))
  | N_hash_join j ->
    (* dOut = dP ⋈ B_old  ∪  P_new ⋈ dB *)
    let dp = apply j.hprobe w in
    let out = ref [] in
    let emit sign pp pr bp br =
      let row = Tuple.concat pr br in
      if match j.hres with None -> true | Some f -> f row then
        out := (sign, Array.append pp (negate bp), row) :: !out
    in
    List.iter
      (fun (sign, pp, pr) ->
        match j.pkey pr with
        | None -> ()
        | Some k -> bucket_iter j.btbl k (fun (bp, br) -> emit sign pp pr bp br))
      dp;
    List.iter
      (fun (sign, pp, pr) ->
        match j.pkey pr with
        | None -> ()
        | Some k ->
          if sign > 0 then bucket_add j.ptbl k pp pr
          else bucket_remove j.ptbl k pp)
      dp;
    let db = apply j.hbuild w in
    List.iter
      (fun (sign, bp, br) ->
        match j.bkey br with
        | None -> ()
        | Some k -> bucket_iter j.ptbl k (fun (pp, pr) -> emit sign pp pr bp br))
      db;
    List.iter
      (fun (sign, bp, br) ->
        match j.bkey br with
        | None -> ()
        | Some k ->
          if sign > 0 then bucket_add j.btbl k bp br
          else bucket_remove j.btbl k bp)
      db;
    List.rev !out
  | N_index_join j ->
    let dout = apply j.iouter w in
    let out = ref [] in
    let emit sign op orow rid irow =
      let row = Tuple.concat orow irow in
      if match j.ires with None -> true | Some f -> f row then
        out := (sign, Array.append op [| S_int (-rid) |], row) :: !out
    in
    (* d_outer against the inner mirror as of the window start *)
    List.iter
      (fun (sign, op, orow) ->
        match j.okey orow with
        | None -> ()
        | Some k -> (
          match Tuple.Tbl.find_opt j.imirror k with
          | Some p ->
            List.iter (fun (rid, irow) -> emit sign op orow rid irow) !p
          | None -> ()))
      dout;
    List.iter
      (fun (sign, op, orow) ->
        match j.okey orow with
        | None -> ()
        | Some k ->
          if sign > 0 then bucket_add j.iotbl k op orow
          else bucket_remove j.iotbl k op)
      dout;
    (* inner deltas in log order: same-key entries must see each other's
       mirror effects (an UPDATE deletes then re-inserts at the same rid) *)
    List.iter
      (fun (_, dop) ->
        match dop with
        | Heap.D_ins (rid, irow) ->
          let key = Index.key_of j.iindex irow in
          (match Tuple.Tbl.find_opt j.imirror key with
          | Some p -> p := (rid, irow) :: !p
          | None -> Tuple.Tbl.add j.imirror key (ref [ (rid, irow) ]));
          bucket_iter j.iotbl key (fun (op, orow) -> emit 1 op orow rid irow)
        | Heap.D_del (rid, irow) ->
          let key = Index.key_of j.iindex irow in
          (match Tuple.Tbl.find_opt j.imirror key with
          | Some p -> (
            match List.find_opt (fun (r, _) -> r = rid) !p with
            | Some (_, mrow) ->
              bucket_iter j.iotbl key (fun (op, orow) ->
                  emit (-1) op orow rid mrow);
              p := List.filter (fun (r, _) -> r <> rid) !p;
              if !p = [] then Tuple.Tbl.remove j.imirror key
            | None -> unmaintainable "index mirror missing rid %d" rid)
          | None -> unmaintainable "index mirror missing a deleted key"))
      (table_delta w j.itable);
    List.rev !out
  | N_shared c ->
    if c.sgen <> w.wgen then begin
      c.sgen <- w.wgen;
      c.sdelta <- apply c.scell w
    end;
    c.sdelta

(* -- net-change merge --------------------------------------------------- *)

type change =
  | C_add of Tuple.t
  | C_rem of Tuple.t
  | C_rep of Tuple.t * Tuple.t (* old, new *)

module Pmap = Map.Make (struct
  type t = prov

  let compare = compare_prov
end)

(* Collapse a raw signed delta stream into at most one surviving row per
   prov.  Transient pairs (insert then delete of the same derived row
   within the window) cancel; anything that nets to more than one row at
   a prov means the prov algebra was violated — bail out. *)
let net_changes (drows : drow list) : (Tuple.t * int) list Pmap.t =
  List.fold_left
    (fun acc (sign, prov, row) ->
      let cur = try Pmap.find prov acc with Not_found -> [] in
      let rec add = function
        | [] -> [ (row, sign) ]
        | (r, c) :: tl when Tuple.equal r row -> (r, c + sign) :: tl
        | hd :: tl -> hd :: add tl
      in
      Pmap.add prov (add cur) acc)
    Pmap.empty drows

(** Merge a sorted [(prov, row)] array with a window's signed delta
    stream: the updated sorted array plus the per-prov change list (in
    prov order) the assembly layer patches from.  The new array shares
    every untouched [(prov, row)] pair element with [base] (physical
    equality), so patchers can detect kept rows with [==]; touched provs
    are located by binary search and the survivors spliced in with
    [Array.blit] — the window cost is O(deltas · log n) plus one pointer
    copy of the array, not an allocation per row. *)
let merge (base : (prov * Tuple.t) array) (drows : drow list) :
    (prov * Tuple.t) array * (prov * change) list =
  let net = net_changes drows in
  if Pmap.is_empty net then (base, [])
  else begin
    let n = Array.length base in
    (* leftmost index with base prov >= p (= n when p is past the end) *)
    let bsearch p =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if compare_prov (fst base.(mid)) p < 0 then lo := mid + 1
        else hi := mid
      done;
      !lo
    in
    let resolve (p, counts) =
      let idx = bsearch p in
      let old =
        if idx < n && compare_prov (fst base.(idx)) p = 0 then
          Some (snd base.(idx))
        else None
      in
      let counts =
        match old with
        | Some row ->
          let rec add = function
            | [] -> [ (row, 1) ]
            | (r, c) :: tl when Tuple.equal r row -> (r, c + 1) :: tl
            | hd :: tl -> hd :: add tl
          in
          add counts
        | None -> counts
      in
      let survivors =
        List.filter_map
          (fun (r, c) ->
            if c = 0 then None
            else if c = 1 then Some r
            else unmaintainable "net delta count %d at one prov" c)
          counts
      in
      match survivors, old with
      | [], None -> None
      | [], Some o -> Some (idx, p, C_rem o)
      | [ r ], None -> Some (idx, p, C_add r)
      | [ r ], Some o ->
        if Tuple.equal r o then None else Some (idx, p, C_rep (o, r))
      | _ -> unmaintainable "several rows net out at one prov"
    in
    (* bindings are prov-sorted, so resolved indices are non-decreasing *)
    let ops = List.filter_map resolve (Pmap.bindings net) in
    if ops = [] then (base, [])
    else begin
      let n_add =
        List.length (List.filter (fun (_, _, c) -> match c with C_add _ -> true | _ -> false) ops)
      and n_rem =
        List.length (List.filter (fun (_, _, c) -> match c with C_rem _ -> true | _ -> false) ops)
      in
      let out = Array.make (n + n_add - n_rem) ([||], [||]) in
      let src = ref 0 and dst = ref 0 in
      List.iter
        (fun (idx, p, op) ->
          let len = idx - !src in
          Array.blit base !src out !dst len;
          src := !src + len;
          dst := !dst + len;
          match op with
          | C_add r ->
            out.(!dst) <- (p, r);
            incr dst
          | C_rem _ -> incr src
          | C_rep (_, r) ->
            out.(!dst) <- (p, r);
            incr src;
            incr dst)
        ops;
      Array.blit base !src out !dst (n - !src);
      (out, List.map (fun (_, p, op) -> (p, op)) ops)
    end
  end

(** Initial contents of a freshly compiled node, sorted into executor
    emission order. *)
let fill_sorted (n : node) : (prov * Tuple.t) array =
  let arr = Array.of_list (fill n) in
  Array.sort (fun (a, _) (b, _) -> compare_prov a b) arr;
  arr
