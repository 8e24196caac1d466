(** Spans around the benchmark's own calls into each layer.

    A span records its name, its start and end on one clock, the span
    that caused it and the request (root span) it belongs to.  Spans are
    kept in memory per domain and only aggregated when the run ends.
    With tracing off, {!span} is a direct call. *)

type span = {
  name : string;
  id : int;
  parent : int; (* -1 for a root *)
  req : int; (* id of the root span *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let next_id = Atomic.make 0
let now = Unix.gettimeofday

type dstate = { mutable stack : span list; mutable done_ : span list }

let all_states : dstate list ref = ref []
let states_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let s = { stack = []; done_ = [] } in
      Mutex.protect states_mu (fun () -> all_states := s :: !all_states);
      s)

let span name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, req =
      match st.stack with p :: _ -> (p.id, p.req) | [] -> (-1, id)
    in
    let s = { name; id; parent; req; t0 = now (); t1 = nan } in
    st.stack <- s :: st.stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        st.stack <- List.tl st.stack;
        st.done_ <- s :: st.done_)
      f
  end

(** Every finished span of every domain. *)
let collect () =
  Mutex.protect states_mu (fun () -> List.concat_map (fun s -> s.done_) !all_states)

let reset () =
  Mutex.protect states_mu (fun () -> List.iter (fun s -> s.done_ <- []) !all_states)

(** Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span: its duration minus the part of it that its
    direct children cover.  Returned as [(span, self_seconds)]. *)
let self_times (spans : span list) =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans
