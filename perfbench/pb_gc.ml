(** GC pauses read back from the runtime's own event ring
    ([Runtime_events]), for the traced run.  A pause is one minor
    collection or major slice on one domain, nested phases counted
    once. *)

module R = Runtime_events

let cursor = ref None

(* per domain ring: nesting depth of tracked phases, start of the
   outermost one, and its total pause time *)
type dom = { mutable depth : int; mutable t0 : int64; mutable total : float }

let doms : (int, dom) Hashtbl.t = Hashtbl.create 8
let max_ms = ref 0.0
let lost = ref 0

let tracked = function R.EV_MINOR | R.EV_MAJOR_SLICE -> true | _ -> false

let dom i =
  match Hashtbl.find_opt doms i with
  | Some d -> d
  | None ->
    let d = { depth = 0; t0 = 0L; total = 0.0 } in
    Hashtbl.add doms i d;
    d

let callbacks =
  R.Callbacks.create
    ~runtime_begin:(fun i ts ph ->
      if tracked ph then begin
        let d = dom i in
        if d.depth = 0 then d.t0 <- R.Timestamp.to_int64 ts;
        d.depth <- d.depth + 1
      end)
    ~runtime_end:(fun i ts ph ->
      if tracked ph then begin
        let d = dom i in
        if d.depth > 0 then begin
          d.depth <- d.depth - 1;
          if d.depth = 0 then begin
            let ms = Int64.to_float (Int64.sub (R.Timestamp.to_int64 ts) d.t0) /. 1e6 in
            d.total <- d.total +. ms;
            if ms > !max_ms then max_ms := ms
          end
        end
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

(** Pause time of the domain that paused longest, in ms.  Minor
    collections stop every domain at once, so summing domains would
    count one pause several times. *)
let total_ms () = Hashtbl.fold (fun _ d acc -> Float.max acc d.total) doms 0.0

let start () =
  R.start ();
  cursor := Some (R.create_cursor None)

(** Drain the ring; call from one domain only, often enough that the
    ring does not wrap. *)
let poll () =
  match !cursor with Some c -> ignore (R.read_poll c callbacks None) | None -> ()

(** Forget what was read so far (after warm-up). *)
let reset () =
  poll ();
  Hashtbl.iter (fun _ d -> d.total <- 0.0) doms;
  max_ms := 0.0;
  lost := 0
