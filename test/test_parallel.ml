(** The daemon's concurrency primitives: the domain pool that runs
    whole requests, and the bounded channel that carries a session's
    encoded frames from a worker to the event loop. *)

open Relcore

let test_pool () =
  (* every launched task runs exactly once *)
  let n = 16 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.await (Pool.launch ~n (fun i -> Atomic.incr hits.(i)));
  Alcotest.(check (list int)) "each task ran once" (List.init n (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get hits));
  (* task exceptions surface at await *)
  let h = Pool.launch ~n:3 (fun i -> if i = 1 then failwith "boom") in
  match Pool.await h with
  | () -> Alcotest.fail "expected failure to propagate"
  | exception Failure m -> Alcotest.(check string) "task error" "boom" m

let test_chan () =
  let c = Chan.create ~capacity:4 in
  (* fits within capacity: same-thread round trip preserves order *)
  List.iter (Chan.push c) [ 1; 2; 3 ];
  Chan.close c;
  let rec drain c acc =
    match Chan.try_pop c with None -> List.rev acc | Some x -> drain c (x :: acc)
  in
  Alcotest.(check (list int)) "fifo order, then empty" [ 1; 2; 3 ] (drain c []);
  Alcotest.(check bool) "try_pop after drain stays None" true
    (Chan.try_pop c = None);
  (match Chan.push c 4 with
  | () -> Alcotest.fail "push on closed channel must raise"
  | exception Chan.Closed -> ());
  (match Chan.create ~capacity:0 with
  | _ -> Alcotest.fail "zero capacity must be rejected"
  | exception Invalid_argument _ -> ());
  (* cross-domain: producers on the pool, consumer polling here, with a
     buffer smaller than the element count so producers actually block *)
  let c = Chan.create ~capacity:2 in
  let n_producers = 3 and per_producer = 50 in
  let total = n_producers * per_producer in
  let h =
    Pool.launch ~n:n_producers (fun w ->
        for i = 0 to per_producer - 1 do
          Chan.push c ((w * per_producer) + i)
        done)
  in
  let rec consume n acc =
    if n = total then acc
    else
      match Chan.try_pop c with
      | Some x -> consume (n + 1) (x :: acc)
      | None ->
        Domain.cpu_relax ();
        consume n acc
  in
  let got = consume 0 [] in
  Pool.await h;
  Alcotest.(check bool) "nothing left over" true (Chan.try_pop c = None);
  Alcotest.(check (list int)) "no element lost or duplicated"
    (List.init total Fun.id) (List.sort compare got)

let suite =
  [
    Alcotest.test_case "domain pool" `Quick test_pool;
    Alcotest.test_case "bounded channel" `Quick test_chan;
  ]
