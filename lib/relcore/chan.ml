(** Bounded multi-producer single-consumer channel between domains: the
    daemon's per-session outbox of encoded frames.  Producers (request
    workers) block when the consumer (the event loop) falls behind;
    [close] ends the stream, and a producer still pushing sees
    [Closed]. *)

exception Closed

type 'a t = {
  ring : 'a option array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
  mutable closed : bool;
  m : Mutex.t;
  not_full : Condition.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Chan.create: capacity must be positive";
  {
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
    m = Mutex.create ();
    not_full = Condition.create ();
  }

let push t x =
  Mutex.lock t.m;
  while t.len = Array.length t.ring && not t.closed do
    Condition.wait t.not_full t.m
  done;
  if t.closed then begin
    Mutex.unlock t.m;
    raise Closed
  end;
  t.ring.((t.head + t.len) mod Array.length t.ring) <- Some x;
  t.len <- t.len + 1;
  Mutex.unlock t.m

let try_pop t =
  Mutex.lock t.m;
  let r =
    if t.len = 0 then None
    else begin
      let x = t.ring.(t.head) in
      t.ring.(t.head) <- None;
      t.head <- (t.head + 1) mod Array.length t.ring;
      t.len <- t.len - 1;
      Condition.signal t.not_full;
      x
    end
  in
  Mutex.unlock t.m;
  r

let length t =
  Mutex.lock t.m;
  let n = t.len in
  Mutex.unlock t.m;
  n

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  (* wake blocked producers: they raise Closed *)
  Condition.broadcast t.not_full;
  Mutex.unlock t.m
