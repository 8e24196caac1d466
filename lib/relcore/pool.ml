(** Shared domain pool — the process-wide worker team that runs the
    daemon's requests, one task per request.

    Worker domains are spawned lazily (up to the number of tasks asked
    for) and kept for the life of the process, blocked on a task queue,
    so the domain spawn cost is paid once.  [XNFDB_DOMAINS] (default:
    the runtime's recommended domain count, i.e. the physical cores)
    sizes the daemon's worker warm-up. *)

(** Configured parallelism: [XNFDB_DOMAINS], or the hardware's
    recommended domain count.  The daemon warms up this many workers. *)
let default_domains () =
  match Option.bind (Sys.getenv_opt "XNFDB_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* hard cap on pool size: a guard against runaway XNFDB_DOMAINS values,
   not a tuning knob *)
let max_workers = 128

let mutex = Mutex.create ()
let nonempty = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let n_workers = ref 0

let worker_main () =
  let rec loop () =
    Mutex.lock mutex;
    while Queue.is_empty queue do
      Condition.wait nonempty mutex
    done;
    let task = Queue.pop queue in
    Mutex.unlock mutex;
    task ();
    loop ()
  in
  loop ()

(* workers are daemons: handles are dropped, the process exits without
   joining them *)
let ensure_workers n =
  let n = min n max_workers in
  Mutex.lock mutex;
  let missing = n - !n_workers in
  n_workers := max !n_workers n;
  Mutex.unlock mutex;
  for _ = 1 to missing do
    ignore (Domain.spawn worker_main : unit Domain.t)
  done

type handle = {
  mutable remaining : int;
  mutable error : exn option;
  hm : Mutex.t;
  hc : Condition.t;
}

(** Enqueue [n] tasks [f 0 .. f (n-1)] on pool workers and return
    immediately; the caller does not participate.  Used when the caller
    has its own job — e.g. consuming a {!Chan} the tasks produce into. *)
let launch ~n (f : int -> unit) : handle =
  let h = { remaining = n; error = None; hm = Mutex.create (); hc = Condition.create () } in
  if n <= 0 then h
  else begin
    ensure_workers n;
    Mutex.lock mutex;
    for i = 0 to n - 1 do
      Queue.push
        (fun () ->
          (try f i
           with e ->
             Mutex.lock h.hm;
             if h.error = None then h.error <- Some e;
             Mutex.unlock h.hm);
          Mutex.lock h.hm;
          h.remaining <- h.remaining - 1;
          if h.remaining = 0 then Condition.broadcast h.hc;
          Mutex.unlock h.hm)
        queue
    done;
    Condition.broadcast nonempty;
    Mutex.unlock mutex;
    h
  end

(** Wait for every task of [h]; re-raises the first task exception. *)
let await (h : handle) : unit =
  Mutex.lock h.hm;
  while h.remaining > 0 do
    Condition.wait h.hc h.hm
  done;
  Mutex.unlock h.hm;
  match h.error with Some e -> raise e | None -> ()
