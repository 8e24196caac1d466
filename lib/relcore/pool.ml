(** Shared domain pool — the process-wide worker team behind parallel
    table-queue execution.

    Worker domains are spawned lazily (up to the requested parallelism)
    and kept for the life of the process, blocked on a task queue; every
    parallel query execution reuses them, so per-query domain spawn cost
    is paid once.  Parallel queries name their own domain count;
    [XNFDB_DOMAINS] (default: the runtime's recommended domain count,
    i.e. the physical cores) sizes the daemon's worker warm-up and is
    the fallback for a parallel entry point called without one.

    Nesting is safe by construction: a task that itself calls {!run}
    detects it is already on a pool worker and executes its subtasks
    inline instead of re-entering the queue, so the pool can never
    deadlock on its own tasks. *)

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

(* set on pool worker domains; {!run} from inside a worker degrades to
   inline execution *)
let on_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get on_worker

let worker_main () =
  Domain.DLS.set on_worker true;
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

(** Run [f 0 .. f (domains-1)] to completion, the caller executing [f 0]
    itself.  Inline (sequential) when [domains <= 1] or when already on
    a pool worker. *)
let run ~domains (f : int -> unit) : unit =
  if domains <= 1 || in_worker () then
    for i = 0 to max 0 (domains - 1) do
      f i
    done
  else begin
    let h = launch ~n:(domains - 1) (fun i -> f (i + 1)) in
    let mine = match f 0 with () -> None | exception e -> Some e in
    (match await h with
    | () -> ()
    | exception e -> ( match mine with Some _ -> () | None -> raise e));
    match mine with Some e -> raise e | None -> ()
  end

(** Morsel-style dynamic scheduling: [domains] participants pull morsel
    indexes [0 .. morsels-1] from a shared atomic counter and run [f] on
    each — fast workers take more morsels. *)
let for_morsels ~domains ~morsels (f : int -> unit) : unit =
  if morsels > 0 then begin
    let next = Atomic.make 0 in
    run ~domains:(min domains morsels) (fun _ ->
        let rec go () =
          let m = Atomic.fetch_and_add next 1 in
          if m < morsels then begin
            f m;
            go ()
          end
        in
        go ())
  end
