(** Spreading a one-thread loop over every CPU the process may use.

    On a shared host each of the process's CPUs runs at its own speed,
    and that speed drifts with what else the host runs there.  A loop left
    to the scheduler stays on one CPU for long stretches, so a run
    measures whichever CPU it happened to sit on.  Moving the loop to the
    next CPU in turn at fixed points spreads every run over all of them,
    as a workload with one thread per CPU is spread by itself. *)

external allowed : unit -> int array = "pb_cpu_allowed"
external set : int array -> bool = "pb_cpu_set"

(** The CPUs the process may use, read before anything is pinned. *)
let cpus = allowed ()

(** Pin the calling thread to CPU [k mod n] of the [n] in {!cpus}.  A
    no-op with fewer than two CPUs or where pinning is refused. *)
let turn k =
  let n = Array.length cpus in
  if n > 1 then ignore (set [| cpus.(k mod n) |])

(** Let the calling thread run on every CPU in {!cpus} again. *)
let release () = if Array.length cpus > 1 then ignore (set cpus)
