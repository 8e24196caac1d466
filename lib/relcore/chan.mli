(** Bounded multi-producer single-consumer channel between domains.
    Producers block when the buffer is full (flow control); the
    consumer polls with {!try_pop}; [close] ends the stream and wakes
    blocked producers. *)

exception Closed
(** Raised by {!push} on a closed channel. *)

type 'a t

val create : capacity:int -> 'a t
(** A channel holding at most [capacity] in-flight elements.
    @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** Blocks while full.  @raise Closed if the channel was closed. *)

val try_pop : 'a t -> 'a option
(** The oldest element, or [None] when the buffer is currently empty
    (whether or not the channel is closed).  Never blocks: for event
    loops that must never sleep on one channel. *)

val length : 'a t -> int
(** Number of in-flight elements (the consumer-visible queue depth). *)

val close : 'a t -> unit
(** Mark end-of-stream and wake all blocked producers. *)
