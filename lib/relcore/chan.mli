(** Bounded multi-producer single-consumer channel: the inter-domain
    table queue.  Producers block when the buffer is full (flow
    control); the consumer blocks when it is empty; [close] ends the
    stream — [pop] drains what remains, then returns [None]. *)

exception Closed
(** Raised by {!push} on a closed channel. *)

type 'a t

val create : capacity:int -> 'a t
(** A channel holding at most [capacity] in-flight elements.
    @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** Blocks while full.  @raise Closed if the channel was closed. *)

val pop : 'a t -> 'a option
(** Blocks while empty and open; [None] once closed and drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking {!pop}: [None] when the buffer is currently empty
    (whether or not the channel is closed).  For event loops that must
    never sleep on one channel. *)

val length : 'a t -> int
(** Number of in-flight elements (the consumer-visible queue depth). *)

val close : 'a t -> unit
(** Mark end-of-stream and wake all blocked producers/consumers. *)
