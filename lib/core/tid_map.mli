(** Tuple identifiers by component-row value, for stream assembly.

    Assembly gives every distinct component row one tuple id (object
    sharing) and resolves each connection's partners by looking their
    values up.  The partners sit as spans inside a wider joined row;
    {!find_span} probes such a span in place, so a lookup neither copies
    the span nor allocates.

    Keys compare position by position with [a == b || Value.equal a b]:
    a partner value is usually the very box already stored for the node
    row, and the physical test settles it without a full compare.  The
    hash is this module's own mix, consistent with {!Relcore.Value.equal}
    ([Int 3] and [Float 3.0] hash alike); {!Relcore.Value.hash} and
    {!Relcore.Tuple.hash} stay as they are, since executor hash tables
    iterate in their order.

    Open addressing with linear probing; {!remove} shifts the rest of
    its probe chain back, so no tombstones accumulate.  Ids are
    non-negative ints; lookups answer {!absent} for a missing key. *)

open Relcore

type t

val absent : int
(** [-1]: what {!find} and {!find_span} answer for a key not in the map. *)

val create : int -> t
(** An empty map sized for about [n] keys (it grows as needed). *)

val length : t -> int
val clear : t -> unit

val bytes : t -> int
(** Heap footprint of the table's own arrays (not of its keys). *)

val find : t -> Tuple.t -> int
(** The id stored for this row, or {!absent}. *)

val find_span : t -> Tuple.t -> off:int -> len:int -> int
(** [find_span t row ~off ~len] is [find t (Array.sub row off len)]
    without the copy.  Raises [Invalid_argument] when the span does not
    lie inside [row]. *)

val add : t -> Tuple.t -> int -> unit
(** Bind a row to a non-negative id (replacing an existing binding).
    The row is stored as given: the caller must not mutate it later. *)

val remove : t -> Tuple.t -> unit
(** Drop a row's binding; no-op when absent. *)

(** Connection keys: [parent; children...] id tuples, counted.  Keys
    live unboxed in one flat [int array] (stride [1 + children]);
    connection dedupe asks "first time seen?" of {!add}. *)
module Conns : sig
  type t

  val create : children:int -> int -> t
  (** An empty set for keys with [children] child ids, sized for about
      [n] keys. *)

  val length : t -> int
  (** Distinct keys present. *)

  val clear : t -> unit

  val add : t -> int -> int array -> int
  (** Count one more occurrence of the key; answers the new count
      ([1]: first seen).  [children] is read, not stored. *)
end

val partners :
  missing:(string -> int) ->
  (string -> t) ->
  string * (int * int) ->
  (string * (int * int)) list ->
  int array * (Tuple.t -> int)
(** Partner-id resolution for one relationship output.
    [partners ~missing map_of (parent, span) children] answers a scratch
    array and a function [resolve]: [resolve row] probes the parent's
    and each child's span of [row] in the named components' maps,
    writes the child ids into the scratch array (in [children] order)
    and answers the parent id.  The array is overwritten by the next
    call: copy it to keep it.  A partner missing from its component's
    map is [missing comp]'s to answer (or raise). *)
