(** One vertex's inbox in a broadcast exchange: the round's shared
    emission array seen through the vertex's port row.

    In BCC every vertex hears the same n broadcasts, each in its own port
    order, so the exchange builds no per-vertex copy: [get t p] reads
    [emits.(ports.(p))]. Building an inbox is O(1) and reading a port is
    two array loads.

    Aliasing contract: all n inboxes of a round share one emission array,
    and the port rows are the instance's own wiring tables. Neither may
    be mutated. The engine allocates a fresh emission array every round
    and never writes to it after the exchange, so an algorithm may keep
    an inbox past its round and read it later. *)

type 'a t

val of_emissions : 'a array -> ports:int array -> 'a t
(** [of_emissions emits ~ports]: port [p] carries [emits.(ports.(p))].
    Both arrays are shared, not copied. *)

val make : int -> 'a -> 'a t
(** [make len x]: [len] ports all carrying [x] — the all-silent inbox
    of round 1. *)

val of_array : 'a array -> 'a t
(** Port [p] carries [a.(p)]; [a] is shared, not copied. For drivers
    that build an inbox message by message. *)

val length : 'a t -> int
(** Number of ports. *)

val get : 'a t -> int -> 'a
(** [get t p]: the message that arrived through port [p].
    @raise Invalid_argument on an out-of-range port. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
(** [iteri f t] calls [f p (get t p)] for every port in increasing order. *)

val to_array : 'a t -> 'a array
(** A fresh array of the port messages. *)
