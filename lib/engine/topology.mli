(** Message-exchange topologies for {!Engine.run}: pure functions from one
    round's emissions (indexed by vertex) to the next round's inboxes. *)

type ('emit, 'inbox) t = round:int -> prev:'inbox array -> 'emit array -> 'inbox array
(** [exchange ~round ~prev emits] builds the inboxes consumed in round
    [round + 1]; [prev] is the inboxes consumed in round [round] (only
    cumulative topologies need it). *)

val broadcast : n:int -> ports:(int -> int array) -> ('msg, 'msg Inbox.t) t
(** The BCC model (§1.2): every vertex's single emission reaches every
    other vertex. [ports v] is vertex [v]'s port row ([(ports v).(p)] is
    the vertex behind port [p]); it is read once, when the exchange is
    built. Every round's n inboxes share the emission array
    ({!Inbox.of_emissions}), so the exchange is O(n) per round. *)

val unicast : n:int -> peer:(int -> int -> int) -> port_to:(int -> int -> int) -> ('msg array, 'msg array) t
(** The RCC / per-port model: each vertex emits one message per port;
    vertex [u] hears on port [q] what [peer u q] sent through its port
    toward [u] ([port_to v u]). *)

val two_party : ('msg, 'msg list) t
(** Two parties with simultaneous exchange and cumulative inboxes: each
    party's inbox is the reversed history of the other party's messages
    (newest first). @raise Invalid_argument unless exactly 2 parties. *)
