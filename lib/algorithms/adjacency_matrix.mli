(** The generic Θ(n/b)-round KT-1 BCC(b) upper bound: broadcast the full
    adjacency row, b port bits per round; after ⌈(n−1)/b⌉ rounds every
    vertex holds the entire input graph, of any density; the graph is
    rebuilt once per run and shared by every vertex that heard the same
    rows ({!Chunked.shared}). The yardstick
    that the O(log n) bounded-degree algorithms ({!Discovery}) beat on
    the paper's sparse promise inputs at b = 1 — and the linear column of
    the E15 bandwidth × rounds frontier. *)

val connectivity : ?bandwidth:int -> unit -> bool Bcclb_bcc.Algo.packed

val components : ?bandwidth:int -> unit -> int Bcclb_bcc.Algo.packed
(** Each vertex outputs the smallest ID in its component. *)
