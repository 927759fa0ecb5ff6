(** A size-n instance of the BCC(b) model (§1.2): an n-clique of network
    edges with explicit port wiring, a subset of edges marked as the input
    graph, and per-vertex IDs.

    Vertices are internally indexed 0..n−1 (the simulator's bookkeeping);
    algorithms only ever see IDs and ports through {!View.t}. In KT-0 the
    wiring is arbitrary; in KT-1 port p of every vertex leads to the
    vertex with the p-th smallest ID among the others, realising "ports
    are labelled by IDs". *)

type knowledge = KT0 | KT1

type t

val knowledge : t -> knowledge
val n : t -> int

val ids : t -> int array
(** Fresh copy: [ids.(v)] is vertex v's ID. *)

val id_of : t -> int -> int

val peer : t -> int -> int -> int
(** [peer t v p]: the vertex at the far end of port [p] of vertex [v]. *)

val ports : t -> int -> int array
(** [ports t v]: vertex [v]'s port row, [(ports t v).(p) = peer t v p].
    The instance's own table, not a copy: the broadcast exchange reads
    every inbox through it. Never mutate it. *)

val port_to : t -> int -> int -> int
(** [port_to t v u]: the port of [v] whose far end is [u].
    @raise Invalid_argument if [u = v]. *)

val is_input_port : t -> int -> int -> bool
(** Is the network edge at this port an input-graph edge? *)

val is_input_edge : t -> int -> int -> bool
(** Is {u, v} an input-graph edge? *)

val kt0_circulant : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-0 instance over the canonical circulant wiring
    (port p of v → v+p+1 mod n); the shared background wiring of all
    census-level instances. Default IDs are 1..n. *)

val kt0_circulant_sweep : int -> int array -> t
(** [kt0_circulant_sweep n] precomputes the circulant wiring tables,
    default IDs and input rows once and returns a stamp: applied to a
    flat cycle-neighbour table — vertex v's two input-graph neighbours
    at indices [2v] and [2v+1], as the core layer's [Census.fill_neighbors]
    writes it — it builds the same instance
    [kt0_circulant (Cycles.to_graph ...)] would, without the per-call
    graph construction and O(n²) validation. The table is read, not
    kept, so callers may refill and reuse it; the input rows of stamped
    instances are shared per n (never mutate them). The hot constructor
    behind the core layer's census sweeps.
    @raise Invalid_argument if the table has the wrong size or names a
    vertex out of range or the vertex itself. *)

val kt0_random : ?ids:int array -> Bcclb_util.Rng.t -> Bcclb_graph.Graph.t -> t
(** KT-0 instance with independently random port numbering at every
    vertex — the adversarial wiring freedom of the KT-0 model. *)

val kt1_of_graph : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-1 instance; the wiring is forced by the IDs. *)

val input_graph : t -> Bcclb_graph.Graph.t
(** The input graph (on vertex indices). *)

val view : ?coins_seed:int -> t -> int -> View.t
(** Initial knowledge of vertex [v]; every vertex of a run must receive
    the same [coins_seed] (public-coin model). In KT-1 the sorted ID
    array [View.all_ids] of the {!View.kt1_info} is computed once per
    instance and shared by every view: never mutate it. *)

val validate : t -> t
(** Re-check all structural invariants (clique wiring, symmetric port
    maps, symmetric input flags, distinct IDs, KT-1 ID-ordering).
    @raise Invalid_argument describing the violation. *)

val independent : t -> int * int -> int * int -> bool
(** Definition 3.2: both pairs are input edges with four distinct
    endpoints, and neither diagonal is an input edge. *)

val cross : t -> int * int -> int * int -> t
(** The port-preserving crossing I(e₁, e₂) of Definition 3.3, for directed
    input edges e₁ = (v₁, u₁) and e₂ = (v₂, u₂): input edges e₁, e₂ are
    replaced by (v₁, u₂), (v₂, u₁) and the wiring is rewired so that every
    vertex's per-port view is unchanged.
    @raise Invalid_argument if the edges are not independent or the
    instance is KT-1 (where ports are pinned to IDs). *)

val copy : t -> t

val equal : t -> t -> bool
(** Same knowledge, IDs, wiring, and input marking. *)

val pp : Format.formatter -> t -> unit
