(** The bipartite indistinguishability graph G^t_{x,y} of Definition 3.6,
    materialised exhaustively for small n.

    Left side: all one-cycle instances V₁. Right side: all two-cycle
    instances V₂. An edge joins I₁ to I₂ iff I₂ arises from I₁ by
    crossing two {e active} independent directed edges — edges whose head
    broadcasts x and tail broadcasts y during the algorithm's rounds.
    Lemmas 3.7–3.9 are statements about this graph's degree structure;
    {!k_matching} realises the Theorem 2.1 star packing that drives
    Theorem 3.1. *)

type t = {
  n : int;
  x : string;
  y : string;
  v1 : Bcclb_graph.Cycles.t array;
  v2 : Bcclb_graph.Cycles.t array;
  adj : int array array;
  radj : int array array;
}

type label =
  | Same_label  (** Lemma 3.4's condition: the two edges carry equal labels. *)
  | Active of int * int  (** Both edges carry this (head, tail) code label. *)

val iter_crossings : label -> int array -> int array -> (int -> int -> int -> unit) -> unit
(** [iter_crossings label cyc codes f] calls [f i j smaller] for every
    position pair i < j of the cycle [cyc] whose crossing splits it into
    two cycles of ≥ 3 vertices ([smaller] is the shorter's length) and
    whose directed edges (cᵢ, cᵢ₊₁), (cⱼ, cⱼ₊₁) satisfy [label] under the
    per-vertex broadcast [codes]: the one splitting-pair loop behind
    every builder here and {!Quotient}. *)

val build : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> ?xy:string * string -> unit -> t
(** Run the (already truncated) algorithm and connect crossings of
    same-label active edge pairs. The label (x, y) defaults to the most
    frequent one across V₁. Where transcripts are rotation-equivariant
    ({!orbit_applicable}) the algorithm runs once per V₁ rotation class
    and every other row is the rotation image of its representative's;
    elsewhere it runs as {!build_packed}. Both give identical graphs.
    @raise Invalid_argument as {!Arena.require_codable}. *)

val build_packed : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> ?xy:string * string -> unit -> t
(** The every-instance path, explicitly: one execution and one crossing
    sweep per V₁ instance — what {!build} runs for ID-reading
    algorithms, and the reference its rotation-reduced runs are tested
    against. *)

val orbit_applicable : 'o Bcclb_bcc.Algo.packed -> n:int -> bool
(** Is the orbit reduction sound for this algorithm at this n — i.e.
    are its transcripts rotation-equivariant? True for anonymous
    algorithms and whenever the round bound is 0. *)

val num_edges : t -> int
val degree_v1 : t -> int -> int
val degree_v2 : t -> int -> int

val neighborhood : t -> int list -> int
(** |N(S)| for a set S of left indices. *)

val hall_condition_sampled :
  ?samples:int -> Bcclb_util.Rng.t -> t -> k:int -> (unit, int list) result
(** Check |N(S)| ≥ k·|S| on random subsets of the positive-degree left
    vertices; [Error s] returns a violating witness. *)

val k_matching : t -> k:int -> (int array * int array array) option
(** A k-matching covering every positive-degree left vertex: returns
    (their indices, per-vertex groups of k pairwise-disjoint right
    indices), or [None] if none exists. *)

val build_full : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> t
(** The union of G^t_{x,y} over ALL label pairs: {I₁, I₂} is an edge iff
    some same-label active independent pair of I₁ crosses to I₂ — every
    edge is an execution-indistinguishable pair (Lemma 3.4). Reduction
    and refusal as in {!build}. *)

val build_full_packed : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> t
(** Every-instance twin of {!build_full}, as {!build_packed}. *)

val certified_error_lb : t -> int * Bcclb_bignum.Ratio.t
(** (matching size, certified error): a maximum matching in the full
    graph forces any output assignment of this algorithm to err with
    μ-mass ≥ size/(2·max(|V₁|,|V₂|)) — the Theorem 3.1 argument
    instantiated as a per-algorithm certificate. *)

val neighbor_degree_histogram : t -> int -> ((int * int) * int) list
(** For one left instance: [((smaller_cycle_len, neighbour_degree), count)]
    over its neighbours, sorted — the per-i structure of Lemma 3.7. *)
