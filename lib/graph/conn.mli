(** The connectivity oracle: a sequential disjoint-set forest.

    Every per-instance component decision in the repository — the
    Borůvka-family merge loops, anonymous adjacency inference, the
    partition join, Kruskal, {!Graph.components} itself — goes through
    this one module.

    {2 Layout and root rule}

    One [int] cell per element packs parent-or-rank: a value [>= 0] is
    the parent's index, a value [< 0] marks a root of rank [-value - 1].
    {!find} halves paths; {!union} links by rank:
    - the root of lower rank goes under the root of higher rank,
      whatever their indices;
    - on equal ranks the larger root index goes under the smaller, and
      the smaller's rank grows by one.

    The representatives {!find} returns are part of the contract: AGM's
    local Borůvka and MT's component-cut decode iterate hash tables keyed
    by them, so their reports depend on this rule. *)

type t

val create : int -> t
(** [create n]: n singleton sets {0}, …, {n−1}.
    @raise Invalid_argument on a negative size. *)

val size : t -> int

val copy : t -> t
(** An independent forest with the same cells, hence the same sets and
    the same representatives. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] iff they were distinct. *)

val find : t -> int -> int
(** Root of the element's set, by the rule above. *)

val same : t -> int -> int -> bool

val components : t -> int
(** Current number of disjoint sets. *)

val labels : t -> int array
(** [labels t].(v) is the smallest element of v's set — a canonical
    component labelling, the output format of ConnectedComponents. *)
