(** GF(2) ℓ₀-samplers: XOR-mergeable sketches of a set of coordinates
    that support sampling one member with constant probability — the
    engine of the AGM-style polylog-round Connectivity algorithm (the
    "O(poly log n) rounds in BCC(1)" regime the paper's introduction
    situates its lower bounds against).

    Hash functions come from a caller-supplied public-coin {!hash_spec},
    so independently built samplers (one per vertex) are XOR-compatible:
    the merge of the samplers of a vertex set sketches the XOR of their
    incidence vectors — internal edges cancel, boundary edges survive. *)

type hash_spec

type t

val fresh_spec : Bcclb_util.Rng.t -> hash_spec
(** Draw a hash specification from (public) coins. *)

val equal_spec : hash_spec -> hash_spec -> bool

val create : universe:int -> check_bits:int -> hash_spec -> t
(** Empty sampler over coordinates [0, universe).
    @raise Invalid_argument on empty universe. *)

val toggle : t -> int -> unit
(** Add/remove coordinate (GF(2)). @raise Invalid_argument out of range. *)

val merge : t -> t -> t
(** XOR of two samplers (same spec/universe required). *)

val merge_into : into:t -> t -> unit

val copy : t -> t

val sample : t -> int option
(** A verified member of the sketched set, or [None] (failure probability
    is constant per sampler; boost with independent copies). Never
    returns a coordinate that fails the checksum, so false positives
    occur only on checksum collisions (probability 2^{-check_bits} per
    level). *)

val is_zero : t -> bool
(** The sketched set is surely empty (all aggregates zero). *)

val serialized_bits : t -> int
val to_bits : t -> string
(** '0'/'1' serialisation for broadcasting. *)

val of_bits : universe:int -> check_bits:int -> hash_spec -> string -> t
(** @raise Invalid_argument on length mismatch. *)

val bits_per_level : universe:int -> check_bits:int -> int
val levels_for : universe:int -> int
