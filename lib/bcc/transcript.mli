(** The transcript of a vertex after T rounds (§1.2): everything it sent,
    everything it received per port, plus its initial-knowledge
    fingerprint. Two instances are indistinguishable after T rounds of an
    algorithm iff every vertex has {!equal} transcripts in both — the
    relation at the heart of §3. *)

type t

val make : fingerprint:string -> sent:Msg.t array -> received:Msg.t array array -> t
(** [sent.(r-1)] is the round-r broadcast; [received.(r-1).(p)] is what
    arrived in round r through port p.
    @raise Invalid_argument if the two arrays cover different rounds. *)

val of_run : view:View.t -> sent_all:Msg.t array array -> ports:int array -> int -> t
(** [of_run ~view ~sent_all ~ports v]: vertex [v]'s transcript read from
    a BCC run's sent record, [sent_all.(u).(r-1)] being vertex [u]'s
    round-r broadcast, through [v]'s port row [ports]. Nothing is copied:
    what arrived in round r through port p is [sent_all.(ports.(p)).(r-2)]
    (⊥ in round 1), and the fingerprint is [View.fingerprint view], built
    on first use. Neither array may be mutated afterwards. *)

val rounds : t -> int

val fingerprint : t -> string
(** {!View.fingerprint} of the vertex at round 0, built on first use and
    cached. *)

val sent : t -> int -> Msg.t
(** [sent t r], rounds numbered from 1. @raise Invalid_argument. *)

val received : t -> int -> int -> Msg.t
(** [received t r p]: what arrived in round [r] through port [p] — ⊥ in
    round 1, else the round r−1 broadcast of the peer behind [p].
    @raise Invalid_argument on a bad round or port. *)

val sent_sequence : t -> Msg.t array

val sent_code : t -> Bcclb_util.Bits.Seq.seq
(** The BCC(1) broadcast sequence packed 2 bits per round
    ({!Msg.code1} codes), computed on first use and cached: repeated
    calls return the same sequence — the representation the §3 label
    machinery compares and hashes. Do not mutate.
    @raise Invalid_argument if some message is wider than 1 bit; only
    this call and {!sent_string} refuse such a transcript. *)

val sent_string : t -> string
(** BCC(1) broadcast sequence over the alphabet {'0','1','_'} — the
    strings x, y that label edges in Definition 3.6. A thin compatibility
    view decoding {!sent_code}.
    @raise Invalid_argument if some message is wider than 1 bit. *)

val equal : t -> t -> bool
(** Same initial knowledge and identical per-round, per-port traffic.
    Compares the packed encodings, built on first use and cached:
    O(traffic bits / 8), not per-message. *)

val bits_broadcast : t -> int
(** Total bits this vertex broadcast (silence counts 0). *)

val pp : Format.formatter -> t -> unit
