(** The transcript of a vertex after T rounds (§1.2): everything it sent,
    everything it received per port, plus its initial-knowledge
    fingerprint. Two instances are indistinguishable after T rounds of an
    algorithm iff every vertex has {!equal} transcripts in both — the
    relation at the heart of §3. *)

type t

val make : fingerprint:string -> sent:Msg.t array -> received:Msg.t array array -> t
(** [sent.(r-1)] is the round-r broadcast; [received.(r-1).(p)] is what
    arrived in round r through port p. *)

val rounds : t -> int

val fingerprint : t -> string
(** {!View.fingerprint} of the vertex at round 0. *)

val sent : t -> int -> Msg.t
(** [sent t r], rounds numbered from 1. @raise Invalid_argument. *)

val received : t -> int -> int -> Msg.t
(** [received t r p]. @raise Invalid_argument on bad round. *)

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
