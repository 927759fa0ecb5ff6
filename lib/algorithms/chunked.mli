(** Chunked bit-payload broadcasting: the shared BCC(b) plumbing of the
    KT-1 sketch families, and the one module that knows their payload
    wire layout. A vertex's per-phase payload is a '0'/'1' string; it is
    broadcast b bits per round, MSB-first (the final chunk may be
    narrower), and receivers re-accumulate each port's bits in a packed
    {!Bcclb_util.Bits.Seq} in payload order. At b = 1 this degenerates to
    exactly the bit-at-a-time protocol the BCC(1) algorithms always
    spoke.

    The families decode {e public} knowledge — every vertex holds the
    same payloads indexed by the same sorted-ID positions — so the decode
    is computed once per run and reused by every vertex whose whole
    decode input equals it ({!shared}). *)

val check_bandwidth : string -> int -> unit
(** @raise Invalid_argument (prefixed with the algorithm name) unless
    1 ≤ b ≤ {!Bcclb_util.Bits.max_width}. *)

val rounds : bits:int -> bandwidth:int -> int
(** ⌈bits / bandwidth⌉. *)

val emit : bits:string -> bandwidth:int -> chunk:int -> Bcclb_bcc.Msg.t
(** The [chunk]-th (0-based) b-bit slice of the payload as a word. *)

val accumulators : ports:int -> bits:int -> Bcclb_util.Bits.Seq.seq array
(** Fresh empty per-port accumulators sized for [bits]-bit payloads. *)

val absorb : into:Bcclb_util.Bits.Seq.seq array -> Bcclb_bcc.Msg.t Bcclb_bcc.Inbox.t -> unit
(** Append each port's received word to its accumulator, most
    significant bit first (silent ports contribute nothing). *)

val of_bits : string -> Bcclb_util.Bits.Seq.seq
(** A payload string as an accumulator that heard all of it holds it. *)

val to_bits : Bcclb_util.Bits.Seq.seq -> string
(** Inverse of {!of_bits}: the accumulated bits as the MSB-first
    '0'/'1' string the sketch deserialisers take. *)

val index_of_id : Bcclb_bcc.View.t -> int -> int
(** Position of an ID in the KT-1 view's sorted ID order.
    @raise Invalid_argument on an unknown ID or a KT-0 view. *)

val payloads :
  Bcclb_bcc.View.t -> own:Bcclb_util.Bits.Seq.seq -> Bcclb_util.Bits.Seq.seq array ->
  Bcclb_util.Bits.Seq.seq array
(** [payloads view ~own heard]: every vertex's payload indexed by the
    sender's position in the sorted ID order — [heard.(p)] at the index
    of the ID behind port [p], [own] at the vertex's own index. *)

val same_payloads : Bcclb_util.Bits.Seq.seq array -> Bcclb_util.Bits.Seq.seq array -> bool
(** Equal lengths and {!Bcclb_util.Bits.Seq.equal} at every index. *)

type ('k, 'v) memo
(** A one-entry, per-domain cache of a public decode. *)

val memo : unit -> ('k, 'v) memo
(** A fresh cache; each algorithm family creates one at module level. *)

val shared : ('k, 'v) memo -> equal:('k -> 'k -> bool) -> 'k -> (unit -> 'v) -> 'v
(** [shared m ~equal key decode] returns the calling domain's cached
    value when its key is [equal] to [key] — the full decode input,
    never a hash of it — and otherwise runs [decode ()] and caches the
    result under [key]. [decode] must be a pure function of [key], and
    neither the key nor the value may be mutated afterwards. *)
