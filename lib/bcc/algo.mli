(** A vertex algorithm for the BCC(b) model.

    All n vertices run the same code; a vertex's behaviour may depend only
    on its {!View.t} (initial knowledge) and the messages it has received.
    Round semantics follow §1.2: in round r a vertex receives the round
    r−1 broadcasts ([inbox], indexed by port), computes, and broadcasts a
    message of at most [bandwidth ~n] bits; outputs are produced by
    [finish], which receives the final round's broadcasts.

    States are threaded linearly. Every driver — the engine, {!Split},
    [Kt0_compiler], [Rcc_algo] and [Transcript_scheme] — passes the state
    returned by [init] or [step] to exactly one later [step] or [finish]
    call and never reuses an older one. A state may therefore be updated
    in place and returned as is, as [Adjacency_broadcast], [Discovery],
    [Mt_connectivity] and [Hashed_discovery] do; a new driver must keep
    this contract. *)

type ('s, 'o) t = {
  name : string;
  anonymous : bool;
      (** Declared ID-obliviousness: the algorithm's broadcasts (and hence
          its transcripts) never depend on [View.id] — only on port
          structure, received messages and public coins. On the circulant
          KT-0 instances of §3 this makes transcripts exactly
          rotation-equivariant, which is what licenses the orbit-reduced
          census paths: [code_{ρS}(v+c) = code_S(v)] for every rotation
          ρ : v ↦ v+c. A declaration, not something the type system checks
          — constructors must only set it for genuinely ID-free code. *)
  bandwidth : n:int -> int;  (** b; the simulator rejects wider messages. *)
  rounds : n:int -> int;  (** Declared round bound T(n). *)
  init : View.t -> 's;
  step : 's -> round:int -> inbox:Msg.t Inbox.t -> 's * Msg.t;
      (** Rounds are numbered 1..T; [Inbox.get inbox p] is the message
          that arrived through port [p] (all-[Silent] in round 1). The
          inbox shares the round's emission array with every other
          vertex's: read it, keep it, never mutate it ({!Inbox}). *)
  finish : 's -> inbox:Msg.t Inbox.t -> 'o;
      (** Final output, consuming the round-T broadcasts. *)
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed
(** Existentially hides the state type so heterogeneous algorithm
    families (e.g. all truncations of an optimal algorithm) can share a
    list. *)

val pack : ('s, 'o) t -> 'o packed

val name : 'o packed -> string

val anonymous : 'o packed -> bool
(** The declared {!field-anonymous} flag; gates the orbit-reduced census
    paths. *)

val bandwidth : 'o packed -> n:int -> int
val rounds : 'o packed -> n:int -> int

val bcc1 :
  name:string ->
  rounds:(n:int -> int) ->
  init:(View.t -> 's) ->
  step:('s -> round:int -> inbox:Msg.t Inbox.t -> 's * Msg.t) ->
  finish:('s -> inbox:Msg.t Inbox.t -> 'o) ->
  ('s, 'o) t
(** Convenience constructor with bandwidth fixed to 1 bit and
    [anonymous = false] (the safe declaration). *)

val declare_anonymous : ('s, 'o) t -> ('s, 'o) t
(** Assert ID-obliviousness (see {!field-anonymous}) — the caller's
    obligation, not something the type system verifies. *)

val map_output : ('o -> 'p) -> ('s, 'o) t -> ('s, 'p) t

val truncate : rounds:int -> ('s, 'o) t -> ('s, 'o) t
(** Run only the first [rounds] rounds, then decide from the truncated
    state — the family of t-round algorithms the lower-bound experiments
    quantify over. *)
