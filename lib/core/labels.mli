(** Broadcast-sequence labels of vertices and directed edges under a
    deterministic BCC(1) algorithm (§3.1): the raw material of the
    indistinguishability graph. Labels are packed codes; strings over
    {'0','1','_'} ({!Bcclb_bcc.Transcript.sent_string}) are their
    presentation. *)

val sent_codes : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> int array
(** Per-vertex packed broadcast codes (2 bits per round, LSB-first,
    {!Bcclb_bcc.Msg.code1} alphabet) — the machine-word labels the
    indistinguishability paths compare. Requires a codable algorithm
    ({!Arena.codable}). *)

val string_of_code : rounds:int -> int -> string
(** Decode a packed code to the {'0','1','_'} presentation string. *)

val code_of_string : string -> int
(** Inverse of {!string_of_code}. @raise Invalid_argument off-alphabet. *)

val largest_active_set : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> int
(** Size of the largest same-label edge class in one instance; the
    pigeonhole lower bound of §3 says ≥ n/3^{2t} after t rounds.
    @raise Invalid_argument as {!Arena.require_codable}. *)
