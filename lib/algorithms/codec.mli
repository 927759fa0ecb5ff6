(** Bit-level encoding helpers shared by the BCC(1) algorithms: integers
    are broadcast big-endian over consecutive rounds, one bit per round. *)

val bit_of_int : width:int -> pos:int -> int -> bool
(** Bit [pos] (0 = most significant) of a [width]-bit integer.
    @raise Invalid_argument out of range. *)

val msg_of_bit : bool -> Bcclb_bcc.Msg.t

val decode_int : first:int -> width:int -> Bcclb_bcc.Msg.t array -> int * bool
(** Decode the integer broadcast in rounds [first..first+width−1] of a
    sender's broadcast sequence. Returns [(value, complete)]; missing or
    silent rounds decode as 0 bits with [complete = false], so truncated
    algorithms can fall back to guessing. *)

val id_width : n:int -> int
(** Bits needed for IDs under the repository's default ID space 1..n. *)
