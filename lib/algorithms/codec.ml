open Bcclb_bcc

(* Big-endian bit schedules for multi-round broadcasts in BCC(1). *)

let bit_of_int ~width ~pos v =
  if pos < 0 || pos >= width then invalid_arg "Codec.bit_of_int: position out of range";
  (v lsr (width - 1 - pos)) land 1 = 1

let msg_of_bit b = Msg.of_bit b

(* Decode big-endian bits broadcast during rounds [first..first+width-1]
   from one sender's broadcast sequence. Silent rounds decode as 0 and are
   reported, so truncated executions can be detected. *)
let decode_int ~first ~width broadcasts =
  let missing = ref false in
  let v = ref 0 in
  for k = 0 to width - 1 do
    let r = first + k in
    let bit =
      if r - 1 >= Array.length broadcasts then begin
        missing := true;
        false
      end
      else begin
        match broadcasts.(r - 1) with
        | Msg.Silent ->
          missing := true;
          false
        | Msg.Word b -> Bcclb_util.Bits.to_bool b
      end
    in
    v := (!v lsl 1) lor (if bit then 1 else 0)
  done;
  (!v, not !missing)

let id_width ~n = Bcclb_util.Mathx.ceil_log2 (n + 1)
