module Bits = Bcclb_util.Bits

(* A transcript keeps the per-round message structure for callers that
   inspect it, plus a packed twin built on first use: every message of
   the sent-then-received traffic is encoded as a 6-bit width followed by
   its value bits. The encoding is a prefix code, so two transcripts with
   the same dimensions are equal iff their packed twins are equal — one
   bytewise Bits.Seq compare instead of O(rounds * ports) message
   compares. For BCC(1) traffic the broadcast sequence additionally packs
   into 2 bits per round ([sent_code]), the representation the §3 label
   machinery compares and hashes.

   Most runs never compare or label their transcripts, so both encodings
   are built lazily and cached in mutable fields. Not [Lazy.t]: forcing
   one lazy from two domains at once raises. Two domains filling the
   same field race benignly — each builds an equal encoding from the
   immutable traffic and either store may win. *)

type t = {
  fingerprint : string;
  sent : Msg.t array;
  received : Msg.t array array;
  mutable packed : Bits.Seq.seq option;
  mutable sent_code : Bits.Seq.seq option;
}

let pack_msg seq m =
  match m with
  | Msg.Silent -> Bits.Seq.append_word seq ~width:6 ~value:0
  | Msg.Word b ->
    Bits.Seq.append_word seq ~width:6 ~value:(Bits.width b);
    Bits.Seq.append seq b

let make ~fingerprint ~sent ~received =
  { fingerprint; sent; received; packed = None; sent_code = None }

let rounds t = Array.length t.sent

let packed t =
  match t.packed with
  | Some p -> p
  | None ->
    let ports = if Array.length t.received = 0 then 0 else Array.length t.received.(0) in
    let p = Bits.Seq.create ~capacity:(8 * rounds t * (ports + 1)) () in
    Array.iter (fun m -> pack_msg p m) t.sent;
    Array.iter (fun row -> Array.iter (fun m -> pack_msg p m) row) t.received;
    t.packed <- Some p;
    p

let fingerprint t = t.fingerprint

let sent t r =
  if r < 1 || r > rounds t then invalid_arg "Transcript.sent: round out of range";
  t.sent.(r - 1)

let received t r p =
  if r < 1 || r > rounds t then invalid_arg "Transcript.received: round out of range";
  t.received.(r - 1).(p)

let sent_sequence t = Array.copy t.sent

let sent_code t =
  match t.sent_code with
  | Some c -> c
  | None ->
    if not (Array.for_all (fun m -> Msg.width m <= 1) t.sent) then
      invalid_arg "Transcript.sent_code: a message is wider than 1 bit";
    let code = Bits.Seq.create ~capacity:(2 * rounds t) () in
    Array.iter (fun m -> Bits.Seq.append_word code ~width:2 ~value:(Msg.code1 m)) t.sent;
    t.sent_code <- Some code;
    code

(* Thin view over the packed code: decode 2-bit codes back to chars. *)
let sent_string t =
  let code = sent_code t in
  String.init (rounds t) (fun i ->
      Msg.char_of_code1 (Bits.value (Bits.Seq.word code ~pos:(2 * i) ~len:2)))

let equal a b =
  String.equal a.fingerprint b.fingerprint
  && Array.length a.sent = Array.length b.sent
  && Array.length a.received = Array.length b.received
  && (Array.length a.received = 0
     || Array.length a.received.(0) = Array.length b.received.(0))
  && Bits.Seq.equal (packed a) (packed b)

let bits_broadcast t = Array.fold_left (fun acc m -> acc + Msg.width m) 0 t.sent

let pp fmt t =
  Format.fprintf fmt "@[<v>sent: %s@]"
    (String.concat "," (Array.to_list (Array.map Msg.to_string t.sent)))
