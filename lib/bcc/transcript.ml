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

(* The received traffic is either the run's sent record read through the
   vertex's port row — what [Simulator.run] builds, so a run stores no
   inbox — or a copied matrix ([make], for tests and hand-built
   transcripts). [received_at] is the one reader; packing, equality and
   [received] all go through it. *)
type traffic =
  | Record of { sent_all : Msg.t array array; ports : int array }
      (* sent_all.(u).(r-1): vertex u's round-r broadcast *)
  | Copied of Msg.t array array  (* received.(r-1).(p) *)

(* The fingerprint is built on first use too: a KT-1 view prints O(n) IDs. *)
type fingerprint = Known of string | Of_view of View.t

type t = {
  mutable fingerprint : fingerprint;
  sent : Msg.t array;
  num_ports : int;
  traffic : traffic;
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
  if Array.length received <> Array.length sent then
    invalid_arg "Transcript.make: sent and received cover different rounds";
  { fingerprint = Known fingerprint;
    sent;
    num_ports = (if Array.length received = 0 then 0 else Array.length received.(0));
    traffic = Copied received;
    packed = None;
    sent_code = None }

let of_run ~view ~sent_all ~ports v =
  { fingerprint = Of_view view;
    sent = sent_all.(v);
    num_ports = Array.length ports;
    traffic = Record { sent_all; ports };
    packed = None;
    sent_code = None }

let rounds t = Array.length t.sent

(* Round r's inbox carries the round r−1 broadcasts; round 1 hears ⊥. *)
let received_at t r p =
  match t.traffic with
  | Copied m -> m.(r - 1).(p)
  | Record { sent_all; ports } -> if r = 1 then Msg.silent else sent_all.(ports.(p)).(r - 2)

let packed t =
  match t.packed with
  | Some p -> p
  | None ->
    let p = Bits.Seq.create ~capacity:(8 * rounds t * (t.num_ports + 1)) () in
    Array.iter (fun m -> pack_msg p m) t.sent;
    for r = 1 to rounds t do
      for q = 0 to t.num_ports - 1 do
        pack_msg p (received_at t r q)
      done
    done;
    t.packed <- Some p;
    p

let fingerprint t =
  match t.fingerprint with
  | Known s -> s
  | Of_view view ->
    let s = View.fingerprint view in
    t.fingerprint <- Known s;
    s

let sent t r =
  if r < 1 || r > rounds t then invalid_arg "Transcript.sent: round out of range";
  t.sent.(r - 1)

let received t r p =
  if r < 1 || r > rounds t then invalid_arg "Transcript.received: round out of range";
  if p < 0 || p >= t.num_ports then invalid_arg "Transcript.received: port out of range";
  received_at t r p

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
  String.equal (fingerprint a) (fingerprint b)
  && rounds a = rounds b
  && (rounds a = 0 || a.num_ports = b.num_ports)
  && Bits.Seq.equal (packed a) (packed b)

let bits_broadcast t = Array.fold_left (fun acc m -> acc + Msg.width m) 0 t.sent

let pp fmt t =
  Format.fprintf fmt "@[<v>sent: %s@]"
    (String.concat "," (Array.to_list (Array.map Msg.to_string t.sent)))
