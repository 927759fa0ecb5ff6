open Bcclb_bcc
module Bits = Bcclb_util.Bits
module Seq = Bits.Seq

let check_bandwidth name b =
  if b < 1 || b > Bits.max_width then
    invalid_arg (Printf.sprintf "%s: bandwidth %d outside [1, %d]" name b Bits.max_width)

let rounds ~bits ~bandwidth = (bits + bandwidth - 1) / bandwidth

let emit ~bits ~bandwidth ~chunk =
  let lo = chunk * bandwidth in
  let width = min bandwidth (String.length bits - lo) in
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 1) lor (if bits.[lo + i] = '1' then 1 else 0)
  done;
  Msg.of_int ~width !v

let accumulators ~ports ~bits = Array.init ports (fun _ -> Seq.create ~capacity:bits ())

(* A sequence appends a word low bit first, and a chunk's first payload
   bit is its most significant one: reverse, so that bit i of the
   accumulator is bit i of the payload whatever the chunk widths. A byte
   at a time, low byte first: each lands above the ones after it. *)
let reversed_byte =
  Array.init 256 (fun b ->
      let r = ref 0 in
      for i = 0 to 7 do
        r := (!r lsl 1) lor ((b lsr i) land 1)
      done;
      !r)

let reverse ~width v =
  let r = ref 0 and v = ref v and left = ref width in
  while !left >= 8 do
    r := (!r lsl 8) lor reversed_byte.(!v land 255);
    v := !v lsr 8;
    left := !left - 8
  done;
  (!r lsl !left) lor (reversed_byte.(!v) lsr (8 - !left))

let absorb ~into inbox =
  Inbox.iteri
    (fun p m ->
      match m with
      | Msg.Word w ->
        let width = Bits.width w in
        Seq.append_word into.(p) ~width ~value:(reverse ~width (Bits.value w))
      | Msg.Silent -> ())
    inbox

let of_bits bits =
  let s = Seq.create ~capacity:(String.length bits) () in
  String.iter (fun c -> Seq.append_bit s (c = '1')) bits;
  s

let to_bits s = String.init (Seq.length s) (fun i -> if Seq.get s i then '1' else '0')

let index_of_id view id =
  let all =
    match View.kt1 view with Some k -> k.View.all_ids | None -> invalid_arg "Chunked: needs a KT-1 view"
  in
  let rec go lo hi =
    if lo >= hi then invalid_arg "Chunked: unknown id"
    else begin
      let mid = (lo + hi) / 2 in
      if all.(mid) = id then mid else if all.(mid) < id then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length all)

let payloads view ~own heard =
  let out = Array.make (View.n view) own in
  Array.iteri (fun p s -> out.(index_of_id view (View.neighbor_id view p)) <- s) heard;
  out

let same_payloads a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x == y || Seq.equal x y) a b

(* One entry per domain: a run's vertices are stepped in lockstep on
   one domain, so the first vertex to reach a decode fills the entry and
   the other n − 1 find it. Domains never share an entry. *)
type ('k, 'v) memo = ('k * 'v) option Domain.DLS.key

let memo () = Domain.DLS.new_key (fun () -> None)

let shared m ~equal key decode =
  match Domain.DLS.get m with
  | Some (k, v) when equal k key -> v
  | _ ->
    let v = decode () in
    Domain.DLS.set m (Some (key, v));
    v
