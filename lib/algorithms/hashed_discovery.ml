open Bcclb_bcc
open Bcclb_graph
open Bcclb_util

(* A genuinely randomized Monte Carlo TwoCycle algorithm (KT-0 BCC(1)),
   the randomized subject of the Theorem 3.1 experiment: instead of full
   Theta(log n)-bit IDs, vertices broadcast k-bit public-coin HASHES of
   their IDs and run graph discovery on hash values, in 3k rounds.

   Identifying vertices by hash can only merge them, so a hashed
   one-cycle instance always looks connected (no error on YES inputs),
   while a two-cycle instance looks connected iff some cross-cycle pair
   collides — probability roughly 1 - exp(-|C1||C2| / 2^k). This is an
   eps-error Monte Carlo algorithm with 3k = O(log n + log(1/eps))
   rounds, and for k = o(log n) its error is constant: exactly the
   trade-off Theorem 3.1 proves unavoidable.

   Each sender's 3k broadcast bits are three k-bit fields: its own hash
   and its two neighbour hashes. A listener keeps, per port, the bits
   heard so far as one big-endian int and the rounds that were silent as
   another (3k <= 60 bits fit). The state is updated in place: every
   driver threads it linearly (see Algo). *)

type state = {
  view : View.t;
  k : int;
  hash : int;  (* own k-bit hash *)
  heard : int array;  (* per port: bits of the broadcast rounds heard, first round highest *)
  silent : int array;  (* per port: 1 for each heard round that was silent *)
  mutable inboxes : int;  (* inboxes absorbed, the all-silent round-1 one included *)
  mutable nbrs : int array;  (* input-port hashes, ascending; decoded at round k+1 *)
}

(* Public-coin universal-style hash: (a*id + b) mod p, truncated to k
   bits. All vertices draw the same (a, b) from the shared coin stream. *)
let hash_of ~coins ~k id =
  let p = 2147483647 in
  let a = 1 + Rng.int coins (p - 1) in
  let b = Rng.int coins p in
  (((a * id) + b) mod p) land ((1 lsl k) - 1)

(* Inbox r carries the round r−1 broadcasts, so the first inbox carries
   none. Rounds past 3k carry no field and are not kept. *)
let absorb st inbox =
  if st.inboxes >= 1 && st.inboxes <= 3 * st.k then
    for p = 0 to Array.length st.heard - 1 do
      let bit, quiet =
        match Inbox.get inbox p with Msg.Silent -> (0, 1) | Msg.Word b -> (Bool.to_int (Bits.to_bool b), 0)
      in
      st.heard.(p) <- (st.heard.(p) lsl 1) lor bit;
      st.silent.(p) <- (st.silent.(p) lsl 1) lor quiet
    done;
  st.inboxes <- st.inboxes + 1

(* Field [j] (0 = sender's hash, 1 and 2 = its neighbours') heard on
   port [p], or −1 unless all of its k rounds were heard and none was
   silent. *)
let field st p j =
  let heard_rounds = Int.min (st.inboxes - 1) (3 * st.k) in
  let shift = heard_rounds - ((j + 1) * st.k) in
  let mask = (1 lsl st.k) - 1 in
  if shift < 0 || (st.silent.(p) lsr shift) land mask <> 0 then -1
  else (st.heard.(p) lsr shift) land mask

let make ~k () =
  if k < 1 || k > 20 then invalid_arg "Hashed_discovery.make: k out of range";
  let name = Printf.sprintf "hashed-discovery[k=%d]" k in
  let rounds ~n:_ = 3 * k in
  let init view =
    if View.degree view > 2 then invalid_arg (name ^ ": needs a 2-regular input");
    let ports = View.num_ports view in
    { view; k;
      hash = hash_of ~coins:(View.coins view) ~k (View.id view);
      heard = Array.make ports 0;
      silent = Array.make ports 0;
      inboxes = 0;
      nbrs = [||] }
  in
  (* Schedule: rounds 1..k own hash; rounds k+1..3k the two neighbour
     hashes (decoded from what arrived on the input ports). *)
  let step st ~round ~inbox =
    absorb st inbox;
    if round = st.k + 1 then begin
      let heard p = match field st p 0 with -1 -> None | h -> Some h in
      let hs = List.filter_map heard (View.input_ports st.view) in
      st.nbrs <- Array.of_list (List.sort Int.compare hs)
    end;
    let value, pos =
      if round <= st.k then (st.hash, round - 1)
      else begin
        let r = round - st.k - 1 in
        let block = r / st.k in
        ((if block < Array.length st.nbrs then st.nbrs.(block) else 0), r mod st.k)
      end
    in
    (st, Codec.msg_of_bit (Codec.bit_of_int ~width:st.k ~pos value))
  in
  (* Link every heard sender hash with both of its neighbour hashes, and
     our own hash with ours; connected iff the linked hashes form one
     class. Only the ≤ 2·ports + 2 links heard are indexed, never the
     2^k buckets: link i joins ends.(2i) and ends.(2i+1). *)
  let finish st ~inbox =
    absorb st inbox;
    let ports = Array.length st.heard in
    let ends = Array.make (4 * (ports + 1)) 0 in
    let m = ref 0 in
    let link a b =
      ends.(!m) <- a;
      ends.(!m + 1) <- b;
      m := !m + 2
    in
    Array.iter (link st.hash) st.nbrs;
    for p = 0 to ports - 1 do
      let sender = field st p 0 in
      if sender >= 0 then
        for j = 1 to 2 do
          let h = field st p j in
          if h >= 0 then link sender h
        done
    done;
    (* Dense index of the distinct hashes, in order of first mention:
       open addressing on the low bits (the hashes are uniform), in a
       table at least twice as large as the ends. Sorting the ends or a
       stdlib Hashtbl costs this call 2-4x more, and finish runs once
       per vertex per execution. *)
    let size = ref 1 in
    while !size < 2 * !m do
      size := 2 * !size
    done;
    let mask = !size - 1 in
    let slots = Array.make !size (-1) and ids = Array.make !size 0 in
    let d = ref 0 in
    for i = 0 to !m - 1 do
      let h = ends.(i) in
      let s = ref (h land mask) in
      while slots.(!s) >= 0 && slots.(!s) <> h do
        s := (!s + 1) land mask
      done;
      if slots.(!s) < 0 then begin
        slots.(!s) <- h;
        ids.(!s) <- !d;
        incr d
      end;
      ends.(i) <- ids.(!s)
    done;
    let uf = Conn.create !d in
    for i = 0 to (!m / 2) - 1 do
      ignore (Conn.union uf ends.(2 * i) ends.((2 * i) + 1))
    done;
    Conn.components uf <= 1
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let connectivity ~k = Algo.pack (make ~k ())

(* Cross-cycle collision probability for two cycles of sizes (s, n-s):
   1 - prod over pairs is pessimistic; the union bound s(n-s)/2^k is the
   convenient analytic companion printed next to measured error. *)
let predicted_error ~n ~k =
  let s = float_of_int (n / 2) in
  let pairs = s *. (float_of_int n -. s) in
  min 1.0 (pairs /. float_of_int (1 lsl k))
