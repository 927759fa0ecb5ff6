open Bcclb_bcc
open Bcclb_graph
open Bcclb_algorithms
open Bcclb_util

(* Parity oracle for Hashed_discovery: the history-decoding formulation.
   Every round it reassembles each port's whole broadcast sequence from
   the inbox history and decodes the neighbour hashes afresh; [finish]
   links hashes in a union-find over all 2^k buckets. Quadratic in the
   round count and O(2^k) per vertex, but every decode is the plain
   Codec one, so it pins the semantics the incremental production
   version must reproduce exactly: outputs and transcripts. *)

type state = {
  view : View.t;
  k : int;
  hash : int;
  inboxes : Msg.t Inbox.t list;
}

let hash_of ~coins ~k id =
  let p = 2147483647 in
  let a = 1 + Rng.int coins (p - 1) in
  let b = Rng.int coins p in
  (((a * id) + b) mod p) land ((1 lsl k) - 1)

let make ~k () =
  if k < 1 || k > 20 then invalid_arg "Hashed_reference.make: k out of range";
  let name = Printf.sprintf "hashed-discovery[k=%d]" k in
  let rounds ~n:_ = 3 * k in
  let init view =
    if View.degree view > 2 then invalid_arg (name ^ ": needs a 2-regular input");
    { view; k; hash = hash_of ~coins:(View.coins view) ~k (View.id view); inboxes = [] }
  in
  let neighbor_hashes st =
    let seqs = Discovery_reference.broadcast_sequences ~num_ports:(View.num_ports st.view) ~inboxes:(List.rev st.inboxes) in
    List.filter_map
      (fun p ->
        let v, ok = Codec.decode_int ~first:1 ~width:st.k seqs.(p) in
        if ok then Some v else None)
      (View.input_ports st.view)
  in
  let step st ~round ~inbox =
    let st = { st with inboxes = inbox :: st.inboxes } in
    let msg =
      if round <= st.k then Codec.msg_of_bit (Codec.bit_of_int ~width:st.k ~pos:(round - 1) st.hash)
      else begin
        let r = round - st.k - 1 in
        let block = r / st.k and pos = r mod st.k in
        let nbrs = List.sort Int.compare (neighbor_hashes st) in
        let value = match List.nth_opt nbrs block with Some h -> h | None -> 0 in
        Codec.msg_of_bit (Codec.bit_of_int ~width:st.k ~pos value)
      end
    in
    (st, msg)
  in
  let finish st ~inbox =
    let inboxes = List.rev (inbox :: st.inboxes) in
    let seqs = Discovery_reference.broadcast_sequences ~num_ports:(View.num_ports st.view) ~inboxes in
    let buckets = 1 lsl st.k in
    let uf = Conn.create buckets in
    let touched = Array.make buckets false in
    let link h1 h2 =
      touched.(h1) <- true;
      touched.(h2) <- true;
      ignore (Conn.union uf h1 h2)
    in
    List.iter (fun h -> link st.hash h) (neighbor_hashes st);
    for p = 0 to View.num_ports st.view - 1 do
      let sender, ok0 = Codec.decode_int ~first:1 ~width:st.k seqs.(p) in
      let n1, ok1 = Codec.decode_int ~first:(st.k + 1) ~width:st.k seqs.(p) in
      let n2, ok2 = Codec.decode_int ~first:((2 * st.k) + 1) ~width:st.k seqs.(p) in
      if ok0 && ok1 then link sender n1;
      if ok0 && ok2 then link sender n2
    done;
    let root = ref (-1) in
    let connected = ref true in
    for h = 0 to buckets - 1 do
      if touched.(h) then begin
        let r = Conn.find uf h in
        if !root = -1 then root := r else if r <> !root then connected := false
      end
    done;
    !connected
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let connectivity ~k = Algo.pack (make ~k ())
