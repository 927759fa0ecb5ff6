open Bcclb_bcc
open Bcclb_graph

(* The dense-graph baseline: in KT-1 BCC(b), vertex v broadcasts its
   adjacency row — bit p says whether port p carries an input edge — b
   bits per round ({!Chunked}; at the default b = 1, bit p goes out in
   round p+1 exactly as before). After ⌈(n−1)/b⌉ rounds everyone holds
   the full adjacency matrix (sender identity is known per port, and the
   sender's port ordering is the shared ID order), so any graph problem
   is solved locally. That matrix is public, so its reconstruction runs
   once per run and is shared by every vertex that heard the same rows
   ({!Chunked.shared}); only the answer is per vertex. Θ(n/b) rounds
   regardless of density — the generic upper bound that the O(log n)
   sparse algorithms beat. *)

type state = { view : View.t; own_bits : string; heard : Bcclb_util.Bits.Seq.seq array }

(* The reconstruction's whole input: every row by sender index. *)
type key = { n : int; bandwidth : int; rows : Bcclb_util.Bits.Seq.seq array }

let memo : (key, Graph.t) Chunked.memo = Chunked.memo ()

let same_key a b = a.n = b.n && a.bandwidth = b.bandwidth && Chunked.same_payloads a.rows b.rows

(* Row q of the sender at index s names the vertex with the (q+1)-th
   smallest ID among the others: the port order of a KT-1 wiring, ours
   included. *)
let reconstruct key =
  let edges = ref [] in
  Array.iteri
    (fun sender row ->
      let row = Chunked.to_bits row in
      for q = 0 to key.n - 2 do
        if row.[q] = '1' then begin
          let other = if q >= sender then q + 1 else q in
          edges := (sender, other) :: !edges
        end
      done)
    key.rows;
  Graph.of_edges ~n:key.n !edges

let make ~name ?(bandwidth = 1) ~finish_of_graph () =
  Chunked.check_bandwidth name bandwidth;
  let rounds ~n = Chunked.rounds ~bits:(n - 1) ~bandwidth in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let ports = View.num_ports view in
      { view;
        own_bits = String.init ports (fun p -> if View.is_input_port view p then '1' else '0');
        heard = Chunked.accumulators ~ports ~bits:ports }
  in
  let step st ~round ~inbox =
    if round >= 2 then Chunked.absorb ~into:st.heard inbox;
    (st, Chunked.emit ~bits:st.own_bits ~bandwidth ~chunk:(round - 1))
  in
  let finish st ~inbox =
    Chunked.absorb ~into:st.heard inbox;
    let own = Chunked.of_bits st.own_bits in
    let key = { n = View.n st.view; bandwidth; rows = Chunked.payloads st.view ~own st.heard } in
    finish_of_graph st (Chunked.shared memo ~equal:same_key key (fun () -> reconstruct key))
  in
  { Algo.name;
    anonymous = false;
    bandwidth = (fun ~n:_ -> bandwidth);
    rounds;
    init;
    step;
    finish }

let connectivity ?bandwidth () =
  Algo.pack
    (make ~name:"adjacency-matrix-connectivity" ?bandwidth
       ~finish_of_graph:(fun _st g -> Graph.is_connected g)
       ())

let components ?bandwidth () =
  Algo.pack
    (make ~name:"adjacency-matrix-components" ?bandwidth
       ~finish_of_graph:(fun st g ->
         let labels = Graph.components g in
         View.id_at st.view (labels.(Chunked.index_of_id st.view (View.id st.view))))
       ())
