open Bcclb_bcc
module Engine = Bcclb_engine.Engine
module Observer = Bcclb_engine.Observer
module Topology = Bcclb_engine.Topology

(* The §4.3 reduction: two parties jointly simulate a KT-1 BCC(b)
   algorithm on a vertex-partitioned input graph. Both know all IDs (and
   hence the KT-1 wiring); each knows only the edges incident to its
   hosted vertices — exactly the initial knowledge of those vertices. Per
   round, each party sends the broadcast characters of its hosted
   vertices in increasing ID order; each character ranges over
   {⊥} ∪ {0,1}^{<=b} and is encoded in b+1 bits. For BCC(1) that is 2
   bits per character: O(n) bits per simulated round, the O(rn) total of
   Theorem 4.4's proof. *)

type 'o result = {
  outputs : 'o array;
  rounds : int;
  chars_per_round : int;  (* characters exchanged per round, both parties *)
  bits_total : int;
  bits_alice : int;
  bits_bob : int;
}

let char_bits ~b = b + 1

let run ?(seed = 0) (Algo.Packed a) g ~alice_hosts =
  let inst = Instance.kt1_of_graph g in
  let n = Instance.n inst in
  let b = a.Algo.bandwidth ~n in
  let total_rounds = a.Algo.rounds ~n in
  let hosted_by_alice = Array.init n (fun v -> alice_hosts v) in
  let bits_alice = ref 0 and bits_bob = ref 0 in
  (* Each party computes its hosted vertices' broadcasts and ships them to
     the other party, b+1 bits per character; after the exchange both
     parties know all broadcasts and can build every hosted vertex's next
     inbox from the shared wiring. *)
  let accountant =
    Observer.make
      ~on_emit:(fun ~round:_ ~vertex ~inbox:_ ~emit ->
        if Msg.width emit > b then invalid_arg "Bcc_simulation.run: bandwidth violation";
        let cost = char_bits ~b in
        if hosted_by_alice.(vertex) then bits_alice := !bits_alice + cost
        else bits_bob := !bits_bob + cost)
      ()
  in
  let outcome =
    Engine.run ~observers:[ accountant ]
      { Engine.n;
        rounds = total_rounds;
        step = (fun state ~round ~vertex:_ ~inbox -> a.Algo.step state ~round ~inbox);
        exchange = Topology.broadcast ~n ~ports:(Instance.ports inst) }
      ~init_state:(fun v ->
        (* Each party initialises only its hosted vertices: a view depends
           only on IDs (shared knowledge) and the vertex's incident edges
           (the host's knowledge). *)
        a.Algo.init (Instance.view ~coins_seed:seed inst v))
      ~init_inbox:(fun _ -> Inbox.make (n - 1) Msg.silent)
  in
  let outputs =
    Array.init n (fun v -> a.Algo.finish outcome.Engine.states.(v) ~inbox:outcome.Engine.final_inbox.(v))
  in
  { outputs;
    rounds = total_rounds;
    chars_per_round = n;
    bits_total = !bits_alice + !bits_bob;
    bits_alice = !bits_alice;
    bits_bob = !bits_bob }

(* Reduction pipelines: Partition -> 2-party Connectivity -> KT-1 BCC. *)

type partition_result = { answer : bool; bits : int; bcc_rounds : int; gadget_n : int }

let partition_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.alice_hosts ~n) in
  { answer = Problems.system_decision r.outputs;
    bits = r.bits_total;
    bcc_rounds = r.rounds;
    gadget_n = Bcclb_graph.Graph.n g }

let two_partition_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.two_gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.two_alice_hosts ~n) in
  { answer = Problems.system_decision r.outputs;
    bits = r.bits_total;
    bcc_rounds = r.rounds;
    gadget_n = Bcclb_graph.Graph.n g }

(* PartitionComp via a KT-1 ConnectedComponents algorithm (Theorem 4.5's
   reduction): run the components algorithm on the gadget and read the
   join off the labels of the element-vertices. *)
let partition_comp_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.alice_hosts ~n) in
  let labels = Array.init n (fun i -> r.outputs.(Reduction_graph.vertex_l ~n i)) in
  (Bcclb_partition.Set_partition.of_labels labels, r)
