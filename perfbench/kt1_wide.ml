(* kt1-wide: a few large KT-1 executions, where the engine's n² exchange
   and MT's replicated public state dominate. Every decision is checked
   against the Conn oracle and every run against its declared rounds.
   The dense-gnp MT run is off MT's promise: its disagreement with the
   oracle is counted as a wrong answer, never hidden and never excused
   on an on-promise run. *)

open Bcclb_bcc
module Gen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng
module A = Bcclb_algorithms

type expect =
  | Exact  (** Must agree with the oracle. *)
  | Off_promise  (** Disagreement is a wrong answer, not a failure. *)
  | Control  (** Engine-only: no decision to check. *)

type op = {
  label : string;
  algo : bool Algo.packed;
  graph : Bcclb_graph.Graph.t;
  inst : Instance.t;
  coin : int;
  expect : expect;
}

let setup ~seed ~dir:_ ~traced =
  let rng = Rng.create ~seed:(7000 + seed) in
  let graph make = make (Rng.split rng) in
  let deg4_256 = graph (fun r -> Gen.random_bounded_degree r 256 4) in
  let cycles_256 = graph (fun r -> Gen.random_multicycle r 256) in
  let gnp_128 = graph (fun r -> Gen.gnp r 128 0.3) in
  let deg4_64 = graph (fun r -> Gen.random_bounded_degree r 64 4) in
  let cycles_64 = graph (fun r -> Gen.random_multicycle r 64) in
  let deg4_512 = graph (fun r -> Gen.random_bounded_degree r 512 4) in
  let coin = Rng.int rng 1_000_000 in
  let inst = Instance.kt1_of_graph in
  let mt = A.Mt_connectivity.connectivity () and agm = A.Agm_connectivity.connectivity ~bandwidth:8 () in
  let op label family algo graph expect =
    let algo = if traced then Layers.wrap family algo else algo in
    { label; algo; graph; inst = inst graph; coin; expect }
  in
  let ops =
    [ op "mt/deg4/n=256" Mt mt deg4_256 Exact;
      op "mt/multicycle/n=256" Mt mt cycles_256 Exact;
      op "mt/gnp0.3/n=128" Mt mt gnp_128 Off_promise;
      op "agm/deg4/n=64" Agm agm deg4_64 Exact;
      op "agm/multicycle/n=64" Agm agm cycles_64 Exact;
      op "adj/deg4/n=256" Adj (A.Adjacency_matrix.connectivity ~bandwidth:8 ()) deg4_256 Exact;
      op "chatter/deg4/n=512" Other (A.Trivial.chatter ~rounds:30 ()) deg4_512 Control ]
  in
  fun () ->
    List.iter
      (fun o ->
        Tally.op ~traced ~label:o.label (fun () ->
            let r = Layers.simulate ~traced ~seed:o.coin o.algo o.inst in
            let n = Instance.n o.inst in
            let declared = Algo.rounds o.algo ~n in
            if r.Simulator.rounds_used <> declared then
              Tally.fail "%s: used %d rounds, declared %d" o.label r.Simulator.rounds_used declared;
            if o.expect <> Control then begin
              let decision = Problems.system_decision r.Simulator.outputs in
              let truth = Layers.connected ~traced o.graph in
              if decision <> truth then
                if o.expect = Exact then
                  Tally.fail "%s: answered %b, oracle says %b" o.label decision truth
                else begin
                  incr Tally.wrong;
                  Printf.eprintf "[perfbench] %s: off-promise wrong answer (%b, oracle %b)\n%!"
                    o.label decision truth
                end
            end))
      ops
