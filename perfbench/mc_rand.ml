(* mc-rand: the E3b grid (experiment kt0-error-rand) run directly —
   hashed discovery at k in {1,...,12}, n in {16, 32}, 200 YES and 200 NO
   circulant KT-0 instances per (n, k). At seed 0 the instances and coins
   are exactly E3b's (cell rng 4000 + n + k, coin seed = trial index), so
   the rendered error table must match the committed E3b table byte for
   byte. *)

open Bcclb_bcc
module Gen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng
module H = Bcclb_harness
module Hashed = Bcclb_algorithms.Hashed_discovery

let ns = [ 16; 32 ]
let ks = [ 1; 2; 3; 4; 6; 8; 10; 12 ]
let trials = 200

type item = { graph : Bcclb_graph.Graph.t; inst : Instance.t; coin : int; yes : bool; label : string }

type cell = {
  n : int;
  k : int;
  algo : bool Algo.packed;
  rounds : int;
  items : item array;
  mutable errs_yes : int;
  mutable errs_no : int;
}

let cells ~seed ~traced =
  List.concat_map
    (fun n ->
      List.map
        (fun k ->
          let rng = Rng.create ~seed:(4000 + n + k + (seed * 1_000_003)) in
          let item i graph yes =
            { graph; inst = Instance.kt0_circulant graph; coin = i + 1 + (seed * 1000); yes;
              label = Printf.sprintf "n=%d k=%d trial=%d %s" n k (i + 1) (if yes then "yes" else "no") }
          in
          let items =
            List.init trials (fun i ->
                let yes = Gen.random_cycle rng n in
                let no = Gen.random_two_cycles rng n in
                [ item i yes true; item i no false ])
          in
          let algo = Hashed.connectivity ~k in
          { n; k;
            algo = (if traced then Layers.wrap Layers.Hashed algo else algo);
            rounds = Algo.rounds algo ~n;
            items = Array.of_list (List.concat items);
            errs_yes = 0;
            errs_no = 0 })
        ks)
    ns

let experiment () =
  match H.Registry.find "kt0-error-rand" with
  | Some e -> e
  | None -> failwith "kt0-error-rand is not registered"

let run_item ~traced c it =
  Tally.op ~traced ~label:it.label (fun () ->
      let r = Layers.simulate ~traced ~seed:it.coin c.algo it.inst in
      let decision = Problems.system_decision r.Simulator.outputs in
      let truth = Layers.connected ~traced it.graph in
      if truth <> it.yes then Tally.fail "%s: generator and oracle disagree" it.label;
      if r.Simulator.rounds_used <> c.rounds then
        Tally.fail "%s: used %d rounds, declared %d" it.label r.Simulator.rounds_used c.rounds;
      (* One-sided: a YES instance is never rejected. A NO instance
         accepted is the Monte Carlo error E3b measures — a wrong answer,
         not a failure. *)
      if decision <> truth then
        if truth then begin
          c.errs_yes <- c.errs_yes + 1;
          Tally.fail "%s: YES instance rejected" it.label
        end
        else begin
          c.errs_no <- c.errs_no + 1;
          incr Tally.wrong
        end)

let row c =
  let rate x = float_of_int x /. float_of_int trials in
  H.Experiment.row
    [ ("n", H.Params.Int c.n); ("k", H.Params.Int c.k); ("rounds", H.Params.Int c.rounds);
      ("err_yes", H.Params.Float (rate c.errs_yes)); ("err_no", H.Params.Float (rate c.errs_no));
      ("pred_no", H.Params.Float (Hashed.predicted_error ~n:c.n ~k:c.k)) ]

let setup ~seed ~dir:_ ~traced =
  let exp = experiment () in
  let golden = if seed = 0 then Some (Golden.read "kt0-error-rand.txt") else None in
  let cells = cells ~seed ~traced in
  fun () ->
    (* Trial-major: every stretch of the pass mixes all sixteen cells, so
       each latency percentile samples the whole pass, not whichever
       cells happen to run last. *)
    for i = 0 to (2 * trials) - 1 do
      List.iter (fun c -> run_item ~traced c c.items.(i)) cells
    done;
    match golden with
    | None -> ()
    | Some g ->
      let buf = Buffer.create 2048 in
      H.Experiment.render buf exp (List.map row cells);
      Tally.check (Buffer.contents buf = g) "mc-rand: error table differs from golden/kt0-error-rand.txt"
