module Engine = Bcclb_engine.Engine
module Observer = Bcclb_engine.Observer
module Topology = Bcclb_engine.Topology

type 'o result = { outputs : 'o array; transcripts : Transcript.t array; rounds_used : int }

(* Both simulator entry points account every accepted emission's width
   into the process-wide broadcast-volume series — the "bits each player
   communicates" that the paper's counting arguments are about. *)
let bits_broadcast_metric = Bcclb_obs.Metrics.Counter.v "engine.bits_broadcast"

let check_width ~b ~round ~vertex msg =
  if Msg.width msg > b then
    invalid_arg
      (Printf.sprintf "Simulator: vertex %d broadcast %d bits in round %d (bandwidth %d)" vertex
         (Msg.width msg) round b)

(* The BCC round loop both entry points drive, and its round-1 inboxes:
   one all-silent emission array seen through every port row. *)
let broadcast_spec a inst ~rounds =
  let n = Instance.n inst in
  { Engine.n;
    rounds;
    step = (fun state ~round ~vertex:_ ~inbox -> a.Algo.step state ~round ~inbox);
    exchange = Topology.broadcast ~n ~ports:(Instance.ports inst) }

let silent_inbox inst =
  let silent = Array.make (Instance.n inst) Msg.silent in
  fun v -> Inbox.of_emissions silent ~ports:(Instance.ports inst v)

(* Every vertex hears the same n broadcasts, so a round costs O(n): the
   exchange shares the emission array ([Topology.broadcast]), and the
   transcripts read the sent record through each vertex's port row
   instead of keeping every inbox. *)
let run ?(seed = 0) (Algo.Packed a) inst =
  let n = Instance.n inst in
  let b = a.Algo.bandwidth ~n in
  let total_rounds = a.Algo.rounds ~n in
  if total_rounds < 0 then invalid_arg "Simulator.run: negative round bound";
  let views = Array.init n (fun v -> Instance.view ~coins_seed:seed inst v) in
  let sent = Array.init n (fun _ -> Array.make total_rounds Msg.silent) in
  (* Widths accumulate in a plain local and land in the shard once per
     run: the emit path stays free of domain-local lookups. *)
  let bits = ref 0 in
  let recorder =
    Observer.make
      ~on_emit:(fun ~round ~vertex ~inbox:_ ~emit ->
        check_width ~b ~round ~vertex emit;
        bits := !bits + Msg.width emit;
        sent.(vertex).(round - 1) <- emit)
      ()
  in
  let outcome =
    Engine.run ~observers:[ recorder ] (broadcast_spec a inst ~rounds:total_rounds)
      ~init_state:(fun v -> a.Algo.init views.(v))
      ~init_inbox:(silent_inbox inst)
  in
  Bcclb_obs.Metrics.Counter.add bits_broadcast_metric !bits;
  let outputs =
    Array.init n (fun v -> a.Algo.finish outcome.Engine.states.(v) ~inbox:outcome.Engine.final_inbox.(v))
  in
  let transcripts =
    Array.init n (fun v ->
        Transcript.of_run ~view:views.(v) ~sent_all:sent ~ports:(Instance.ports inst v) v)
  in
  { outputs; transcripts; rounds_used = outcome.Engine.rounds_used }

(* Lightweight execution for the §3 label machinery: only the packed
   broadcast sequences are recorded — no received-traffic capture, no
   transcript construction, no output extraction. Each vertex's code is
   one machine word (2 bits per round), so labels compare as ints. *)
let run_sent_codes ?(seed = 0) (Algo.Packed a) inst =
  let n = Instance.n inst in
  let b = a.Algo.bandwidth ~n in
  let total_rounds = a.Algo.rounds ~n in
  if total_rounds < 0 then invalid_arg "Simulator.run_sent_codes: negative round bound";
  if 2 * total_rounds > Bcclb_util.Bits.max_width then
    invalid_arg "Simulator.run_sent_codes: more than 31 rounds do not pack into a word";
  let codes = Array.make n 0 in
  let bits = ref 0 in
  let recorder =
    Observer.make
      ~on_emit:(fun ~round ~vertex ~inbox:_ ~emit ->
        check_width ~b ~round ~vertex emit;
        bits := !bits + Msg.width emit;
        codes.(vertex) <- codes.(vertex) lor (Msg.code1 emit lsl (2 * (round - 1))))
      ()
  in
  ignore
    (Engine.run ~observers:[ recorder ] (broadcast_spec a inst ~rounds:total_rounds)
       ~init_state:(fun v -> a.Algo.init (Instance.view ~coins_seed:seed inst v))
       ~init_inbox:(silent_inbox inst));
  Bcclb_obs.Metrics.Counter.add bits_broadcast_metric !bits;
  codes

let indistinguishable_from result i2 =
  let n = Array.length result.transcripts in
  if Instance.n i2 <> n then invalid_arg "Simulator.indistinguishable_from: sizes differ";
  fun r2 ->
    let rec loop v =
      v >= n || (Transcript.equal result.transcripts.(v) r2.transcripts.(v) && loop (v + 1))
    in
    loop 0

let indistinguishable ?(seed = 0) packed i1 i2 =
  if Instance.n i1 <> Instance.n i2 then invalid_arg "Simulator.indistinguishable: sizes differ";
  let r1 = run ~seed packed i1 and r2 = run ~seed packed i2 in
  indistinguishable_from r1 i2 r2

let total_bits_broadcast result =
  Array.fold_left (fun acc t -> acc + Transcript.bits_broadcast t) 0 result.transcripts
