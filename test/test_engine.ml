(* The engine layer: old-vs-new parity for the ported simulators, and the
   determinism contract of the Domain pool.

   Parity is checked against reference implementations — verbatim copies
   of the seed round loops that the engine replaced — on fixed seeds, so
   the port is pinned to the pre-refactor semantics, not to itself. *)

open Bcclb_bcc
module Engine = Bcclb_engine.Engine
module Observer = Bcclb_engine.Observer
module Topology = Bcclb_engine.Topology
module Pool = Bcclb_engine.Pool
module Rcc_simulator = Bcclb_rcc.Rcc_simulator
module Rcc_algo = Bcclb_rcc.Rcc_algo
module Ggen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng

(* ---- reference implementations (seed round loops, pre-engine) ---- *)

let reference_bcc_run ?(seed = 0) (Algo.Packed a) inst =
  let n = Instance.n inst in
  let total_rounds = a.Algo.rounds ~n in
  let views = Array.init n (fun v -> Instance.view ~coins_seed:seed inst v) in
  let states = Array.map a.Algo.init views in
  let sent = Array.init n (fun _ -> Array.make total_rounds Msg.silent) in
  let received = Array.init n (fun _ -> Array.init total_rounds (fun _ -> [||])) in
  let inbox_of_broadcasts broadcasts =
    Array.init n (fun v -> Array.init (n - 1) (fun p -> broadcasts.(Instance.peer inst v p)))
  in
  let current_inbox = ref (Array.init n (fun _ -> Array.make (n - 1) Msg.silent)) in
  for round = 1 to total_rounds do
    let broadcasts = Array.make n Msg.silent in
    for v = 0 to n - 1 do
      received.(v).(round - 1) <- !current_inbox.(v);
      let state', msg = a.Algo.step states.(v) ~round ~inbox:(Inbox.of_array !current_inbox.(v)) in
      states.(v) <- state';
      sent.(v).(round - 1) <- msg;
      broadcasts.(v) <- msg
    done;
    current_inbox := inbox_of_broadcasts broadcasts
  done;
  let outputs = Array.init n (fun v -> a.Algo.finish states.(v) ~inbox:(Inbox.of_array !current_inbox.(v))) in
  let transcripts =
    Array.init n (fun v ->
        Transcript.make ~fingerprint:(View.fingerprint views.(v)) ~sent:sent.(v) ~received:received.(v))
  in
  (outputs, transcripts)

let reference_rcc_run ?(seed = 0) (Rcc_algo.Packed a) inst =
  let n = Instance.n inst in
  let total_rounds = a.Rcc_algo.rounds ~n in
  let states = Array.init n (fun v -> a.Rcc_algo.init (Instance.view ~coins_seed:seed inst v)) in
  let max_distinct = ref 0 in
  let current_inbox = ref (Array.init n (fun _ -> Array.make (n - 1) Msg.silent)) in
  for round = 1 to total_rounds do
    ignore round;
    let outbox = Array.make n [||] in
    for v = 0 to n - 1 do
      let state', msgs = a.Rcc_algo.step states.(v) ~round ~inbox:!current_inbox.(v) in
      max_distinct := max !max_distinct (Rcc_algo.distinct_messages msgs);
      states.(v) <- state';
      outbox.(v) <- msgs
    done;
    current_inbox :=
      Array.init n (fun u ->
          Array.init (n - 1) (fun q ->
              let v = Instance.peer inst u q in
              outbox.(v).(Instance.port_to inst v u)))
  done;
  let outputs = Array.init n (fun v -> a.Rcc_algo.finish states.(v) ~inbox:!current_inbox.(v)) in
  (outputs, !max_distinct)

let reference_protocol_run spec ia ib =
  let open Bcclb_comm.Protocol in
  let a_received = ref [] and b_received = ref [] in
  let transcript = ref [] in
  let bits_a = ref 0 and bits_b = ref 0 in
  for round = 1 to spec.rounds do
    let ma = spec.alice ia ~round ~received:(List.rev !a_received) in
    let mb = spec.bob ib ~round ~received:(List.rev !b_received) in
    bits_a := !bits_a + String.length ma;
    bits_b := !bits_b + String.length mb;
    a_received := mb :: !a_received;
    b_received := ma :: !b_received;
    transcript := (ma, mb) :: !transcript
  done;
  ( spec.output_a ia ~received:(List.rev !a_received),
    spec.output_b ib ~received:(List.rev !b_received),
    List.rev !transcript,
    !bits_a,
    !bits_b )

(* ---- parity suites ---- *)

let discovery knowledge = Bcclb_algorithms.Discovery.connectivity ~knowledge ~max_degree:2

(* The shared exchange against the copying reference: outputs, rounds,
   transcript equality, every received message (the reference's
   transcripts hold its copied inboxes) and the lazily built fingerprint.
   The instances cover circulant, random and crossed KT-0 wirings and
   wide-bandwidth KT-1 sketch algorithms. *)
let test_bcc_parity () =
  let rng = Rng.create ~seed:42 in
  let module A = Bcclb_algorithms in
  List.iter
    (fun (algo, inst, seed) ->
      let expected_outputs, expected_transcripts = reference_bcc_run ~seed algo inst in
      let r = Simulator.run ~seed algo inst in
      let n = Instance.n inst in
      Alcotest.(check (array bool)) "outputs" expected_outputs r.Simulator.outputs;
      Alcotest.(check int) "rounds" (Algo.rounds algo ~n) r.Simulator.rounds_used;
      Array.iteri
        (fun v expected ->
          let t = r.Simulator.transcripts.(v) in
          Alcotest.(check bool) (Printf.sprintf "transcript %d" v) true (Transcript.equal expected t);
          Alcotest.(check string) "fingerprint"
            (View.fingerprint (Instance.view ~coins_seed:seed inst v))
            (Transcript.fingerprint t);
          for round = 1 to Transcript.rounds t do
            for p = 0 to n - 2 do
              if not (Msg.equal (Transcript.received expected round p) (Transcript.received t round p)) then
                Alcotest.failf "vertex %d round %d port %d: received differs" v round p
            done
          done)
        expected_transcripts)
    [ (discovery Instance.KT0, Instance.kt0_circulant (Ggen.cycle 10), 0);
      (discovery Instance.KT1, Instance.kt1_of_graph (Ggen.random_two_cycles rng 12), 3);
      (A.Hashed_discovery.connectivity ~k:4, Instance.kt0_circulant (Ggen.random_cycle rng 9), 7);
      (discovery Instance.KT0, Instance.kt0_random (Rng.split rng) (Ggen.random_two_cycles rng 10), 1);
      (A.Hashed_discovery.connectivity ~k:3,
       Instance.cross (Instance.kt0_circulant (Ggen.cycle 10)) (0, 1) (5, 6), 2);
      (A.Mt_connectivity.connectivity ~params:{ A.Mt_connectivity.s0 = 4; phases = 2; bandwidth = 8 } (),
       Instance.kt1_of_graph (Ggen.random_bounded_degree rng 24 3), 5);
      (A.Agm_connectivity.connectivity ~bandwidth:8 (),
       Instance.kt1_of_graph (Ggen.random_multicycle rng 24), 6) ]

(* The exchange's cost is O(n) per round: doubling the rounds of an
   engine-only run at n = 512 adds at most 16 words per vertex-round,
   where a per-vertex inbox copy would add n. *)
let test_bcc_round_allocation () =
  let n = 512 in
  let inst = Instance.kt1_of_graph (Ggen.random_bounded_degree (Rng.create ~seed:3) n 4) in
  let allocated rounds =
    let algo = Bcclb_algorithms.Trivial.chatter ~rounds () in
    let minor0, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (Simulator.run algo inst));
    let minor1, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  ignore (allocated 30);
  let extra = allocated 60 -. allocated 30 in
  if extra > float_of_int (30 * n * 16) then
    Alcotest.failf "30 extra rounds allocated %.0f words (bound %d)" extra (30 * n * 16)

(* Inboxes share the round's emission array, and the engine never reuses
   one: an algorithm that keeps every inbox must still read, after the
   run, the broadcasts of the round each inbox came from. *)
let test_bcc_inbox_retention () =
  let rounds = 5 in
  let say ~id ~round = Msg.of_int ~width:8 (((id * 7) + round) land 255) in
  let keeper =
    Algo.pack
      { Algo.name = "keeper";
        anonymous = false;
        bandwidth = (fun ~n:_ -> 8);
        rounds = (fun ~n:_ -> rounds);
        init = (fun view -> (View.id view, []));
        step = (fun (id, kept) ~round ~inbox -> ((id, inbox :: kept), say ~id ~round));
        finish = (fun (_, kept) ~inbox -> List.rev (inbox :: kept)) }
  in
  let inst = Instance.kt0_random (Rng.create ~seed:11) (Ggen.cycle 9) in
  let r = Simulator.run keeper inst in
  Array.iteri
    (fun v kept ->
      Alcotest.(check int) "one inbox per round and the final one" (rounds + 1) (List.length kept);
      List.iteri
        (fun i inbox ->
          (* The inbox consumed in round i+1 carries the round-i broadcasts. *)
          for p = 0 to Inbox.length inbox - 1 do
            let expect =
              if i = 0 then Msg.silent else say ~id:(Instance.id_of inst (Instance.peer inst v p)) ~round:i
            in
            if not (Msg.equal expect (Inbox.get inbox p)) then
              Alcotest.failf "vertex %d, inbox %d, port %d: stale message" v (i + 1) p
          done)
        kept)
    r.Simulator.outputs

let test_rcc_parity () =
  let inst = Instance.kt1_of_graph (Ggen.cycle 11) in
  List.iter
    (fun r ->
      let algo = Bcclb_rcc.Token_routing.algo ~r () in
      let expected_outputs, expected_distinct = reference_rcc_run algo inst in
      let res = Rcc_simulator.run algo inst in
      Alcotest.(check (array bool)) "outputs" expected_outputs res.Rcc_simulator.outputs;
      Alcotest.(check int) "max distinct" expected_distinct res.Rcc_simulator.max_distinct)
    [ 1; 3; 10 ]

let test_protocol_parity () =
  let open Bcclb_comm in
  let rng = Rng.create ~seed:9 in
  let module Sp = Bcclb_partition.Set_partition in
  let pa = Sp.random_crp rng ~n:24 and pb = Sp.random_crp rng ~n:24 in
  let spec = Upper_bounds.partition_protocol ~n:24 in
  let out_a, out_b, transcript, bits_a, bits_b = reference_protocol_run spec pa pb in
  let r = Protocol.run spec pa pb in
  Alcotest.(check bool) "out_a" true (out_a = r.Protocol.out_a);
  Alcotest.(check bool) "out_b" true (out_b = r.Protocol.out_b);
  Alcotest.(check (list (pair string string))) "transcript" transcript r.Protocol.transcript;
  Alcotest.(check int) "bits_a" bits_a r.Protocol.bits_a;
  Alcotest.(check int) "bits_b" bits_b r.Protocol.bits_b

let test_bcc_simulation_parity () =
  (* The 2-party simulation must agree with the plain simulator on
     outputs, and its bit accounting must be exactly (b+1) bits per
     vertex per round, split by hosting. *)
  let rng = Rng.create ~seed:5 in
  let g = Ggen.random_multicycle rng 12 in
  let algo = discovery Instance.KT1 in
  let alice_hosts v = v < 6 in
  let r = Bcclb_comm.Bcc_simulation.run algo g ~alice_hosts in
  let direct = Simulator.run algo (Instance.kt1_of_graph g) in
  Alcotest.(check (array bool)) "outputs = direct" direct.Simulator.outputs
    r.Bcclb_comm.Bcc_simulation.outputs;
  let n = 12 in
  let b = Algo.bandwidth algo ~n in
  let rounds = Algo.rounds algo ~n in
  Alcotest.(check int) "bits_alice" (6 * rounds * (b + 1)) r.Bcclb_comm.Bcc_simulation.bits_alice;
  Alcotest.(check int) "bits_bob" (6 * rounds * (b + 1)) r.Bcclb_comm.Bcc_simulation.bits_bob;
  Alcotest.(check int) "bits_total"
    (r.Bcclb_comm.Bcc_simulation.bits_alice + r.Bcclb_comm.Bcc_simulation.bits_bob)
    r.Bcclb_comm.Bcc_simulation.bits_total

(* ---- engine semantics ---- *)

let test_engine_vertex_order () =
  (* on_emit fires in increasing vertex order within each round, after the
     vertex consumed the previous round's exchange. *)
  let trace = ref [] in
  let obs = Observer.make ~on_emit:(fun ~round ~vertex ~inbox:_ ~emit:_ -> trace := (round, vertex) :: !trace) () in
  let spec =
    { Engine.n = 3;
      rounds = 2;
      step = (fun s ~round:_ ~vertex:_ ~inbox:_ -> (s, ()));
      exchange = (fun ~round:_ ~prev:_ _ -> Array.make 3 ()) }
  in
  let _ = Engine.run ~observers:[ obs ] spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()) in
  Alcotest.(check (list (pair int int)))
    "emit order" [ (1, 0); (1, 1); (1, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev !trace)

let test_engine_counter_and_timer () =
  let counter, total = Observer.counter ~width:(fun e -> e) in
  let timer, times = Observer.round_timer () in
  let spec =
    { Engine.n = 4;
      rounds = 3;
      step = (fun s ~round:_ ~vertex ~inbox:_ -> (s, vertex));
      exchange = (fun ~round:_ ~prev:_ _ -> Array.make 4 ()) }
  in
  let _ = Engine.run ~observers:[ counter; timer ] spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()) in
  Alcotest.(check int) "counted widths" (3 * (0 + 1 + 2 + 3)) (total ());
  Alcotest.(check int) "one timing per round" 3 (Array.length (times ()))

let test_engine_rejects_negative_rounds () =
  let spec =
    { Engine.n = 1;
      rounds = -1;
      step = (fun s ~round:_ ~vertex:_ ~inbox:_ -> (s, ()));
      exchange = (fun ~round:_ ~prev:_ _ -> [| () |]) }
  in
  Alcotest.(check bool) "negative rounds raise" true
    (try
       ignore (Engine.run spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* ---- pool determinism ---- *)

let simulate_cell seed =
  (* A representative batch task: an independent full simulation with a
     per-task seed. *)
  let rng = Rng.create ~seed in
  let n = 8 + (seed mod 4) in
  let inst = Instance.kt0_circulant (Ggen.random_cycle rng n) in
  let r = Simulator.run ~seed (discovery Instance.KT0) inst in
  (Problems.system_decision r.Simulator.outputs, Simulator.total_bits_broadcast r)

let test_pool_determinism () =
  let seeds = Array.init 16 (fun i -> i) in
  let seq = Pool.map_batch ~num_domains:1 simulate_cell seeds in
  let par = Pool.map_batch ~num_domains:4 simulate_cell seeds in
  Alcotest.(check (array (pair bool int))) "1 domain = 4 domains" seq par;
  let direct = Array.map simulate_cell seeds in
  Alcotest.(check (array (pair bool int))) "pool = plain map" direct seq

let test_pool_tabulate_and_nesting () =
  (* Nested map_batch must degrade to sequential instead of spawning
     domains from worker domains — and stay correct. *)
  let nested =
    Pool.tabulate ~num_domains:4 6 (fun i ->
        Array.fold_left ( + ) 0 (Pool.tabulate ~num_domains:4 5 (fun j -> (10 * i) + j)))
  in
  let expected = Array.init 6 (fun i -> (50 * i) + 10) in
  Alcotest.(check (array int)) "nested pools" expected nested

let test_pool_exception_order () =
  (* The lowest-index failure is the one re-raised, as in a sequential
     run. *)
  let f i = if i mod 3 = 2 then failwith (Printf.sprintf "task %d" i) else i in
  let observed =
    try
      ignore (Pool.map_batch ~num_domains:4 f (Array.init 12 (fun i -> i)));
      None
    with Failure m -> Some m
  in
  Alcotest.(check (option string)) "first failure wins" (Some "task 2") observed

let test_pool_empty_and_default () =
  Alcotest.(check (array int)) "empty batch" [||] (Pool.map_batch ~num_domains:4 (fun x -> x) [||]);
  Alcotest.(check bool) "default domains >= 1" true (Pool.default_num_domains () >= 1)

let suites =
  [ Alcotest.test_case "BCC simulator parity with seed loop" `Quick test_bcc_parity;
    Alcotest.test_case "BCC exchange allocates O(n) per round" `Quick test_bcc_round_allocation;
    Alcotest.test_case "kept inboxes read their own round" `Quick test_bcc_inbox_retention;
    Alcotest.test_case "RCC simulator parity with seed loop" `Quick test_rcc_parity;
    Alcotest.test_case "2-party protocol parity with seed loop" `Quick test_protocol_parity;
    Alcotest.test_case "section-4.3 simulation parity" `Quick test_bcc_simulation_parity;
    Alcotest.test_case "engine emits in vertex order" `Quick test_engine_vertex_order;
    Alcotest.test_case "counter and round timer observers" `Quick test_engine_counter_and_timer;
    Alcotest.test_case "negative round bound rejected" `Quick test_engine_rejects_negative_rounds;
    Alcotest.test_case "pool determinism across domain counts" `Quick test_pool_determinism;
    Alcotest.test_case "pool nesting falls back to sequential" `Quick test_pool_tabulate_and_nesting;
    Alcotest.test_case "pool re-raises lowest-index failure" `Quick test_pool_exception_order;
    Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_default ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"map_batch equals Array.map for any domain count" ~count:50
      Gen.(pair (1 -- 6) (list_size (0 -- 40) small_int))
      (fun (d, items) ->
        let a = Array.of_list items in
        Pool.map_batch ~num_domains:d (fun x -> (x * x) + 1) a = Array.map (fun x -> (x * x) + 1) a) ]
