open Bcclb_bcc
open Bcclb_algorithms
module G = Bcclb_graph.Graph
module Ggen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng

let run_decision algo inst = Problems.system_decision (Simulator.run algo inst).Simulator.outputs

let check_connectivity_algo ~make_inst algo ~n_list =
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun n ->
      let yes = Ggen.random_cycle rng n in
      let no = Ggen.random_two_cycles rng n in
      Alcotest.(check bool)
        (Printf.sprintf "YES on n=%d cycle" n)
        true
        (run_decision algo (make_inst yes));
      Alcotest.(check bool)
        (Printf.sprintf "NO on n=%d two cycles" n)
        false
        (run_decision algo (make_inst no)))
    n_list

let test_discovery_kt0 () =
  let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  check_connectivity_algo ~make_inst:Instance.kt0_circulant algo ~n_list:[ 6; 9; 16; 33 ]

let test_discovery_kt0_random_wiring () =
  let rng = Rng.create ~seed:4 in
  let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  check_connectivity_algo ~make_inst:(Instance.kt0_random rng) algo ~n_list:[ 8; 12 ]

let test_discovery_kt1 () =
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 16; 33 ]

let test_discovery_rounds_logarithmic () =
  (* d=2: KT-0 uses 3L rounds, KT-1 2L, L = ceil(log2(n+1)). *)
  let kt0 = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let kt1 = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  Alcotest.(check int) "KT-0 rounds n=64" 21 (Algo.rounds kt0 ~n:64);
  Alcotest.(check int) "KT-1 rounds n=64" 14 (Algo.rounds kt1 ~n:64);
  Alcotest.(check int) "KT-0 rounds n=1024" 33 (Algo.rounds kt0 ~n:1024)

let test_discovery_components () =
  let algo = Discovery.components ~knowledge:Instance.KT1 ~max_degree:2 in
  let rng = Rng.create ~seed:13 in
  let g = Ggen.multicycle_of_lengths rng 12 [ 5; 7 ] in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run algo inst in
  (* Labels are IDs (vertex index + 1); convert to a vertex labelling. *)
  Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)

let test_discovery_degree_check () =
  let star = G.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  Alcotest.(check bool) "degree violation raises" true
    (try
       ignore (run_decision algo (Instance.kt1_of_graph star));
       false
     with Invalid_argument _ -> true)

let test_discovery_higher_degree () =
  (* d=4 handles arbitrary graphs with max degree <= 4. *)
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:4 in
  let rng = Rng.create ~seed:21 in
  for _ = 1 to 10 do
    let g = Ggen.random_bounded_degree rng 12 4 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done

(* Off the ID promise Discovery refuses instead of answering: 5-bit IDs
   do not fit the 4-bit field of n = 8 (they used to be truncated into a
   wrong NO), and KT-0 IDs outside 1..n used to escape as Not_found. *)
let test_discovery_id_promise () =
  let refuses algo inst =
    match Simulator.run algo inst with
    | _ -> false
    | exception Invalid_argument msg ->
      let name = Algo.name algo in
      String.length msg >= String.length name && String.sub msg 0 (String.length name) = name
  in
  let ring = Ggen.cycle 8 in
  let ids = Array.init 8 (fun i -> 20 + i) in
  Alcotest.(check bool) "KT-1 IDs 20..27 at n = 8" true
    (refuses (Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2) (Instance.kt1_of_graph ~ids ring));
  Alcotest.(check bool) "KT-1 ID 0" true
    (refuses (Discovery.components ~knowledge:Instance.KT1 ~max_degree:2)
       (Instance.kt1_of_graph ~ids:(Array.init 8 Fun.id) ring));
  Alcotest.(check bool) "KT-0 IDs 5..12" true
    (refuses (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2)
       (Instance.kt0_circulant ~ids:(Array.init 8 (fun i -> 5 + i)) ring));
  (* The largest IDs the field holds still work. *)
  Alcotest.(check bool) "KT-1 IDs 8..15 at n = 8" true
    (run_decision (Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2)
       (Instance.kt1_of_graph ~ids:(Array.init 8 (fun i -> 8 + i)) ring))

let test_truncated_discovery () =
  let n = 16 in
  let full_rounds = Algo.rounds (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) ~n in
  (* Truncated to 3 rounds: cannot know the graph; optimist says YES. *)
  let opt = Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:3 ~optimist:true in
  let pes =
    Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:3 ~optimist:false
  in
  let rng = Rng.create ~seed:31 in
  let no_inst = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
  Alcotest.(check bool) "optimist errs on NO" true (run_decision opt no_inst);
  Alcotest.(check bool) "pessimist errs on YES" false
    (run_decision pes (Instance.kt0_circulant (Ggen.random_cycle rng n)));
  (* Truncating to the full budget behaves like the full algorithm. *)
  let full =
    Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:full_rounds
      ~optimist:true
  in
  Alcotest.(check bool) "full budget correct on NO" false (run_decision full no_inst)

let test_min_label () =
  let algo = Min_label.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt0_circulant algo ~n_list:[ 6; 9; 14 ];
  (* Component labels equal smallest ID per component. *)
  let rng = Rng.create ~seed:8 in
  let g = Ggen.multicycle_of_lengths rng 10 [ 4; 6 ] in
  let r = Simulator.run (Min_label.components ()) (Instance.kt0_circulant g) in
  Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs);
  let truth = G.components g in
  Array.iteri
    (fun v lbl -> Alcotest.(check int) "label is min id of component" (truth.(v) + 1) lbl)
    r.Simulator.outputs

let test_min_label_rounds () =
  (* (n/2 + 2) phases of L rounds each. *)
  let algo = Min_label.connectivity () in
  Alcotest.(check int) "rounds n=16" ((8 + 2) * 5) (Algo.rounds algo ~n:16)

let test_boruvka () =
  let algo = Boruvka.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 16 ];
  (* Arbitrary (non-regular) graphs. *)
  let rng = Rng.create ~seed:15 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 14 0.15 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done

let test_boruvka_components () =
  let rng = Rng.create ~seed:16 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 12 0.12 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Boruvka.components ()) inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_boruvka_rounds_and_bandwidth () =
  let algo = Boruvka.connectivity () in
  Alcotest.(check int) "rounds n=1024" 12 (Algo.rounds algo ~n:1024);
  Alcotest.(check int) "bandwidth n=1024" 22 (Algo.bandwidth algo ~n:1024)

let test_trivial () =
  let rng = Rng.create ~seed:55 in
  let yes = Instance.kt0_circulant (Ggen.random_cycle rng 8) in
  Alcotest.(check bool) "always yes" true (run_decision (Trivial.always_yes ()) yes);
  Alcotest.(check bool) "always no" false (run_decision (Trivial.always_no ()) yes);
  (* Coin guess is a fair public coin: over seeds, both answers appear. *)
  let yeses = ref 0 in
  for seed = 1 to 100 do
    let r = Simulator.run ~seed (Trivial.coin_guess ()) yes in
    if Problems.system_decision r.Simulator.outputs then incr yeses
  done;
  Alcotest.(check bool) "fair-ish" true (!yeses > 20 && !yeses < 80)

let test_measure_decision_error () =
  let rng = Rng.create ~seed:66 in
  let gen _trial =
    if Rng.bool rng then (Instance.kt0_circulant (Ggen.random_cycle rng 10), true)
    else (Instance.kt0_circulant (Ggen.random_two_cycles rng 10), false)
  in
  let stats =
    Problems.measure_decision_error (Trivial.always_yes ()) ~trials:200 gen
  in
  let rate = Problems.error_rate stats in
  Alcotest.(check bool) "always-yes errs on NO half" true (rate > 0.3 && rate < 0.7);
  let stats_full =
    Problems.measure_decision_error
      (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2)
      ~trials:100
      (fun _ ->
        if Rng.bool rng then (Instance.kt0_circulant (Ggen.random_cycle rng 10), true)
        else (Instance.kt0_circulant (Ggen.random_two_cycles rng 10), false))
  in
  Alcotest.(check int) "full algorithm never errs" 0 stats_full.Problems.errors


let test_adjacency_matrix () =
  let algo = Adjacency_matrix.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 14 ];
  (* Works on dense, irregular graphs too. *)
  let rng = Rng.create ~seed:91 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 12 0.3 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done;
  Alcotest.(check int) "rounds = n-1" 31 (Algo.rounds algo ~n:32)

let test_adjacency_matrix_components () =
  let rng = Rng.create ~seed:92 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 10 0.15 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Adjacency_matrix.components ()) inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_hashed_discovery_one_sided () =
  (* Never errs on YES instances; error on NO instances decreases with k. *)
  let rng = Rng.create ~seed:93 in
  let n = 16 in
  for seed = 1 to 30 do
    let yes = Instance.kt0_circulant (Ggen.random_cycle rng n) in
    let r = Simulator.run ~seed (Hashed_discovery.connectivity ~k:3) yes in
    Alcotest.(check bool) "YES always correct" true (Problems.system_decision r.Simulator.outputs)
  done;
  (* With k large enough, NO instances are essentially always caught. *)
  let errors k =
    let errs = ref 0 in
    for seed = 1 to 60 do
      let no = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
      let r = Simulator.run ~seed (Hashed_discovery.connectivity ~k) no in
      if Problems.system_decision r.Simulator.outputs then incr errs
    done;
    !errs
  in
  let e2 = errors 2 and e12 = errors 12 in
  Alcotest.(check bool) "small k errs often" true (e2 > 20);
  Alcotest.(check bool) "large k errs rarely" true (e12 <= 2)

let test_hashed_discovery_rounds () =
  Alcotest.(check int) "rounds 3k" 12 (Algo.rounds (Hashed_discovery.connectivity ~k:4) ~n:1024);
  Alcotest.(check bool) "predicted error monotone" true
    (Hashed_discovery.predicted_error ~n:16 ~k:2 >= Hashed_discovery.predicted_error ~n:16 ~k:10)

let test_connectivity_partial () =
  (* With enough rounds to learn a short cycle's worth of edges, the
     partial decider certifies NO on small-cycle instances even though
     the full graph is unknown. *)
  let n = 16 in
  let rng = Rng.create ~seed:94 in
  let full = Bcclb_bcc.Algo.rounds (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) ~n in
  let partial = Discovery.connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:full ~optimist:true in
  (* Sanity at full budget: always exact. *)
  let yes = Instance.kt0_circulant (Ggen.random_cycle rng n) in
  let no = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
  Alcotest.(check bool) "full yes" true (run_decision partial yes);
  Alcotest.(check bool) "full no" false (run_decision partial no);
  (* Truncated: never claims NO on a YES instance (certificates only). *)
  for t = 0 to full do
    let p = Discovery.connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:t ~optimist:true in
    Alcotest.(check bool) (Printf.sprintf "sound on YES t=%d" t) true (run_decision p yes)
  done


let test_mst_matches_kruskal () =
  let rng = Rng.create ~seed:101 in
  for _ = 1 to 15 do
    let n = 6 + Rng.int rng 8 in
    let g = Ggen.gnp rng n 0.35 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Mst_boruvka.forest ()) inst in
    (* All vertices output the same forest. *)
    let first = r.Simulator.outputs.(0) in
    Array.iter (fun f -> Alcotest.(check bool) "agreement" true (f = first)) r.Simulator.outputs;
    (* Convert ID pairs (1-based) to vertex pairs (0-based) and compare
       with the sequential oracle under the same weights. *)
    let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:n in
    let weight u v = weight_ids (u + 1) (v + 1) in
    let expected = List.sort compare (Bcclb_graph.Mst.kruskal g ~weight) in
    let got = List.sort compare (List.map (fun (a, b) -> (a - 1, b - 1)) first) in
    Alcotest.(check bool) "equals kruskal forest" true (got = expected);
    Alcotest.(check bool) "is spanning forest" true (Bcclb_graph.Mst.is_spanning_forest g got)
  done

let test_mst_total_weight () =
  let rng = Rng.create ~seed:102 in
  let g = Ggen.random_connected rng 12 in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run (Mst_boruvka.total_weight ()) inst in
  let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:12 in
  let weight u v = weight_ids (u + 1) (v + 1) in
  let expected = Bcclb_graph.Mst.total_weight ~weight (Bcclb_graph.Mst.kruskal g ~weight) in
  Array.iter (fun w -> Alcotest.(check int) "total weight" expected w) r.Simulator.outputs

let test_mst_on_promise_inputs () =
  (* On a single cycle the MSF is the cycle minus its heaviest edge. *)
  let n = 10 in
  let g = Ggen.cycle n in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run (Mst_boruvka.forest ()) inst in
  Alcotest.(check int) "n-1 edges" (n - 1) (List.length r.Simulator.outputs.(0))


let test_agm_connectivity () =
  (* Monte Carlo but extremely reliable at default parameters: demand
     perfection on this fixed seeded batch. *)
  let algo = Agm_connectivity.connectivity () in
  let rng = Rng.create ~seed:111 in
  for seed = 1 to 12 do
    let g = if seed mod 2 = 0 then Ggen.random_connected rng 14 else Ggen.gnp rng 14 0.12 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run ~seed algo inst in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g)
      (Problems.system_decision r.Simulator.outputs)
  done

let test_agm_components () =
  let algo = Agm_connectivity.components () in
  let rng = Rng.create ~seed:112 in
  for seed = 1 to 6 do
    let g = Ggen.gnp rng 12 0.15 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run ~seed algo inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_agm_rounds_polylog () =
  let algo = Agm_connectivity.connectivity () in
  (* O(log^3 n): the ratio rounds / log^3 n stays bounded as n grows. *)
  let ratio n =
    let lg = Bcclb_util.Mathx.log2 (float_of_int n) in
    float_of_int (Algo.rounds algo ~n) /. (lg ** 3.0)
  in
  Alcotest.(check bool) "bounded at 64" true (ratio 64 < 60.0);
  Alcotest.(check bool) "bounded at 1024" true (ratio 1024 < 60.0);
  Alcotest.(check bool) "ratio shrinking (polylog, not polynomial)" true (ratio 4096 < ratio 64);
  (* The constant is large, so the crossover with the Theta(n) adjacency
     broadcast happens around n ~ 2^20. *)
  let n = 1 lsl 20 in
  Alcotest.(check bool) "sublinear vs adjacency broadcast for large n" true
    (Algo.rounds algo ~n < n - 1)


let test_chunked_bandwidth_variants () =
  (* The BCC(b) generalizations agree with their b = 1 selves and shrink
     rounds by the chunking factor. *)
  let rng = Rng.create ~seed:220 in
  let g = Ggen.random_multicycle rng 12 in
  let inst = Instance.kt1_of_graph g in
  let truth = G.is_connected g in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "adjacency correct at b=%d" b)
        truth
        (run_decision (Adjacency_matrix.connectivity ~bandwidth:b ()) inst))
    [ 1; 4; 11 ];
  Alcotest.(check bool) "agm correct at b=5" truth
    (Problems.system_decision
       (Simulator.run ~seed:3 (Agm_connectivity.connectivity ~bandwidth:5 ()) inst).Simulator.outputs);
  let n = 1024 in
  Alcotest.(check int) "adjacency rounds = ceil((n-1)/b)" ((n - 1 + 7) / 8)
    (Algo.rounds (Adjacency_matrix.connectivity ~bandwidth:8 ()) ~n);
  let bits = Algo.rounds (Agm_connectivity.connectivity ()) ~n in
  Alcotest.(check int) "agm rounds = ceil(bits/b)" ((bits + 15) / 16)
    (Algo.rounds (Agm_connectivity.connectivity ~bandwidth:16 ()) ~n);
  Alcotest.check_raises "bandwidth must fit a word"
    (Invalid_argument "adjacency-matrix-connectivity: bandwidth 63 outside [1, 62]") (fun () ->
      ignore (Adjacency_matrix.connectivity ~bandwidth:63 ()))

(* Ground truth for the MT tests via the Conn oracle,
   as the acceptance criteria demand — not via the algorithm under test. *)
let oracle_connected g =
  let uf = Bcclb_graph.Conn.create (G.n g) in
  G.iter_edges (fun u v -> ignore (Bcclb_graph.Conn.union uf u v)) g;
  Bcclb_graph.Conn.components uf = 1

let test_mt_connectivity () =
  (* Deterministic: exact on every instance of the promise families. *)
  let algo = Mt_connectivity.connectivity () in
  let rng = Rng.create ~seed:211 in
  for seed = 1 to 12 do
    let n = 12 + (seed mod 5) in
    let g =
      match seed mod 3 with
      | 0 -> Ggen.random_cycle rng n
      | 1 -> Ggen.random_multicycle rng n
      | _ -> Ggen.random_two_cycles rng n
    in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool)
      (Printf.sprintf "matches Conn oracle (seed %d)" seed)
      (oracle_connected g) (run_decision algo inst)
  done

let test_mt_bounded_degree_and_sparse () =
  let algo = Mt_connectivity.connectivity () in
  let rng = Rng.create ~seed:212 in
  for seed = 1 to 10 do
    let g =
      if seed mod 2 = 0 then Ggen.random_bounded_degree rng 16 4 else Ggen.gnp rng 16 0.1
    in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool)
      (Printf.sprintf "matches Conn oracle (seed %d)" seed)
      (oracle_connected g) (run_decision algo inst)
  done

let test_mt_components () =
  let algo = Mt_connectivity.components () in
  let rng = Rng.create ~seed:213 in
  for _ = 1 to 6 do
    let g = Ggen.random_multicycle rng 14 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run algo inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_mt_rounds_constant_at_log_bandwidth () =
  (* At the default b = element_bits = Theta(log n), the round count is a
     constant independent of n — the O(1)-round upper bound the E15
     frontier dramatizes. At b = 1 the same protocol costs Theta(log n). *)
  let algo = Mt_connectivity.connectivity () in
  let r64 = Algo.rounds algo ~n:64 in
  Alcotest.(check bool) "positive" true (r64 > 0);
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "constant at n=%d" n) r64 (Algo.rounds algo ~n))
    [ 256; 1024; 4096; 16384 ];
  Alcotest.(check int) "declared bandwidth is element width" (Mt_connectivity.element_bits ~n:1024)
    (Algo.bandwidth algo ~n:1024);
  let one_bit n =
    let params = { (Mt_connectivity.default_params ~n) with Mt_connectivity.bandwidth = 1 } in
    Mt_connectivity.total_rounds ~n params
  in
  Alcotest.(check bool) "1-bit cost grows with n" true (one_bit 4096 > one_bit 64);
  Alcotest.(check int) "1-bit rounds = payload bits" (one_bit 1024)
    (Mt_connectivity.syndrome_bits ~n:1024 (Mt_connectivity.default_params ~n:1024))

let test_mt_narrow_bandwidth_chunking () =
  (* A bandwidth that does not divide the payload exercises the partial
     final chunk of each phase; the simulator enforces the declared b. *)
  let rng = Rng.create ~seed:214 in
  List.iter
    (fun bandwidth ->
      let params = { Mt_connectivity.s0 = 2; phases = 2; bandwidth } in
      let algo = Mt_connectivity.connectivity ~params () in
      let g = Ggen.random_multicycle rng 10 in
      let inst = Instance.kt1_of_graph g in
      Alcotest.(check bool)
        (Printf.sprintf "correct at b=%d" bandwidth)
        (oracle_connected g) (run_decision algo inst))
    [ 1; 3; 7 ];
  (* KT-0 instances are rejected (ID order is the shared coordinate
     system). *)
  let algo = Mt_connectivity.connectivity () in
  let raised =
    try
      ignore (Simulator.run algo (Instance.kt0_circulant (Ggen.cycle 8)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects KT-0" true raised

let test_kt0_compiler_boruvka () =
  (* Boruvka (KT-1) compiled to KT-0: correct on random-wired instances. *)
  let algo = Kt0_compiler.compile (Boruvka.connectivity ()) in
  let rng = Rng.create ~seed:121 in
  for _ = 1 to 8 do
    let g = Ggen.random_multicycle rng 12 in
    let inst = Instance.kt0_random rng g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done;
  (* Rejects KT-1 instances. *)
  Alcotest.(check bool) "rejects KT-1" true
    (try
       ignore (run_decision algo (Instance.kt1_of_graph (Ggen.cycle 8)));
       false
     with Invalid_argument _ -> true)

let test_kt0_compiler_rounds () =
  (* Additive ceil(L/b) learning rounds. *)
  let inner = Boruvka.connectivity () in
  let outer = Kt0_compiler.compile inner in
  let n = 64 in
  let b = Algo.bandwidth inner ~n in
  Alcotest.(check int) "rounds additive"
    (Kt0_compiler.learning_rounds ~n ~bandwidth:b + Algo.rounds inner ~n)
    (Algo.rounds outer ~n);
  (* With b >= L one learning round suffices: the paper's b = Omega(log n)
     remark. *)
  Alcotest.(check int) "one round at large b" 1 (Kt0_compiler.learning_rounds ~n:64 ~bandwidth:7);
  Alcotest.(check int) "L rounds at b=1" 7 (Kt0_compiler.learning_rounds ~n:64 ~bandwidth:1)

let test_kt0_compiler_agm () =
  (* Even the sketch algorithm ports to KT-0 unchanged. *)
  let algo = Kt0_compiler.compile (Agm_connectivity.connectivity ()) in
  let rng = Rng.create ~seed:122 in
  let g = Ggen.gnp rng 12 0.18 in
  let inst = Instance.kt0_circulant g in
  Alcotest.(check bool) "agm on KT-0" (G.is_connected g) (run_decision algo inst)

let test_codec () =
  (* Big-endian schedule bits reassemble to the value. *)
  let v = 0b1011010 in
  for pos = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "bit %d" pos)
      ((v lsr (6 - pos)) land 1 = 1)
      (Codec.bit_of_int ~width:7 ~pos v)
  done;
  Alcotest.check_raises "position out of range"
    (Invalid_argument "Codec.bit_of_int: position out of range") (fun () ->
      ignore (Codec.bit_of_int ~width:3 ~pos:3 0));
  (* decode_int reads [first, first+width) of a broadcast sequence and
     flags missing rounds. *)
  let seq = Array.of_list (List.map Bcclb_bcc.Msg.of_bit [ true; false; true ]) in
  Alcotest.(check (pair int bool)) "complete" (0b101, true) (Codec.decode_int ~first:1 ~width:3 seq);
  Alcotest.(check (pair int bool)) "inner window" (0b01, true) (Codec.decode_int ~first:2 ~width:2 seq);
  Alcotest.(check (pair int bool)) "truncated" (0b10, false) (Codec.decode_int ~first:3 ~width:2 seq);
  let with_silence = [| Bcclb_bcc.Msg.one; Bcclb_bcc.Msg.silent; Bcclb_bcc.Msg.one |] in
  Alcotest.(check (pair int bool)) "silence = incomplete" (0b101, false)
    (Codec.decode_int ~first:1 ~width:3 with_silence)

(* ---------- public decodes shared once per run ---------- *)

(* One instance run by hand: every vertex call is the test's to make, so
   vertices of different instances can be interleaved and any vertex
   can be finished on a doctored final inbox. Mirrors Simulator.run's
   views, coins and broadcast exchange. *)
type 'o hand = {
  hn : int;
  hrounds : int;
  step_vertex : round:int -> int -> unit;
  exchange : unit -> unit;  (* after every vertex has stepped a round *)
  finish_vertex : ?tamper:(Msg.t array -> Msg.t array) -> int -> 'o;
}

let hand ?(seed = 0) (Algo.Packed a) inst =
  let n = Instance.n inst in
  let states = Array.init n (fun v -> a.Algo.init (Instance.view ~coins_seed:seed inst v)) in
  let inbox = ref (Array.init n (fun _ -> Array.make (n - 1) Msg.silent)) in
  let sent = Array.make n Msg.silent in
  { hn = n;
    hrounds = a.Algo.rounds ~n;
    step_vertex =
      (fun ~round v ->
        let st, m = a.Algo.step states.(v) ~round ~inbox:(Inbox.of_array !inbox.(v)) in
        states.(v) <- st;
        sent.(v) <- m);
    exchange =
      (fun () ->
        inbox := Array.init n (fun v -> Array.init (n - 1) (fun p -> sent.(Instance.peer inst v p))));
    finish_vertex =
      (fun ?(tamper = Fun.id) v -> a.Algo.finish states.(v) ~inbox:(Inbox.of_array (tamper !inbox.(v)))) }

let run_rounds h =
  for round = 1 to h.hrounds do
    for v = 0 to h.hn - 1 do
      h.step_vertex ~round v
    done;
    h.exchange ()
  done

(* Flip the low bit of the word heard on [port]. *)
let flip ~port inbox =
  let inbox = Array.copy inbox in
  (match inbox.(port) with
  | Msg.Word w ->
    let module B = Bcclb_util.Bits in
    inbox.(port) <- Msg.of_bits (B.make ~width:(B.width w) ~value:(B.value w lxor 1))
  | Msg.Silent -> ());
  inbox

(* Finish every honest vertex (so the domain's memo holds the honest
   decode), then vertex 0 on a final inbox with one bit flipped on
   [port]. Its output must be what it computes on a fresh domain, where
   nothing is cached: a decode is reused only on an equal input. Returns
   whether the flip changed vertex 0's answer. *)
let check_tampered ?seed algo inst ~port =
  let tamper = flip ~port in
  let h = hand ?seed algo inst in
  run_rounds h;
  for v = 1 to h.hn - 1 do
    ignore (h.finish_vertex v)
  done;
  let warm = h.finish_vertex ~tamper 0 in
  let alone =
    Domain.join
      (Domain.spawn (fun () ->
           let h = hand ?seed algo inst in
           run_rounds h;
           h.finish_vertex ~tamper 0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: tampered port %d agrees with a cold domain" (Algo.name algo) port)
    true (warm = alone);
  warm <> Domain.join (Domain.spawn (fun () -> (Simulator.run ?seed algo inst).Simulator.outputs.(0)))

let tampered_family ~conn ~comp =
  let rng = Rng.create ~seed:230 in
  let g = Ggen.random_two_cycles rng 10 in
  let inst = Instance.kt1_of_graph g in
  let changed = ref 0 in
  for port = 0 to Instance.n inst - 2 do
    if check_tampered ~seed:5 conn inst ~port then incr changed;
    if check_tampered ~seed:5 comp inst ~port then incr changed
  done;
  !changed

let test_memo_tampered_mt () =
  ignore
    (tampered_family ~conn:(Mt_connectivity.connectivity ()) ~comp:(Mt_connectivity.components ()))

let test_memo_tampered_agm () =
  ignore
    (tampered_family
       ~conn:(Agm_connectivity.connectivity ~bandwidth:16 ())
       ~comp:(Agm_connectivity.components ~bandwidth:16 ()))

let test_memo_tampered_adjacency () =
  (* A flipped row bit adds or removes an edge, so here some flips must
     change the answer: the warm memo would have hidden that. *)
  let changed =
    tampered_family
      ~conn:(Adjacency_matrix.connectivity ~bandwidth:3 ())
      ~comp:(Adjacency_matrix.components ~bandwidth:3 ())
  in
  Alcotest.(check bool) "some flip changes the answer" true (changed > 0)

(* Step two instances' vertices alternately on one domain, so each
   vertex's lookup finds the other instance's decode. *)
let interleaved ?seed algo a b =
  let ha = hand ?seed algo a and hb = hand ?seed algo b in
  for round = 1 to ha.hrounds do
    for v = 0 to ha.hn - 1 do
      ha.step_vertex ~round v;
      hb.step_vertex ~round v
    done;
    ha.exchange ();
    hb.exchange ()
  done;
  let outs = Array.init ha.hn (fun v -> (ha.finish_vertex v, hb.finish_vertex v)) in
  (Array.map fst outs, Array.map snd outs)

(* The reference runs each instance alone on a fresh domain, so that no
   decode cached by another instance can leak into it. *)
let interleaved_matches ?seed algo a b =
  let oa, ob = interleaved ?seed algo a b in
  let out inst =
    Domain.join (Domain.spawn (fun () -> (Simulator.run ?seed algo inst).Simulator.outputs))
  in
  oa = out a && ob = out b

let random_kt1 rng n =
  Instance.kt1_of_graph
    (match Rng.int rng 3 with
    | 0 -> Ggen.random_multicycle rng n
    | 1 -> Ggen.random_bounded_degree rng n 3
    | _ -> Ggen.gnp rng n (1.5 /. float_of_int n))

(* A check run on each of the six shared-decode algorithms. *)
type check = { check : 'o. 'o Algo.packed -> bool }

let public_decode_checks ~agm_b ~adj_b { check } =
  [ check (Mt_connectivity.connectivity ());
    check (Mt_connectivity.components ());
    check (Agm_connectivity.connectivity ~bandwidth:agm_b ());
    check (Agm_connectivity.components ~bandwidth:agm_b ());
    check (Adjacency_matrix.connectivity ~bandwidth:adj_b ());
    check (Adjacency_matrix.components ~bandwidth:adj_b ()) ]

let test_memo_two_domains () =
  (* Different instances on two domains at once: each domain's memo is
     its own, and the outputs are those of sequential runs. *)
  let batch seed =
    let rng = Rng.create ~seed in
    let insts = List.init 3 (fun i -> random_kt1 rng (12 + (4 * i))) in
    fun () ->
      List.concat_map
        (fun inst ->
          let run algo = Simulator.run ~seed algo inst in
          let bools algo = Array.map (fun b -> if b then 1 else 0) (run algo).Simulator.outputs in
          let ints algo = (run algo).Simulator.outputs in
          [ bools (Mt_connectivity.connectivity ());
            ints (Mt_connectivity.components ());
            bools (Agm_connectivity.connectivity ~bandwidth:24 ());
            ints (Agm_connectivity.components ~bandwidth:24 ());
            bools (Adjacency_matrix.connectivity ~bandwidth:5 ());
            ints (Adjacency_matrix.components ~bandwidth:5 ()) ])
        insts
  in
  let a = batch 41 and b = batch 42 in
  let da = Domain.spawn a and db = Domain.spawn b in
  let ca = Domain.join da and cb = Domain.join db in
  Alcotest.(check bool) "first domain = sequential" true (ca = a ());
  Alcotest.(check bool) "second domain = sequential" true (cb = b ())

let suites =
  [ Alcotest.test_case "discovery KT-0" `Quick test_discovery_kt0;
    Alcotest.test_case "discovery KT-0 random wiring" `Quick test_discovery_kt0_random_wiring;
    Alcotest.test_case "discovery KT-1" `Quick test_discovery_kt1;
    Alcotest.test_case "discovery O(log n) rounds" `Quick test_discovery_rounds_logarithmic;
    Alcotest.test_case "discovery components" `Quick test_discovery_components;
    Alcotest.test_case "discovery degree check" `Quick test_discovery_degree_check;
    Alcotest.test_case "discovery degree 4" `Quick test_discovery_higher_degree;
    Alcotest.test_case "discovery ID promise" `Quick test_discovery_id_promise;
    Alcotest.test_case "truncated discovery" `Quick test_truncated_discovery;
    Alcotest.test_case "min-label" `Quick test_min_label;
    Alcotest.test_case "min-label rounds" `Quick test_min_label_rounds;
    Alcotest.test_case "boruvka" `Quick test_boruvka;
    Alcotest.test_case "boruvka components" `Quick test_boruvka_components;
    Alcotest.test_case "boruvka rounds/bandwidth" `Quick test_boruvka_rounds_and_bandwidth;
    Alcotest.test_case "adjacency matrix" `Quick test_adjacency_matrix;
    Alcotest.test_case "adjacency matrix components" `Quick test_adjacency_matrix_components;
    Alcotest.test_case "hashed discovery one-sided" `Quick test_hashed_discovery_one_sided;
    Alcotest.test_case "hashed discovery rounds" `Quick test_hashed_discovery_rounds;
    Alcotest.test_case "partial decider" `Quick test_connectivity_partial;
    Alcotest.test_case "agm sketch connectivity" `Slow test_agm_connectivity;
    Alcotest.test_case "agm sketch components" `Slow test_agm_components;
    Alcotest.test_case "agm rounds polylog" `Quick test_agm_rounds_polylog;
    Alcotest.test_case "mt syndrome connectivity" `Quick test_mt_connectivity;
    Alcotest.test_case "mt bounded degree + sparse gnp" `Quick test_mt_bounded_degree_and_sparse;
    Alcotest.test_case "mt components" `Quick test_mt_components;
    Alcotest.test_case "mt O(1) rounds at b=Theta(log n)" `Quick
      test_mt_rounds_constant_at_log_bandwidth;
    Alcotest.test_case "mt narrow-bandwidth chunking" `Quick test_mt_narrow_bandwidth_chunking;
    Alcotest.test_case "chunked bandwidth variants" `Quick test_chunked_bandwidth_variants;
    Alcotest.test_case "mt memo: tampered inbox" `Quick test_memo_tampered_mt;
    Alcotest.test_case "agm memo: tampered inbox" `Quick test_memo_tampered_agm;
    Alcotest.test_case "adjacency memo: tampered inbox" `Quick test_memo_tampered_adjacency;
    Alcotest.test_case "public decodes on two domains" `Quick test_memo_two_domains;
    Alcotest.test_case "mst matches kruskal" `Quick test_mst_matches_kruskal;
    Alcotest.test_case "mst total weight" `Quick test_mst_total_weight;
    Alcotest.test_case "mst on cycle" `Quick test_mst_on_promise_inputs;
    Alcotest.test_case "kt0 compiler: boruvka" `Quick test_kt0_compiler_boruvka;
    Alcotest.test_case "kt0 compiler: rounds" `Quick test_kt0_compiler_rounds;
    Alcotest.test_case "kt0 compiler: agm" `Slow test_kt0_compiler_agm;
    Alcotest.test_case "codec" `Quick test_codec;
    Alcotest.test_case "trivial baselines" `Quick test_trivial;
    Alcotest.test_case "measure decision error" `Quick test_measure_decision_error ]

(* Hashed_discovery against its history-decoding reference: the same
   outputs and, vertex by vertex, equal transcripts — at the full 3k
   rounds (cut > 3k) and truncated anywhere in 0..3k, where fields are
   partly heard. *)
let hashed_parity (n, k, coin, two, cut) =
  let rng = Rng.create ~seed:(coin + (1000 * n) + k) in
  let g = if two && n >= 6 then Ggen.random_two_cycles rng n else Ggen.random_cycle rng n in
  let inst = Instance.kt0_circulant g in
  let truncate (Algo.Packed a) =
    if cut > 3 * k then Algo.Packed a else Algo.Packed (Algo.truncate ~rounds:cut a)
  in
  let r = Simulator.run ~seed:coin (truncate (Hashed_discovery.connectivity ~k)) inst in
  let r' = Simulator.run ~seed:coin (truncate (Hashed_reference.connectivity ~k)) inst in
  r.Simulator.outputs = r'.Simulator.outputs
  && Array.for_all2 Transcript.equal r.Simulator.transcripts r'.Simulator.transcripts

(* Discovery against its history-decoding reference: all five
   constructors, cut at every t from 0 to the full budget, give the same
   outputs and, vertex by vertex, equal transcripts. KT-0 instances get
   a random permutation of 1..n as IDs; KT-1 ones random distinct IDs
   that fit the ID field, so both ID indexes are exercised. *)
let discovery_parity (kind, n, d, coin, optimist) =
  let rng = Rng.create ~seed:(coin + (1000 * n) + d) in
  let g =
    if d = 2 then if Rng.bool rng then Ggen.random_multicycle rng n else Ggen.random_cycle rng n
    else Ggen.random_bounded_degree rng n d
  in
  let knowledge, inst =
    match kind with
    | 0 -> (Instance.KT0, Instance.kt0_circulant ~ids:(Array.map succ (Rng.permutation rng n)) g)
    | 1 -> (Instance.KT0, Instance.kt0_random ~ids:(Array.map succ (Rng.permutation rng n)) rng g)
    | _ ->
      let span = (1 lsl Codec.id_width ~n) - 1 in
      let ids = Array.sub (Array.map succ (Rng.permutation rng span)) 0 n in
      (Instance.KT1, Instance.kt1_of_graph ~ids g)
  in
  let same a b =
    let r = Simulator.run ~seed:coin a inst and r' = Simulator.run ~seed:coin b inst in
    r.Simulator.outputs = r'.Simulator.outputs
    && Array.for_all2 Transcript.equal r.Simulator.transcripts r'.Simulator.transcripts
  in
  let cut t (Algo.Packed a) = Algo.Packed (Algo.truncate ~rounds:t a) in
  let max_degree = d in
  let full = Algo.rounds (Discovery.connectivity ~knowledge ~max_degree) ~n in
  List.for_all
    (fun t ->
      let module R = Discovery_reference in
      same
        (cut t (Discovery.connectivity ~knowledge ~max_degree))
        (cut t (R.connectivity ~knowledge ~max_degree))
      && same
           (cut t (Discovery.components ~knowledge ~max_degree))
           (cut t (R.components ~knowledge ~max_degree))
      && same
           (cut t (Discovery.connectivity_guess_no ~knowledge ~max_degree))
           (cut t (R.connectivity_guess_no ~knowledge ~max_degree))
      && same
           (Discovery.connectivity_truncated ~knowledge ~max_degree ~rounds:t ~optimist)
           (R.connectivity_truncated ~knowledge ~max_degree ~rounds:t ~optimist)
      && same
           (Discovery.connectivity_partial ~knowledge ~max_degree ~rounds:t ~optimist)
           (R.connectivity_partial ~knowledge ~max_degree ~rounds:t ~optimist))
    (List.init (full + 1) Fun.id)

let qsuites =
  let open QCheck2 in
  let hashed_case ns ks =
    Gen.(
      let* n = ns and* k = ks in
      let* coin = 0 -- 100000 and* two = bool and* cut = 0 -- (4 * k) in
      pure (n, k, coin, two, cut))
  in
  let print = Print.(tup5 int int int bool int) in
  [ Test.make ~name:"chunked payload round-trips at every bandwidth" ~count:100
      ~print:Print.(pair string int)
      Gen.(pair (string_size ~gen:(oneofl [ '0'; '1' ]) (1 -- 500)) (1 -- 1000))
      (fun (bits, capacity) ->
        let module Seq = Bcclb_util.Bits.Seq in
        let expected = Chunked.of_bits bits in
        List.for_all
          (fun bandwidth ->
            let acc = Array.init 1 (fun _ -> Seq.create ~capacity ()) in
            for chunk = 0 to Chunked.rounds ~bits:(String.length bits) ~bandwidth - 1 do
              Chunked.absorb ~into:acc (Inbox.of_array [| Chunked.emit ~bits ~bandwidth ~chunk |])
            done;
            Chunked.to_bits acc.(0) = bits && Seq.equal acc.(0) expected && Seq.equal expected acc.(0))
          (List.init Bcclb_util.Bits.max_width (fun i -> i + 1)));
    Test.make ~name:"public decodes: interleaved instances match Simulator.run" ~count:12
      ~print:Print.(tup4 int int int int)
      Gen.(tup4 (4 -- 40) (0 -- 100000) (40 -- 62) (1 -- 8))
      (fun (n, seed, agm_b, adj_b) ->
        let rng = Rng.create ~seed in
        let a = random_kt1 rng n and b = random_kt1 rng n in
        (* Same n and coins: only the payloads tell the two runs apart. *)
        List.for_all Fun.id
          (public_decode_checks ~agm_b ~adj_b
             { check = (fun algo -> interleaved_matches ~seed algo a b) }));
    Test.make ~name:"hashed discovery matches its history-decoding reference" ~count:200 ~print
      (hashed_case Gen.(4 -- 32) Gen.(1 -- 12))
      hashed_parity;
    (* The reference scans 2^20 buckets per vertex at k = 20: few, small cases. *)
    Test.make ~name:"hashed discovery matches its reference at k = 20" ~count:4 ~print
      (hashed_case Gen.(4 -- 12) (Gen.pure 20))
      hashed_parity;
    Test.make ~name:"discovery matches its history-decoding reference" ~count:60
      ~print:Print.(tup5 int int int int bool)
      Gen.(tup5 (0 -- 2) (6 -- 14) (2 -- 4) (0 -- 100000) bool)
      discovery_parity;
    Test.make ~name:"discovery agrees with ground truth on multicycles" ~count:60
      Gen.(pair (6 -- 20) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt0_circulant g in
        let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
        run_decision algo inst = G.is_connected g);
    Test.make ~name:"boruvka agrees with ground truth on gnp" ~count:60
      Gen.(pair (4 -- 16) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.gnp rng n 0.2 in
        let inst = Instance.kt1_of_graph g in
        run_decision (Boruvka.connectivity ()) inst = G.is_connected g);
    Test.make ~name:"mt syndrome connectivity agrees with ground truth on multicycles" ~count:40
      Gen.(pair (6 -- 18) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt1_of_graph g in
        run_decision (Mt_connectivity.connectivity ()) inst = G.is_connected g);
    Test.make ~name:"min-label matches discovery on multicycles" ~count:40
      Gen.(pair (6 -- 14) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt0_circulant g in
        run_decision (Min_label.connectivity ()) inst
        = run_decision (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) inst) ]
