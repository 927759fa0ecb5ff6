(* Bechamel benchmarks: one kernel per experiment (E1..E10), timing the
   computational core that regenerates each claim. Run with

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit
module Core = Bcclb_core
module Rng = Bcclb_util.Rng
module Bcc_instance = Bcclb_bcc.Instance
module Sp = Bcclb_partition.Set_partition
module Tp = Bcclb_partition.Two_partition

let truncated ~rounds =
  Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Bcc_instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

(* E1: census enumeration. *)
let bench_census =
  Test.make ~name:"e1-census-n8" (Staged.stage @@ fun () -> ignore (Core.Census.two_cycles ~n:8))

(* E2: indistinguishability graph construction. *)
let bench_indist =
  Test.make ~name:"e2-indist-graph-n6-t2"
    (Staged.stage @@ fun () -> ignore (Core.Indist_graph.build (truncated ~rounds:2) ~n:6 ()))

(* E3: exact distributional error under mu. *)
let bench_mu_error =
  Test.make ~name:"e3-mu-error-n6-t2"
    (Staged.stage @@ fun () -> ignore (Core.Hard_distribution.exact_error (truncated ~rounds:2) ~n:6))

(* E4: one crossing + indistinguishability comparison. *)
let bench_crossing =
  let inst = Bcc_instance.kt0_circulant (Bcclb_graph.Gen.cycle 32) in
  let algo = truncated ~rounds:5 in
  Test.make ~name:"e4-cross-and-compare-n32"
    (Staged.stage
    @@ fun () ->
    let crossed = Bcc_instance.cross inst (0, 1) (16, 17) in
    ignore (Bcclb_bcc.Simulator.indistinguishable algo inst crossed))

(* E5: rank of E^8 over Z_p. *)
let bench_rank =
  let m = Bcclb_linalg.Partition_matrix.e_matrix ~n:8 in
  let f = Bcclb_linalg.Zmod.create () in
  Test.make ~name:"e5-rank-E8-modp" (Staged.stage @@ fun () -> ignore (Bcclb_linalg.Zmod.rank f m))

let bench_rank_exact =
  let m = Bcclb_linalg.Partition_matrix.m_matrix ~n:4 in
  Test.make ~name:"e5-rank-M4-bareiss" (Staged.stage @@ fun () -> ignore (Bcclb_linalg.Bareiss.rank_int m))

(* E6: the trivial Partition protocol at n=256. *)
let bench_partition_protocol =
  let rng = Rng.create ~seed:1 in
  let pa = Sp.random_crp rng ~n:256 and pb = Sp.random_crp rng ~n:256 in
  let spec = Bcclb_comm.Upper_bounds.partition_protocol ~n:256 in
  Test.make ~name:"e6-partition-protocol-n256"
    (Staged.stage @@ fun () -> ignore (Bcclb_comm.Protocol.run spec pa pb))

(* E7: gadget construction + component extraction. *)
let bench_gadget =
  let rng = Rng.create ~seed:2 in
  let pa = Sp.random_crp rng ~n:128 and pb = Sp.random_crp rng ~n:128 in
  Test.make ~name:"e7-gadget-n128"
    (Staged.stage
    @@ fun () ->
    let g = Bcclb_comm.Reduction_graph.gadget pa pb in
    ignore (Bcclb_comm.Reduction_graph.gadget_partition g ~n:128))

(* E8: the full 2-party BCC simulation pipeline. *)
let bench_pipeline =
  let rng = Rng.create ~seed:3 in
  let pa = Tp.random rng ~n:16 and pb = Tp.random rng ~n:16 in
  let algo = Bcclb_algorithms.Discovery.connectivity ~knowledge:Bcc_instance.KT1 ~max_degree:2 in
  Test.make ~name:"e8-bcc-to-2party-n16"
    (Staged.stage @@ fun () -> ignore (Bcclb_comm.Bcc_simulation.two_partition_via_bcc algo pa pb))

(* E9: exact mutual information over all B_5 inputs. *)
let bench_mi =
  Test.make ~name:"e9-mutual-info-n5"
    (Staged.stage @@ fun () -> ignore (Core.Info_bound.row ~n:5 ~epsilon:0.25))

(* E10: the three upper-bound algorithms. *)
let bench_discovery =
  let inst = Bcc_instance.kt0_circulant (Bcclb_graph.Gen.cycle 64) in
  let algo = Bcclb_algorithms.Discovery.connectivity ~knowledge:Bcc_instance.KT0 ~max_degree:2 in
  Test.make ~name:"e10-discovery-kt0-n64"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_min_label =
  let inst = Bcc_instance.kt0_circulant (Bcclb_graph.Gen.cycle 32) in
  let algo = Bcclb_algorithms.Min_label.connectivity () in
  Test.make ~name:"e10-min-label-n32"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_boruvka =
  let rng = Rng.create ~seed:4 in
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.gnp rng 64 0.08) in
  let algo = Bcclb_algorithms.Boruvka.connectivity () in
  Test.make ~name:"e10-boruvka-n64"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

(* Substrate micro-benchmarks. *)
let bench_bell =
  Test.make ~name:"sub-bell-100" (Staged.stage @@ fun () -> ignore (Bcclb_bignum.Combi.bell 100))

let bench_join =
  let rng = Rng.create ~seed:5 in
  let pa = Sp.random_crp rng ~n:10000 and pb = Sp.random_crp rng ~n:10000 in
  Test.make ~name:"sub-join-n10000" (Staged.stage @@ fun () -> ignore (Sp.join pa pb))

let bench_hopcroft_karp =
  let rng = Rng.create ~seed:6 in
  let adj = Array.init 500 (fun _ -> Array.init 8 (fun _ -> Rng.int rng 500)) in
  Test.make ~name:"sub-hopcroft-karp-500"
    (Staged.stage @@ fun () -> ignore (Bcclb_graph.Hopcroft_karp.max_matching ~nl:500 ~nr:500 ~adj))

(* Extensions: E11..E14 kernels. *)
let bench_pls_spanning =
  let inst = Bcc_instance.kt0_circulant (Bcclb_graph.Gen.cycle 64) in
  let scheme = Bcclb_plschemes.Spanning_tree.scheme in
  Test.make ~name:"e11-pls-spanning-n64"
    (Staged.stage
    @@ fun () ->
    match scheme.Bcclb_plschemes.Scheme.prove inst with
    | Some labels -> ignore (Bcclb_plschemes.Scheme.run scheme inst ~labels)
    | None -> assert false)

let bench_token_routing =
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.cycle 17) in
  let algo = Bcclb_rcc.Token_routing.algo ~r:4 () in
  Test.make ~name:"e12-token-routing-n17-r4"
    (Staged.stage @@ fun () -> ignore (Bcclb_rcc.Rcc_simulator.run algo inst))

let bench_split_boruvka =
  let rng = Rng.create ~seed:7 in
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.gnp rng 16 0.2) in
  let algo = Bcclb_bcc.Split.compile (Bcclb_algorithms.Boruvka.connectivity ()) in
  Test.make ~name:"e13-split-boruvka-n16"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_mst =
  let rng = Rng.create ~seed:8 in
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.gnp rng 32 0.2) in
  let algo = Bcclb_algorithms.Mst_boruvka.forest () in
  Test.make ~name:"e13-mst-boruvka-n32"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_agm =
  let rng = Rng.create ~seed:9 in
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.gnp rng 16 0.15) in
  let algo = Bcclb_algorithms.Agm_connectivity.connectivity () in
  Test.make ~name:"e14-agm-sketch-n16"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_mt_syndrome =
  let rng = Rng.create ~seed:11 in
  let inst = Bcc_instance.kt1_of_graph (Bcclb_graph.Gen.gnp rng 16 0.15) in
  let algo = Bcclb_algorithms.Mt_connectivity.connectivity () in
  Test.make ~name:"e15-mt-syndrome-n16"
    (Staged.stage @@ fun () -> ignore (Bcclb_bcc.Simulator.run algo inst))

let bench_syndrome_decode =
  let module Gfp = Bcclb_detsketch.Gfp in
  let module Syndrome = Bcclb_detsketch.Syndrome in
  let universe = 2016 in
  let field = Gfp.for_universe ~universe in
  let s = 12 in
  let planted = Array.init s (fun i -> (i * 157 mod universe, if i land 1 = 0 then 1 else -1)) in
  let candidates = Array.init universe Fun.id in
  Test.make ~name:"sub-syndrome-decode-s12"
    (Staged.stage
    @@ fun () ->
    let t = Syndrome.create ~field ~r:(Syndrome.elements_for ~s) in
    Array.iter (fun (c, w) -> Syndrome.add t ~coord:c ~weight:w) planted;
    ignore (Syndrome.decode t ~s ~candidates))

let bench_l0_sampler =
  let rng = Rng.create ~seed:10 in
  let spec = Bcclb_sketch.L0_sampler.fresh_spec rng in
  Test.make ~name:"sub-l0-sampler-500toggles"
    (Staged.stage
    @@ fun () ->
    let s = Bcclb_sketch.L0_sampler.create ~universe:2016 ~check_bits:15 spec in
    for e = 0 to 499 do
      Bcclb_sketch.L0_sampler.toggle s e
    done;
    ignore (Bcclb_sketch.L0_sampler.sample s))

(* Engine layer: batch-simulation throughput of Engine.Pool at 1 vs N
   domains. The same 24 independent (instance, seed) simulations either
   way — the row ratio is the tracked speedup (≈1 on a single-core box,
   approaching the domain count on real hardware). *)
let pool_cells = Array.init 24 (fun i -> i)

let pool_cell seed =
  let rng = Rng.create ~seed in
  let inst = Bcc_instance.kt0_circulant (Bcclb_graph.Gen.random_cycle rng 48) in
  let algo =
    Bcclb_algorithms.Discovery.connectivity ~knowledge:Bcc_instance.KT0 ~max_degree:2
  in
  Bcclb_bcc.Simulator.total_bits_broadcast (Bcclb_bcc.Simulator.run ~seed algo inst)

let bench_pool_batch_1dom =
  Test.make ~name:"engine-pool-batch-sim-1dom"
    (Staged.stage @@ fun () -> ignore (Bcclb_engine.Pool.map_batch ~num_domains:1 pool_cell pool_cells))

let bench_pool_batch_4dom =
  Test.make ~name:"engine-pool-batch-sim-4dom"
    (Staged.stage @@ fun () -> ignore (Bcclb_engine.Pool.map_batch ~num_domains:4 pool_cell pool_cells))

let bench_pool_indist_1dom =
  Test.make ~name:"engine-pool-indist-n7t2-1dom"
    (Staged.stage
    @@ fun () ->
    ignore (Bcclb_engine.Pool.map_batch ~num_domains:1 (fun t -> Core.Indist_graph.build (truncated ~rounds:t) ~n:7 ()) [| 1; 2; 1; 2 |]))

let bench_pool_indist_4dom =
  Test.make ~name:"engine-pool-indist-n7t2-4dom"
    (Staged.stage
    @@ fun () ->
    ignore (Bcclb_engine.Pool.map_batch ~num_domains:4 (fun t -> Core.Indist_graph.build (truncated ~rounds:t) ~n:7 ()) [| 1; 2; 1; 2 |]))

let tests =
  Test.make_grouped ~name:"bcclb"
    [ bench_census; bench_indist; bench_mu_error; bench_crossing; bench_rank; bench_rank_exact;
      bench_partition_protocol; bench_gadget; bench_pipeline; bench_mi; bench_discovery;
      bench_min_label; bench_boruvka; bench_bell; bench_join; bench_hopcroft_karp;
      bench_pls_spanning; bench_token_routing; bench_split_boruvka; bench_mst; bench_agm;
      bench_mt_syndrome; bench_syndrome_decode; bench_l0_sampler; bench_pool_batch_1dom; bench_pool_batch_4dom; bench_pool_indist_1dom;
      bench_pool_indist_4dom ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  Analyze.merge ols instances results

let bench_json_path = "BENCH_engine.json"

let () =
  let results = benchmark () in
  (* Plain-text report (time per run for each kernel) plus the
     machine-readable twin via the harness Sink. *)
  Hashtbl.iter
    (fun measure tbl ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then begin
        let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
        let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
        Printf.printf "%-40s %18s\n" "benchmark" "time/run";
        let json_rows =
          List.filter_map
            (fun (name, ols) ->
              match Analyze.OLS.estimates ols with
              | Some [ est ] ->
                let pretty =
                  if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
                  else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
                  else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
                  else Printf.sprintf "%.1f ns" est
                in
                Printf.printf "%-40s %18s\n" name pretty;
                Some (name, est)
              | _ ->
                Printf.printf "%-40s %18s\n" name "n/a";
                None)
            rows
        in
        Bcclb_harness.Sink.write_bench ~path:bench_json_path json_rows;
        Printf.printf "\nwrote %s (%d kernels)\n" bench_json_path (List.length json_rows)
      end)
    results
