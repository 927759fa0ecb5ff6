(* census: the exhaustive §3 pipeline. E3 (kt0-error) at its default grid
   through Runner.run into a fresh result cache, cold then warm, and the
   streaming orbit quotient at n = 10 and 11 for anonymous adjacency
   broadcast with t = 2 into a fresh orbit spill root. About 300,000 tiny
   executions: per-run cost matters, the exchange does not. Both renders
   must equal the committed E3 table, and the quotient statistics their
   committed values, at every seed: the census is exhaustive, and the
   seed only sets the public coins, which this algorithm never reads. *)

module H = Bcclb_harness
module Core = Bcclb_core

let quotient_ns = [ 10; 11 ]

(* Filled by the pass for the per-layer report. *)
let part_s : (string * float) list ref = ref []
let warm_hit_ratio = ref 0.0

let record_parts (r : H.Sink.report) =
  part_s :=
    List.fold_left
      (fun acc (c : H.Sink.cell_report) ->
        let part = H.Params.str c.H.Sink.params "part" in
        let prev = Option.value ~default:0.0 (List.assoc_opt part acc) in
        (part, prev +. c.H.Sink.seconds) :: List.remove_assoc part acc)
      [] r.H.Sink.cell_reports

let setup ~seed ~dir ~traced =
  let exp =
    match H.Registry.find "kt0-error" with Some e -> e | None -> failwith "kt0-error is not registered"
  in
  let golden_table = Golden.read "kt0-error.txt" in
  let golden_quotient = Golden.read_table "quotient.txt" in
  let cache_root = Filename.concat dir "cache" and orbit_root = Filename.concat dir "orbit" in
  (* The n = 6..8 census arenas E3 builds its certified graphs on: the
     workload's input, enumerated and interned once per process. *)
  Layers.timed ~traced:false "core.arena_get" (fun () ->
      List.iter (fun n -> ignore (Core.Arena.get ~n)) [ 6; 7; 8 ]);
  let algo = Bcclb_algorithms.Adjacency_broadcast.connectivity_truncated ~rounds:2 ~optimist:true in
  let algo = if traced then Layers.wrap Layers.Other algo else algo in
  let pass name =
    let cache = H.Cache.create ~root:cache_root in
    let buf = Buffer.create 8192 in
    let report =
      Layers.timed ~traced name (fun () ->
          H.Runner.run ~cache ~num_domains:1 ~sink:(H.Sink.to_buffer buf) exp)
    in
    List.iter
      (fun (c : H.Sink.cell_report) ->
        incr Tally.ops;
        Tally.sample ~seconds:c.H.Sink.seconds ~executions:c.H.Sink.executions)
      report.H.Sink.cell_reports;
    Tally.check (Buffer.contents buf = golden_table) "census: %s E3 table differs from golden/kt0-error.txt" name;
    report
  in
  fun () ->
    let cold = pass "runner.cold_pass" in
    let warm = pass "runner.warm_pass" in
    Tally.check (cold.H.Sink.hits = 0) "census: the cold pass hit the cache %d times" cold.H.Sink.hits;
    record_parts cold;
    warm_hit_ratio := float_of_int warm.H.Sink.hits /. float_of_int warm.H.Sink.cells;
    List.iter
      (fun n ->
        let store = Layers.timed ~traced "core.orbit_create_cold" (fun () -> Core.Arena.Orbit.create ~root:orbit_root ~n ()) in
        Tally.check (not (Core.Arena.Orbit.warm store)) "census: n=%d orbit store was warm on first open" n;
        let store = Layers.timed ~traced "core.orbit_create_warm" (fun () -> Core.Arena.Orbit.create ~root:orbit_root ~n ()) in
        Tally.check (Core.Arena.Orbit.warm store) "census: n=%d orbit store did not reopen warm" n)
      quotient_ns;
    List.iter
      (fun n ->
        let label = Printf.sprintf "quotient n=%d" n in
        Tally.op ~traced ~label (fun () ->
            let s =
              Layers.timed ~traced "core.quotient" (fun () ->
                  Core.Quotient.full_stats ~seed ~root:orbit_root algo ~n ())
            in
            Printf.eprintf "[perfbench] quotient n=%d: reps %d edges %d isolated %d live %d min_live %d max %d\n%!"
              n s.Core.Quotient.reps s.Core.Quotient.edges s.Core.Quotient.isolated_v1 s.Core.Quotient.live_v1
              s.Core.Quotient.min_live_degree s.Core.Quotient.max_degree_v1;
            List.iter
              (fun (field, v) ->
                let key = Printf.sprintf "n%d.%s" n field in
                match List.assoc_opt key golden_quotient with
                | Some g -> Tally.check (g = string_of_int v) "census: %s = %d, golden %s" key v g
                | None -> Tally.fail "census: no golden for %s" key)
              Core.Quotient.
                [ ("reps", s.reps); ("edges", s.edges); ("isolated", s.isolated_v1);
                  ("live", s.live_v1); ("min_live_degree", s.min_live_degree);
                  ("max_degree", s.max_degree_v1) ]))
      quotient_ns
