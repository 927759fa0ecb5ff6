(* Parity + timing smoke for the packed and orbit-reduced §3 fast paths.

   Runs the indist-build and crossing-check kernels across modes —
   packed (arena handles + 2-bit codes, every instance), orbit (one
   execution per rotation class, weighted expansion) and the crossing
   check's `All vs `Sampled verification — checks that the modes agree,
   and writes the timings to BENCH_engine.json (bcclb-bench-v2 schema,
   same file the bechamel suite produces). Exits nonzero on any parity
   mismatch, so CI can gate on it. The string-label oracle the packed
   builds are checked against lives in the test suite
   (test/indist_reference.ml).

     dune exec bin/bench_smoke.exe --                 # n=8 parity + timing
     dune exec bin/bench_smoke.exe -- --orbit-parity  # + orbit==packed, n=8..10
     dune exec bin/bench_smoke.exe -- --deep          # + n=9/10 timings, speedup gate, frontier
     dune exec bin/bench_smoke.exe -- --deep --n13    # + n=13 frontier row
     dune exec bin/bench_smoke.exe -- --out f.json
     dune exec bin/bench_smoke.exe -- --baseline bench/baselines/engine.json
     dune exec bin/bench_smoke.exe -- --baseline B.json --against CURRENT.json

   --baseline FILE compares the fresh report (or, with --against FILE,
   an existing report — no kernels run) against a committed baseline
   and exits nonzero on regression: a timing row above baseline by more
   than --tolerance PCT (default 25), a speedup row below it, a
   deterministic row or counter that moved at all, or a baseline row
   missing from the report. --write-baseline FILE records the fresh
   numbers with headroom (timings x3, speedups /2) so the committed
   file is a budget, not a lucky sample.

   --orbit-parity asserts the orbit-reduced build_full/build match the
   packed path byte-for-byte at n=8..10 (the CI gate for the quotient
   machinery). --deep additionally times the n=9 build_full cold and
   memoised, measures the n=10 orbit-streamed vs non-orbit materialised
   speedup (target >= 5x), records orbit-count vs census-size for every
   store-supported n, and times the streaming frontier to n=12 (n=13
   with --n13; expect ~15 min single-core). *)

module Core = Bcclb_core
module Instance = Bcclb_bcc.Instance
module Rng = Bcclb_util.Rng

let truncated ~rounds =
  Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

(* The anonymous family: the only algorithms the orbit-reduced paths are
   sound for at t >= 1 (rotation-equivariant transcripts). *)
let anonymous ~rounds =
  Bcclb_algorithms.Adjacency_broadcast.connectivity_truncated ~rounds ~optimist:true

(* Best of [reps] runs: one result, the minimum wall-clock — robust to
   scheduler noise, which matters when a 5x ratio is the gate. *)
let time ?(reps = 3) f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let s = Unix.gettimeofday () -. t0 in
    if s < !best then begin
      best := s;
      result := Some r
    end
  done;
  (Option.get !result, !best)

let failures = ref 0

let expect name ok =
  if ok then Printf.printf "  parity %-38s ok\n%!" name
  else begin
    incr failures;
    Printf.printf "  parity %-38s MISMATCH\n%!" name
  end

let rows : (string * float) list ref = ref []
let record name seconds = rows := (name, seconds *. 1e9) :: !rows

let graphs_equal (a : Core.Indist_graph.t) (b : Core.Indist_graph.t) =
  String.equal a.Core.Indist_graph.x b.Core.Indist_graph.x
  && String.equal a.Core.Indist_graph.y b.Core.Indist_graph.y
  && a.Core.Indist_graph.adj = b.Core.Indist_graph.adj
  && a.Core.Indist_graph.radj = b.Core.Indist_graph.radj

let smoke_indist ~n ~t =
  let algo = truncated ~rounds:t in
  let _, s_build = time (fun () -> Core.Indist_graph.build algo ~n ()) in
  let _, s_full = time (fun () -> Core.Indist_graph.build_full algo ~n ()) in
  record (Printf.sprintf "smoke-indist-build-n%d-t%d-packed" n t) s_build;
  record (Printf.sprintf "smoke-indist-build-full-n%d-t%d-packed" n t) s_full;
  Printf.printf "  build n=%d t=%d: %.3fs, build_full %.3fs\n%!" n t s_build s_full

let smoke_crossing ~n ~t =
  let algo = truncated ~rounds:t in
  let run verify = Core.Crossing_check.check ~verify algo ~n ~instances:2 ~wiring:`Circulant (Rng.create ~seed:5) in
  let all, s_all = time (fun () -> run `All) in
  let sampled, s_sampled = time (fun () -> run (`Sampled 16)) in
  record (Printf.sprintf "smoke-crossing-check-n%d-t%d-legacy" n t) s_all;
  record (Printf.sprintf "smoke-crossing-check-n%d-t%d-packed" n t) s_sampled;
  expect
    (Printf.sprintf "crossing-check n=%d t=%d" n t)
    Core.Crossing_check.(
      all.crossable_pairs = sampled.crossable_pairs
      && all.same_label_pairs = sampled.same_label_pairs
      && all.indistinguishable = sampled.indistinguishable
      && all.violations = 0 && sampled.violations = 0)

(* The detsketch decode kernel: build a signed s-sparse vector over the
   n=512 edge universe, take its 2s+3-element syndrome, and recover it
   exactly with Prony/Berlekamp–Massey. Deterministic end to end — the
   parity check is exact equality with the planted support. *)
let smoke_detsketch () =
  let module Gfp = Bcclb_detsketch.Gfp in
  let module Syndrome = Bcclb_detsketch.Syndrome in
  let n = 512 and s = 24 in
  let universe = n * (n - 1) / 2 in
  let field = Gfp.for_universe ~universe in
  let rng = Rng.create ~seed:99 in
  let planted =
    let seen = Hashtbl.create 64 in
    let rec pick k acc =
      if k = 0 then acc
      else
        let c = Rng.int rng universe in
        if Hashtbl.mem seen c then pick k acc
        else begin
          Hashtbl.add seen c ();
          pick (k - 1) ((c, if Rng.bool rng then 1 else -1) :: acc)
        end
    in
    pick s [] |> List.sort compare |> Array.of_list
  in
  let r = Syndrome.elements_for ~s in
  let decoded, secs =
    time (fun () ->
        let t = Syndrome.create ~field ~r in
        Array.iter (fun (c, w) -> Syndrome.add t ~coord:c ~weight:w) planted;
        Syndrome.decode t ~s ~candidates:(Array.init universe Fun.id))
  in
  record (Printf.sprintf "smoke-detsketch-decode-n%d-s%d" n s) secs;
  expect
    (Printf.sprintf "detsketch-decode n=%d s=%d" n s)
    (match decoded with Some got -> got = planted | None -> false)

(* The MT deterministic-connectivity kernel: full simulator execution at
   b = Theta(log n), checked against the Conn union-find oracle on both
   a YES and a NO instance. Runs through Simulator, so it moves the
   engine.runs / engine.bits_broadcast counters the baseline pins. *)
let smoke_mt_connectivity () =
  let module Graph = Bcclb_graph.Graph in
  let module Conn = Bcclb_graph.Conn in
  let module Gen = Bcclb_graph.Gen in
  let module Simulator = Bcclb_bcc.Simulator in
  let n = 48 in
  let check name g =
    let uf = Conn.create n in
    Graph.iter_edges (fun u v -> ignore (Conn.union uf u v)) g;
    let truth = Conn.components uf = 1 in
    let algo = Bcclb_algorithms.Mt_connectivity.connectivity () in
    let result, secs =
      time (fun () -> Simulator.run ~seed:3 algo (Instance.kt1_of_graph g))
    in
    record (Printf.sprintf "smoke-mt-connectivity-n%d-%s" n name) secs;
    expect
      (Printf.sprintf "mt-connectivity n=%d %s" n name)
      (Bcclb_bcc.Problems.system_decision result.Simulator.outputs = truth)
  in
  check "yes" (Gen.random_connected (Rng.create ~seed:11) n);
  check "no" (Gen.random_two_cycles (Rng.create ~seed:12) n)

(* Orbit-reduced vs packed parity: identical graphs from one execution
   per rotation class. t >= 1 with a labelled (x, y) build exercises the
   orientation-flip correction (reversed members read the rep's (y, x)
   row), which is where a wrong atlas would show. *)
let orbit_parity ~n ~t =
  let algo = anonymous ~rounds:t in
  let orbit, s_orbit = time ~reps:1 (fun () -> Core.Indist_graph.build_full algo ~n ()) in
  let packed, s_packed = time ~reps:1 (fun () -> Core.Indist_graph.build_full_packed algo ~n ()) in
  record (Printf.sprintf "smoke-orbit-build-full-n%d-t%d-orbit" n t) s_orbit;
  record (Printf.sprintf "smoke-orbit-build-full-n%d-t%d-packed" n t) s_packed;
  expect
    (Printf.sprintf "orbit-build-full n=%d t=%d" n t)
    (orbit.Core.Indist_graph.adj = packed.Core.Indist_graph.adj
    && orbit.Core.Indist_graph.radj = packed.Core.Indist_graph.radj);
  let lorbit = Core.Indist_graph.build algo ~n () in
  let lpacked = Core.Indist_graph.build_packed algo ~n () in
  expect (Printf.sprintf "orbit-build (labelled) n=%d t=%d" n t) (graphs_equal lorbit lpacked)

let orbit_parity_sweep () =
  Printf.printf "orbit parity: orbit-reduced vs packed at n=8..10\n%!";
  List.iter (fun n -> List.iter (fun t -> orbit_parity ~n ~t) [ 0; 2; 3 ]) [ 8; 9; 10 ]

let deep_n9 () =
  let n = 9 and t = 2 in
  let algo = truncated ~rounds:t in
  (* First call pays census enumeration + every execution; subsequent
     calls hit the process-level arena and code memos — the steady state
     a parameter sweep sees. Record both. *)
  let _, s_cold = time ~reps:1 (fun () -> Core.Indist_graph.build_full algo ~n ()) in
  let _, s_packed = time (fun () -> Core.Indist_graph.build_full algo ~n ()) in
  record (Printf.sprintf "smoke-indist-build-full-n%d-t%d-packed-cold" n t) s_cold;
  record (Printf.sprintf "smoke-indist-build-full-n%d-t%d-packed" n t) s_packed;
  Printf.printf "  build_full n=%d t=%d: packed cold %.2fs, memoised %.3fs\n%!" n t s_cold s_packed

let deep_n10 () =
  let n = 10 and t = 4 in
  let algo = truncated ~rounds:t in
  let g, s = time ~reps:1 (fun () -> Core.Indist_graph.build_full algo ~n ()) in
  record (Printf.sprintf "smoke-indist-build-full-n%d-t%d-packed" n t) s;
  Printf.printf "  exhaustive build_full n=%d t=%d: %.2fs, %d edges\n%!" n t s
    (Core.Indist_graph.num_edges g);
  let (), s_hall =
    time ~reps:1 (fun () ->
        match Core.Indist_graph.hall_condition_sampled ~samples:50 (Rng.create ~seed:7) g ~k:1 with
        | Ok () -> Printf.printf "  sampled Hall condition (k=1): holds\n%!"
        | Error s ->
          incr failures;
          Printf.printf "  sampled Hall condition (k=1): VIOLATED by |S|=%d\n%!" (List.length s))
  in
  record (Printf.sprintf "smoke-hall-sampled-n%d-t%d" n t) s_hall

(* The orbit payoff gate: the same deliverable — exhaustive full-graph
   statistics at n=10 — via the orbit-reduced streaming quotient
   (executes one representative per rotation class off the segmented
   store) vs the non-orbit path (packed build materialising all |V1|
   rows). Cold-vs-cold: the quotient gets a fresh spill root and the
   packed side a fresh seed (the seed keys the arena's execution memo),
   so neither rides a warm cache. *)
let deep_orbit () =
  let n = 10 and t = 2 in
  let algo = anonymous ~rounds:t in
  ignore (Core.Arena.get ~n);
  let root = Filename.concat (Filename.get_temp_dir_name ()) "bcclb-bench-orbit" in
  let stats, s_orbit =
    time ~reps:1 (fun () -> Core.Quotient.full_stats ~root algo ~n ())
  in
  let packed, s_packed =
    time ~reps:1 (fun () -> Core.Indist_graph.build_full_packed ~seed:17 algo ~n ())
  in
  record (Printf.sprintf "smoke-orbit-stats-n%d-t%d-streamed" n t) s_orbit;
  record (Printf.sprintf "smoke-orbit-stats-n%d-t%d-materialised" n t) s_packed;
  expect
    (Printf.sprintf "orbit-streamed stats n=%d t=%d" n t)
    (stats.Core.Quotient.edges = Core.Indist_graph.num_edges packed);
  let speedup = s_packed /. s_orbit in
  rows := (Printf.sprintf "smoke-orbit-stats-n%d-t%d-speedup-x" n t, speedup) :: !rows;
  Printf.printf
    "  full-graph stats n=%d t=%d: materialised %.2fs orbit-streamed %.2fs -> %.1fx speedup\n%!" n t
    s_packed s_orbit speedup;
  if speedup < 5.0 then begin
    incr failures;
    Printf.printf "  orbit speedup target (>= 5x) NOT MET\n%!"
  end

(* Orbit-count vs census-size rows, plus streaming-frontier timings past
   the materialisable census. Store builds reuse the bench spill root so
   a second --deep run reports warm numbers. *)
let deep_frontier ~n13 () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "bcclb-bench-orbit" in
  let ns = [ 8; 9; 10; 11; 12 ] @ if n13 then [ 13 ] else [] in
  List.iter
    (fun n ->
      let store = Core.Arena.Orbit.get ~root ~n () in
      let v1 = Core.Census.num_one_cycles ~n in
      rows := (Printf.sprintf "orbit-census-v1-n%d" n, float_of_int v1) :: !rows;
      rows :=
        (Printf.sprintf "orbit-reps-n%d" n, float_of_int (Core.Arena.Orbit.n_reps store)) :: !rows;
      if n >= 11 then begin
        let s, secs =
          time ~reps:1 (fun () -> Core.Quotient.full_stats ~root (anonymous ~rounds:2) ~n ())
        in
        record (Printf.sprintf "smoke-orbit-frontier-n%d-t2" n) secs;
        Printf.printf "  frontier n=%d t=2: %d reps for |V1|=%d, %d edges, %.2fs (warm=%b)\n%!" n
          s.Core.Quotient.reps s.Core.Quotient.v1 s.Core.Quotient.edges secs s.Core.Quotient.warm
      end)
    ns

(* ---- baseline comparison: --baseline / --against / --write-baseline ---- *)

module Json = Bcclb_harness.Json

let load_json path =
  match Json.of_string (String.trim (Bcclb_harness.Fsutil.read_file path)) with
  | j -> j
  | exception Sys_error e ->
    Printf.printf "bench compare: %s\n%!" e;
    exit 2
  | exception Failure e ->
    Printf.printf "bench compare: %s: %s\n%!" path e;
    exit 2

let schema_of path j =
  match Option.bind (Json.member "schema" j) Json.to_str_opt with
  | Some s -> s
  | None ->
    Printf.printf "bench compare: %s: no schema field\n%!" path;
    exit 2

let bench_rows j =
  match Json.member "benchmarks" j with
  | Some (Json.List items) ->
    List.filter_map
      (fun it ->
        match
          ( Option.bind (Json.member "name" it) Json.to_str_opt,
            Option.bind (Json.member "time_ns_per_run" it) Json.to_float_opt )
        with
        | Some n, Some v -> Some (n, v)
        | _ -> None)
      items
  | _ -> []

let counter_metric j name =
  Option.bind (Json.member "metrics" j) (fun m ->
      Option.bind (Json.member name m) (fun c ->
          Option.bind (Json.member "value" c) Json.to_int_opt))

(* Three comparison regimes per row, keyed by the naming convention the
   recorders above follow: -speedup-x rows are ratios (higher is
   better), orbit-census/orbit-reps rows are exact combinatorial counts
   (any drift is a correctness bug, not noise), everything else is a
   wall-clock timing in ns (lower is better, subject to a 10 ms noise
   floor — sub-10ms rows jitter too much on shared runners to gate). *)
type row_class = Exact | Higher_better | Lower_better

let classify name =
  if Filename.check_suffix name "-speedup-x" then Higher_better
  else if
    String.starts_with ~prefix:"orbit-census-v1-" name
    || String.starts_with ~prefix:"orbit-reps-" name
  then Exact
  else Lower_better

let noise_floor_ns = 1e7

let regressions = ref 0

let regress fmt =
  incr regressions;
  Printf.printf fmt

let compare_engine ~tolerance baseline current =
  let cur = bench_rows current in
  let tol = tolerance /. 100.0 in
  List.iter
    (fun (name, bv) ->
      match List.assoc_opt name cur with
      | None -> regress "  REGRESSION %-44s missing from report\n%!" name
      | Some cv -> (
        match classify name with
        | Exact ->
          if cv <> bv then
            regress "  REGRESSION %-44s expected exactly %.0f, got %.0f\n%!" name bv cv
        | Higher_better ->
          if cv < bv *. (1.0 -. tol) then
            regress "  REGRESSION %-44s %.2fx, below baseline %.2fx - %g%%\n%!" name cv bv
              tolerance
        | Lower_better ->
          if bv < noise_floor_ns then
            Printf.printf "  skip       %-44s baseline %.2gns under noise floor\n%!" name bv
          else if cv > bv *. (1.0 +. tol) then
            regress "  REGRESSION %-44s %.3gns, above baseline %.3gns + %g%%\n%!" name cv bv
              tolerance))
    (bench_rows baseline);
  (* The deterministic work counters: same kernels + same flags must
     replay the same executions bit-for-bit. A drift here is an
     algorithmic change — refresh the committed baseline deliberately. *)
  List.iter
    (fun m ->
      match (counter_metric baseline m, counter_metric current m) with
      | Some b, Some c when b <> c ->
        regress "  REGRESSION counter %-36s %d -> %d (refresh the baseline if intended)\n%!" m b
          c
      | Some _, None -> regress "  REGRESSION counter %-36s missing from report\n%!" m
      | _ -> ())
    [ "engine.runs"; "engine.bits_broadcast" ]

let compare_files ~tolerance ~baseline_path ~current_path =
  let b = load_json baseline_path in
  let c = load_json current_path in
  let bs = schema_of baseline_path b in
  let cs = schema_of current_path c in
  Printf.printf "baseline compare: %s vs %s (tolerance %g%%)\n%!" current_path baseline_path
    tolerance;
  if bs <> cs then regress "  REGRESSION schema mismatch: baseline %S, report %S\n%!" bs cs
  else begin
    match bs with
    | "bcclb-bench-v2" -> compare_engine ~tolerance b c
    | s ->
      Printf.printf "bench compare: unsupported schema %S\n%!" s;
      exit 2
  end;
  if !regressions > 0 then begin
    Printf.printf "baseline compare: %d regression(s)\n%!" !regressions;
    1
  end
  else begin
    Printf.printf "baseline compare: within tolerance\n%!";
    0
  end

(* The committed baseline is a budget, not a lucky sample: timings get
   3x headroom, speedups keep half their measured margin, exact rows are
   written as measured. *)
let headroom_rows rows =
  List.map
    (fun (name, v) ->
      match classify name with
      | Exact -> (name, v)
      | Higher_better -> (name, v /. 2.0)
      | Lower_better -> (name, v *. 3.0))
    rows

let () =
  let deep = Array.exists (String.equal "--deep") Sys.argv in
  let orbit_parity_mode = Array.exists (String.equal "--orbit-parity") Sys.argv in
  let n13 = Array.exists (String.equal "--n13") Sys.argv in
  let flag_value flag =
    let r = ref None in
    Array.iteri
      (fun i a -> if String.equal a flag && i + 1 < Array.length Sys.argv then r := Some Sys.argv.(i + 1))
      Sys.argv;
    !r
  in
  let out = ref (Option.value ~default:"BENCH_engine.json" (flag_value "--out")) in
  let baseline = flag_value "--baseline" in
  let against = flag_value "--against" in
  let write_baseline = flag_value "--write-baseline" in
  let tolerance =
    match flag_value "--tolerance" with
    | None -> 25.0
    | Some s -> (
      match float_of_string_opt s with
      | Some v when v >= 0.0 -> v
      | _ ->
        Printf.eprintf "bench_smoke: --tolerance must be a percentage >= 0 (got %s)\n" s;
        exit 2)
  in
  (* Pure compare mode: gate an existing report against a baseline
     without running any kernels (the CI injected-regression check). *)
  (match (baseline, against) with
  | Some baseline_path, Some current_path ->
    exit (compare_files ~tolerance ~baseline_path ~current_path)
  | None, Some _ ->
    Printf.eprintf "bench_smoke: --against requires --baseline\n";
    exit 2
  | _ -> ());
  Bcclb_obs.Trace.start_from_env ();
  Printf.printf "bench smoke: n=8 kernels, parity and timing\n%!";
  smoke_indist ~n:8 ~t:2;
  smoke_crossing ~n:8 ~t:2;
  smoke_detsketch ();
  smoke_mt_connectivity ();
  orbit_parity ~n:8 ~t:3;
  if orbit_parity_mode then orbit_parity_sweep ();
  if deep then begin
    Printf.printf "deep: n=9 timing, exhaustive n=10, orbit speedup, orbit frontier\n%!";
    deep_n9 ();
    deep_n10 ();
    deep_orbit ();
    deep_frontier ~n13 ()
  end;
  (* write_bench appends the merged obs-metric snapshot plus GC words
     and peak RSS, so BENCH_engine.json carries the counters (engine
     runs/bits, arena memo hits, pool latencies) that make the perf
     trajectory comparable PR-over-PR. *)
  Bcclb_harness.Sink.write_bench ~path:!out (List.rev !rows);
  let gc = Gc.quick_stat () in
  Printf.printf "wrote %s (%d rows); engine runs %d, bits broadcast %d\n%!" !out
    (List.length !rows)
    (Bcclb_engine.Engine.run_count ())
    Bcclb_obs.Metrics.(Counter.total (Counter.v "engine.bits_broadcast"));
  Printf.printf "gc major words %.0f, peak rss %d MiB\n%!" gc.Gc.major_words
    (Bcclb_obs.peak_rss_bytes () / (1024 * 1024));
  Bcclb_obs.Trace.stop ();
  (match write_baseline with
  | Some path ->
    Bcclb_harness.Sink.write_bench ~path (headroom_rows (List.rev !rows));
    Printf.printf "wrote baseline %s (timings x3, speedups /2 headroom)\n%!" path
  | None -> ());
  let compare_rc =
    match baseline with
    | Some baseline_path -> compare_files ~tolerance ~baseline_path ~current_path:!out
    | None -> 0
  in
  if !failures > 0 then begin
    Printf.printf "%d parity/target failure(s)\n%!" !failures;
    exit 1
  end;
  if compare_rc <> 0 then exit compare_rc
