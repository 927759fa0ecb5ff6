(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every pass runs in a forked child of this process, so each one starts
   from the same pristine state (no arena, memo or cache carried over)
   and its peak RSS is its own. A child sets the workload up from the
   seed, runs the timed phase once, checks every output and ships its
   figures home through a pipe. Passes repeat until [--seconds] is spent
   (at least one); the report takes medians. Reported end-to-end times
   are scaled to the reference machine speed measured around each pass
   (see Reference); the raw seconds go to stderr.

   --trace 0: set-up is also sampled alone a few times; the last stdout
   line is the end-to-end metrics. --trace 1: untraced and traced passes
   alternate; the traced ones wrap the algorithm callbacks, time each
   layer and write a Perfetto trace to perfbench/.work/NAME.trace.json;
   the last stdout line is the per-layer metrics (raw seconds). The exit
   code is 0 only if every op and every golden check passed. *)

module Obs = Bcclb_obs

let workloads = [ ("mc-rand", Mc_rand.setup); ("kt1-wide", Kt1_wide.setup); ("census", Census.setup) ]
let setup_samples = 3
let work_root = Filename.concat "perfbench" ".work"

(* ---------- one pass, in a child ---------- *)

type pass = {
  speed : float;  (** [Reference.nominal_s] over the kernel time around the pass. *)
  setup_s : float;
  wall_s : float;
  minor_mw : float;
  major_mw : float;
  peak_rss_mib : float;
  ops : int;
  failed : int;
  wrong : int;
  p50_ms : float;
  p99_ms : float;
  layers : (string * float) list;
  notes : string list;
}

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let mw words = float_of_int words /. 1e6
let ns_s = Layers.ns_s

let layer_metrics ~wall_ns delta =
  let module L = Layers in
  let acc_metrics prefix (a : L.acc) =
    [ (prefix ^ ".init_s", ns_s a.L.init_ns); (prefix ^ ".step_s", ns_s a.L.step_ns);
      (prefix ^ ".finish_s", ns_s a.L.finish_ns); (prefix ^ ".step_calls", float_of_int a.L.step_calls);
      (prefix ^ ".step_minor_mw", mw a.L.step_minor); (prefix ^ ".finish_minor_mw", mw a.L.finish_minor) ]
  in
  let counter name = float_of_int (L.counter delta name) in
  let hits = counter "arena.memo_hits" and misses = counter "arena.memo_misses" in
  let part p = Option.value ~default:0.0 (List.assoc_opt p !Census.part_s) in
  let accounted =
    !L.sim_ns + !L.oracle_ns
    + List.fold_left
        (fun acc t -> acc + int_of_float (L.timer_s t *. 1e9))
        0
        [ "runner.cold_pass"; "runner.warm_pass"; "core.orbit_create_cold"; "core.orbit_create_warm";
          "core.quotient" ]
  in
  [ ("engine.self_s", ns_s !L.engine_self_ns); ("engine.self_minor_mw", mw !L.engine_self_minor);
    ("engine.runs", counter "engine.runs"); ("engine.rounds", counter "engine.rounds");
    ("engine.emissions", counter "engine.emissions");
    ("engine.bits_broadcast", counter "engine.bits_broadcast") ]
  @ acc_metrics "algo" (L.total ())
  @ List.concat_map (fun f -> acc_metrics ("algo." ^ L.family_name f) (L.acc_of f)) L.families
  @ [ ("conn.oracle_s", ns_s !L.oracle_ns); ("conn.unions", float_of_int !L.oracle_unions);
      ("core.arena_get_s", L.timer_s "core.arena_get");
      ("core.orbit_create_cold_s", L.timer_s "core.orbit_create_cold");
      ("core.orbit_create_warm_s", L.timer_s "core.orbit_create_warm");
      ("core.orbit_spill_bytes", counter "arena.orbit.spill_bytes");
      ("core.quotient_s", L.timer_s "core.quotient"); ("core.quotient_reps", counter "quotient.reps");
      ("core.memo_attempts", hits +. misses);
      ("core.memo_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("cell.kt0-error.error_s", part "error"); ("cell.kt0-error.certified_s", part "certified");
      ("runner.cold_pass_s", L.timer_s "runner.cold_pass");
      ("cache.stores", counter "cache.stores"); ("cache.store_s", L.hist_sum delta "cache.store_seconds");
      ("cache.load_s", L.hist_sum delta "cache.load_seconds");
      ("cache.warm_pass_s", L.timer_s "runner.warm_pass");
      ("cache.warm_hit_ratio", !Census.warm_hit_ratio); ("trace.wall_s", ns_s wall_ns);
      ("trace.remainder_s", ns_s (wall_ns - accounted));
      ("trace.remainder_share", float_of_int (wall_ns - accounted) /. float_of_int wall_ns) ]

let run_pass ~name ~setup ~seed ~dir ~traced ~setup_only =
  mkdir_p dir;
  let t0 = Obs.Mclock.now_ns () in
  let go = setup ~seed ~dir ~traced in
  let setup_s = ns_s (Obs.Mclock.now_ns () - t0) in
  let empty =
    { speed = 0.0; setup_s; wall_s = 0.0; minor_mw = 0.0; major_mw = 0.0; peak_rss_mib = 0.0; ops = 0;
      failed = 0; wrong = 0; p50_ms = 0.0; p99_ms = 0.0; layers = []; notes = [] }
  in
  if setup_only then empty
  else begin
    let trace_file = Filename.concat work_root (Printf.sprintf "%s.trace.json" name) in
    let baseline = Obs.Metrics.snapshot () in
    let minor0, _, major0 = Gc.counters () in
    if traced then Obs.Trace.start ~file:trace_file ();
    let t1 = Obs.Mclock.now_ns () in
    (try if traced then Obs.Trace.span "workload" ~attrs:[ ("workload", name) ] go else go ()
     with e -> Tally.fail "%s raised %s" name (Printexc.to_string e));
    let wall_ns = Obs.Mclock.now_ns () - t1 in
    let minor1, _, major1 = Gc.counters () in
    let delta = Obs.Metrics.delta ~baseline (Obs.Metrics.snapshot ()) in
    if traced then Obs.Trace.stop ();
    Pins.check ~workload:name ~seed delta;
    { empty with
      wall_s = ns_s wall_ns;
      minor_mw = (minor1 -. minor0) /. 1e6;
      major_mw = (major1 -. major0) /. 1e6;
      peak_rss_mib = float_of_int (Obs.Mclock.peak_rss_bytes ()) /. 1048576.0;
      ops = !Tally.ops;
      failed = !Tally.failed;
      wrong = !Tally.wrong;
      p50_ms = Tally.quantile 0.5;
      p99_ms = Tally.quantile 0.99;
      layers = (if traced then layer_metrics ~wall_ns delta else []);
      notes = List.rev !Tally.notes }
  end

(* Fork, run [f] in the child, marshal its result home, reap the child. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc result [];
    close_out oc;
    flush stderr;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result = try input_value ic with End_of_file -> Error "no result" in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (match status with
     | Unix.WEXITED 0 -> result
     | Unix.WEXITED c -> Error (Printf.sprintf "child exited %d" c)
     | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "child killed by signal %d" s))

(* ---------- report ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_s" then "s"
  else if ends "_mw" then "Mw"
  else if ends "_bytes" then "bytes"
  else if ends "_ratio" || ends "_share" then "ratio"
  else "count"

let main ~workload ~seed ~seconds ~trace =
  let setup =
    match List.assoc_opt workload workloads with
    | Some s -> s
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let start = Obs.Mclock.now_ns () in
  let elapsed () = ns_s (Obs.Mclock.now_ns () - start) in
  let counter = ref 0 in
  (* Children alternate with reference measurements; a child's speed is
     the mean of the ones right before and right after it. *)
  let last_reference = ref (Reference.measure ()) in
  let child ~traced ~setup_only =
    incr counter;
    let dir = Filename.concat work_root (Printf.sprintf "%s-%d-%d" workload (Unix.getpid ()) !counter) in
    let r = in_child (fun () -> run_pass ~name:workload ~setup ~seed ~dir ~traced ~setup_only) in
    rm_rf dir;
    let before = !last_reference in
    last_reference := Reference.measure ();
    Result.map (fun p -> { p with speed = Reference.nominal_s *. 2.0 /. (before +. !last_reference) }) r
  in
  let errors = ref [] in
  let ok = function
    | Ok p ->
      List.iter (fun m -> Printf.eprintf "[perfbench] FAIL %s\n%!" m) p.notes;
      Some p
    | Error m ->
      errors := m :: !errors;
      Printf.eprintf "[perfbench] pass died: %s\n%!" m;
      None
  in
  let setups =
    if trace then []
    else List.filter_map (fun _ -> ok (child ~traced:false ~setup_only:true)) (List.init setup_samples Fun.id)
  in
  (* Passes (untraced, or untraced/traced pairs) repeat while another
     one fits in the budget; the first always runs. *)
  let rec loop plain traced =
    let p0 = Obs.Mclock.now_ns () in
    let plain = Option.to_list (ok (child ~traced:false ~setup_only:false)) @ plain in
    let traced =
      if trace then Option.to_list (ok (child ~traced:true ~setup_only:false)) @ traced else traced
    in
    let took = ns_s (Obs.Mclock.now_ns () - p0) in
    if !errors = [] && elapsed () +. took <= seconds then loop plain traced else (plain, traced)
  in
  let plain, traced = loop [] [] in
  let passes = plain @ traced in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes in
  let attempted = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  let correct = !errors = [] && failed = 0 && plain <> [] && (traced <> [] || not trace) in
  let med f ps = median (List.map f ps) in
  (* Times at the reference machine speed (see Reference). *)
  let scaled f p = f p *. p.speed in
  let metrics =
    if not trace then
      [ ("wall_s", "s", med (scaled (fun p -> p.wall_s)) plain);
        ("setup_s", "s", med (scaled (fun p -> p.setup_s)) (setups @ plain));
        ("alloc_minor_mw", "Mw", med (fun p -> p.minor_mw) plain);
        ("alloc_major_mw", "Mw", med (fun p -> p.major_mw) plain);
        ("peak_rss_mib", "MiB", med (fun p -> p.peak_rss_mib) plain);
        ("ops", "count", med (fun p -> float_of_int p.ops) plain);
        ( "ops_ok_share",
          "ratio",
          med (fun p -> float_of_int (p.ops - p.failed - p.wrong) /. float_of_int (max 1 p.ops)) plain );
        ("exec_p50_ms", "ms", med (scaled (fun p -> p.p50_ms)) plain);
        ("exec_p99_ms", "ms", med (scaled (fun p -> p.p99_ms)) plain) ]
    else begin
      let names = match traced with p :: _ -> List.map fst p.layers | [] -> [] in
      List.map
        (fun name -> (name, unit_of name, med (fun p -> List.assoc name p.layers) traced))
        names
      @ [ ( "trace.overhead_ratio",
            "ratio",
            (med (scaled (fun p -> p.wall_s)) traced /. med (scaled (fun p -> p.wall_s)) plain) -. 1.0 );
          ("machine.speed", "ratio", med (fun p -> p.speed) traced);
          ("ops.wrong", "count", med (fun p -> float_of_int p.wrong) traced) ]
    end
  in
  Printf.eprintf "[perfbench] %s seed=%d: %d plain + %d traced passes, %d setup samples, %.1fs\n"
    workload seed (List.length plain) (List.length traced) (List.length setups) (elapsed ());
  List.iter
    (fun p -> Printf.eprintf "  raw pass: wall %.4fs setup %.4fs speed %.4f\n" p.wall_s p.setup_s p.speed)
    passes;
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-32s %14.6f %s\n" name v unit) metrics;
  if correct || passes <> [] then print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME mc-rand | kt1-wide | census");
      ("--seed", Arg.Set_int seed, "N input seed (0 reproduces the experiments' own inputs)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget; at least one pass runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics from traced passes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
