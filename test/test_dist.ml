(* The dist subsystem. Three layers of coverage:

   - Wire: frame round-trips (property-tested across payload sizes,
     including empty and >64 KiB), and rejection of truncation, bit
     flips, version skew and stray magic — the codec is the safety
     boundary in front of Marshal.
   - Faults: spec parsing and the attempt-0-only contract.
   - End to end: real coordinator, real worker processes (this very
     test binary, re-exec'd — see [worker_main] and the hook at the top
     of test_main.ml), over a real Unix-domain socket. The recovery
     cases inject crashes and stalls mid-sweep and assert the sweep
     still completes with a report byte-identical to the in-process
     Domains backend. *)

module Dist = Bcclb_dist
module Wire = Bcclb_dist.Wire
module Addr = Bcclb_dist.Addr
module Faults = Bcclb_dist.Faults
module Msg = Bcclb_dist.Msg
module H = Bcclb_harness
module Obs = Bcclb_obs
module Experiment = H.Experiment
module Params = H.Params

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Current value of a registry counter (0 when unregistered); the e2e
   tests assert on before/after differences because the registry is
   cumulative across the whole test binary. *)
let counter_value name =
  List.fold_left
    (fun acc (n, v) ->
      match v with Obs.Metrics.Counter c when String.equal n name -> c | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* ---- the toy experiment served by re-exec'd workers ----

   Pure and self-contained: the worker process resolves the same value
   from its own copy of this module, so coordinator and workers agree
   by construction. *)

let toy_grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let toy =
  {
    Experiment.id = "dist-toy";
    title = "Dist toy: cubes";
    doc = "test fixture";
    version = 1;
    tables =
      [ { Experiment.name = ""; columns = [ Experiment.icol "n"; Experiment.icol "cube" ] } ];
    notes = [];
    default_grid = toy_grid;
    grid_of_ns = None;
    n_range = None;
    cell =
      (fun p ->
        let n = Params.int p "n" in
        if n = 0 then failwith "cell zero always fails";
        [ Experiment.row [ ("n", Params.Int n); ("cube", Params.Int (n * n * n)) ] ]);
  }

let resolve id = if String.equal id toy.Experiment.id then Some toy else None

(* What the re-exec'd test binary runs instead of alcotest (test_main
   checks the env var before anything else). *)
let worker_env = "BCCLB_DIST_TEST_WORKER"
let listen_env = "BCCLB_DIST_TEST_LISTEN"

let worker_main address = Dist.Worker.main ~resolve ~address ()
let worker_main_listen address = Dist.Worker.main_listen ~resolve ~address ()

let spawn_env extra_env =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        (Array.append (Unix.environment ()) extra_env)
        devnull Unix.stderr Unix.stderr)

let spawn ~address = spawn_env [| worker_env ^ "=" ^ address |]

(* A worker whose fingerprint cannot match the coordinator's: the env
   override goes into the child's environment only, so the coordinator
   keeps its own executable digest. *)
let spawn_skewed ~address =
  spawn_env [| worker_env ^ "=" ^ address; Msg.fingerprint_env ^ "=deadbeef" |]

(* A pre-started listen-mode worker (the --workers roster fixture). *)
let spawn_listen address = spawn_env [| listen_env ^ "=" ^ address |]

(* ---- scratch dirs (as in test_harness) ---- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bcclb_dist_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- wire: deterministic rejection cases ---- *)

let check_decode what expected s =
  let got =
    match Wire.decode s with
    | Ok _ -> "ok"
    | Error e -> Wire.error_to_string e
  in
  Alcotest.(check string) what (Wire.error_to_string expected) got

let test_wire_rejections () =
  let frame = Wire.encode "hello, broadcast congested clique" in
  (match Wire.decode frame with
  | Ok p -> Alcotest.(check string) "round-trip" "hello, broadcast congested clique" p
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  (* Truncation at every boundary class: inside the header, inside the
     payload, and the empty string. *)
  check_decode "empty string" Wire.Truncated "";
  check_decode "cut header" Wire.Truncated (String.sub frame 0 (Wire.header_size - 1));
  check_decode "cut payload" Wire.Truncated (String.sub frame 0 (String.length frame - 1));
  check_decode "trailing bytes" (Wire.Trailing 3) (frame ^ "xyz");
  (* One flipped payload bit must flunk the CRC. *)
  let flipped = Bytes.of_string frame in
  Bytes.set flipped (Wire.header_size + 2)
    (Char.chr (Char.code (Bytes.get flipped (Wire.header_size + 2)) lxor 0x10));
  check_decode "flipped payload bit" Wire.Bad_crc (Bytes.to_string flipped);
  (* A flipped CRC byte too. *)
  let badsum = Bytes.of_string frame in
  Bytes.set badsum 9 (Char.chr (Char.code (Bytes.get badsum 9) lxor 0xff));
  check_decode "flipped checksum byte" Wire.Bad_crc (Bytes.to_string badsum);
  (* Version skew is refused outright. *)
  let skewed = Bytes.of_string frame in
  Bytes.set skewed 4 (Char.chr (Wire.version + 1));
  check_decode "version mismatch" (Wire.Bad_version (Wire.version + 1)) (Bytes.to_string skewed);
  (* Wrong magic. *)
  let magicless = Bytes.of_string frame in
  Bytes.set magicless 0 'X';
  check_decode "bad magic" Wire.Bad_magic (Bytes.to_string magicless);
  (* Known CRC-32 vector, so the polynomial cannot silently change. *)
  Alcotest.(check int) "crc32 of \"123456789\"" 0xCBF43926 (Wire.crc32 "123456789")

let test_wire_reader_split_feeds () =
  (* Frames fed one byte at a time through the incremental reader come
     out intact and in order — the coordinator's actual read path. *)
  let payloads = [ ""; "a"; String.make 70000 'q'; "end" ] in
  let stream = String.concat "" (List.map Wire.encode payloads) in
  let r = Wire.Reader.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Wire.Reader.feed r (Bytes.make 1 ch) ~pos:0 ~len:1;
      let rec drain () =
        match Wire.Reader.next r with
        | Ok (Some p) ->
          out := p :: !out;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.fail (Wire.error_to_string e)
      in
      drain ())
    stream;
  Alcotest.(check (list int)) "all frames, in order, intact"
    (List.map String.length payloads)
    (List.rev_map String.length !out);
  Alcotest.(check bool) "contents match" true (List.rev !out = payloads);
  (* A poisoned stream stays poisoned. *)
  let r = Wire.Reader.create () in
  Wire.Reader.feed r (Bytes.of_string "NOPE-not-a-frame!!") ~pos:0 ~len:18;
  (match Wire.Reader.next r with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "garbage accepted");
  match Wire.Reader.next r with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "error was not sticky"

let test_msg_direction_tags () =
  let p = Msg.to_worker_payload Msg.Shutdown in
  (match Msg.of_payload_to_worker p with
  | Ok Msg.Shutdown -> ()
  | _ -> Alcotest.fail "to_worker round-trip");
  (match Msg.of_payload_from_worker p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "coordinator payload accepted as worker payload");
  match Msg.of_payload_from_worker (Msg.from_worker_payload Msg.Heartbeat) with
  | Ok Msg.Heartbeat -> ()
  | _ -> Alcotest.fail "from_worker round-trip"

(* Trace plumbing over the wire: the context embedded in a Lease and the
   span shipment riding a Lease_done both survive frame + Marshal
   round-trips bit-for-bit. *)
let test_trace_context_wire_roundtrip () =
  let module Trace = Bcclb_obs.Trace in
  let ctx = { Trace.trace_id = "0123abcd"; parent_span = (42 lsl 32) lor 7 } in
  let lease =
    Msg.Lease
      {
        cells =
          [| { Msg.cell = 3; attempt = 1; params = Bcclb_harness.Params.v [ ("n", Bcclb_harness.Params.Int 9) ] } |];
        trace = Some ctx;
      }
  in
  let framed =
    match Wire.decode (Wire.encode (Msg.to_worker_payload lease)) with
    | Ok p -> p
    | Error e -> Alcotest.failf "lease frame: %s" (Wire.error_to_string e)
  in
  (match Msg.of_payload_to_worker framed with
  | Ok (Msg.Lease { trace = Some got; cells }) ->
    Alcotest.(check string) "lease trace id survives" ctx.Trace.trace_id got.Trace.trace_id;
    Alcotest.(check int) "lease parent span survives" ctx.Trace.parent_span
      got.Trace.parent_span;
    Alcotest.(check int) "lease cells intact" 1 (Array.length cells)
  | Ok _ -> Alcotest.fail "lease decoded to something else"
  | Error e -> Alcotest.failf "lease round-trip: %s" e);
  let ev =
    {
      Trace.name = "dist.cell";
      attrs = [ ("cell", "3") ];
      pid = 4242;
      tid = 1;
      id = 99;
      parent = ctx.Trace.parent_span;
      start_ns = 123_456_789;
      dur_ns = 1000;
      depth = 0;
    }
  in
  match Msg.of_payload_from_worker (Msg.from_worker_payload (Msg.Lease_done { metrics = []; spans = [ ev ] })) with
  | Ok (Msg.Lease_done { spans = [ got ]; _ }) ->
    Alcotest.(check bool) "shipped span survives verbatim" true (got = ev)
  | Ok _ -> Alcotest.fail "lease_done decoded to something else"
  | Error e -> Alcotest.failf "lease_done round-trip: %s" e

(* The OpenMetrics endpoint, scraped over a real socket: a live counter
   is visible, the body passes the strict Expo lint, and the endpoint
   counts its own scrapes. *)
let test_metrics_endpoint () =
  let module Expose = Bcclb_dist.Expose in
  let module Expo = Bcclb_obs.Expo in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "metrics.sock" in
  match Expose.start ~address:(Addr.Unix_socket path) () with
  | Error e -> Alcotest.fail e
  | Ok ep ->
    Fun.protect ~finally:(fun () -> Expose.stop ep) @@ fun () ->
    let counter = Obs.Metrics.Counter.v "test.expose.pings" in
    Obs.Metrics.Counter.add counter 3;
    let body =
      match Expose.scrape (Expose.address ep) with
      | Ok b -> b
      | Error e -> Alcotest.fail e
    in
    let samples =
      match Expo.parse body with
      | Ok s -> s
      | Error e -> Alcotest.failf "scrape does not lint: %s" e
    in
    (match
       List.find_opt (fun s -> s.Expo.name = "bcclb_test_expose_pings_total") samples
     with
    | Some s -> Alcotest.(check (float 0.0)) "live counter visible" 3.0 s.Expo.value
    | None -> Alcotest.fail "test counter missing from scrape");
    (* A second scrape sees the first one counted. *)
    (match Expose.scrape (Expose.address ep) with
    | Error e -> Alcotest.fail e
    | Ok body2 -> (
      match
        Result.map
          (List.find_opt (fun s -> s.Expo.name = "bcclb_obs_scrapes_total"))
          (Expo.parse body2)
      with
      | Ok (Some s) ->
        Alcotest.(check bool) "scrape counter advanced" true (s.Expo.value >= 1.0)
      | _ -> Alcotest.fail "obs.scrapes missing from scrape"));
    Expose.stop ep;
    Alcotest.(check bool) "endpoint socket unlinked after stop" false (Sys.file_exists path)

let test_faults_spec () =
  let f = Result.get_ok (Faults.parse "crash:2, stall:5") in
  Alcotest.(check bool) "crash at 2" true (Faults.action f ~cell:2 ~attempt:0 = Some Faults.Crash);
  Alcotest.(check bool) "stall at 5" true (Faults.action f ~cell:5 ~attempt:0 = Some Faults.Stall);
  Alcotest.(check bool) "no fault elsewhere" true (Faults.action f ~cell:3 ~attempt:0 = None);
  Alcotest.(check bool) "one-shot: attempt 1 is clean" true
    (Faults.action f ~cell:2 ~attempt:1 = None);
  Alcotest.(check bool) "empty spec" true (Faults.is_empty (Result.get_ok (Faults.parse "  ")));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed spec " ^ bad))
    [ "crash"; "crash:"; "crash:x"; "explode:3"; "crash:-1"; "crash:1:2" ]

(* ---- end to end ---- *)

let install ?cell_timeout ?heartbeat_timeout () =
  Dist.Backend.install ?cell_timeout ?heartbeat_timeout ~spawn ()

let set_faults spec = Unix.putenv Faults.env_var spec

let render_run ?backend ?cache ?num_domains exp =
  let buf = Buffer.create 256 in
  let report = H.Runner.run ?backend ?cache ?num_domains ~sink:(H.Sink.to_buffer buf) exp in
  (Buffer.contents buf, report)

let with_faults spec f =
  set_faults spec;
  Fun.protect ~finally:(fun () -> set_faults "") f

let domains_reference () =
  let out, _ = render_run ~num_domains:2 toy in
  out

let test_procs_matches_domains () =
  install ();
  with_faults "" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out_cold, cold = render_run ~backend:(`Procs 3) ~cache toy in
  Alcotest.(check string) "procs report byte-identical to domains" (domains_reference ())
    out_cold;
  Alcotest.(check int) "cold run is all misses" 0 cold.H.Sink.hits;
  (* Warm rerun over the same cache: pure hits, same bytes. *)
  let out_warm, warm = render_run ~backend:(`Procs 3) ~cache toy in
  Alcotest.(check string) "warm procs report byte-identical" out_cold out_warm;
  Alcotest.(check int) "warm run is all hits" warm.H.Sink.cells warm.H.Sink.hits;
  (* And the domains backend hits the cache the procs workers wrote:
     the key contract is backend-independent. *)
  let _, cross = render_run ~cache toy in
  Alcotest.(check int) "domains backend hits procs-written entries" cross.H.Sink.cells
    cross.H.Sink.hits

let test_crash_recovery () =
  install ();
  (* Kill the workers that get cells 2 and 5 on first assignment: both
     are requeued and the sweep must complete bit-for-bit. *)
  with_faults "crash:2,crash:5" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out, report = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "crashed sweep still byte-identical" (domains_reference ()) out;
  Alcotest.(check int) "every cell resolved" report.H.Sink.cells
    (report.H.Sink.hits + report.H.Sink.misses)

let test_stall_recovery () =
  (* A stalled cell is caught by the cell deadline, its worker killed,
     the cell reassigned. Tight timeout so the test is quick. *)
  install ~cell_timeout:2.0 ();
  with_faults "stall:1" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out, _ = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "stalled sweep still byte-identical" (domains_reference ()) out

let test_cell_error_names_cell () =
  (* A deterministically raising cell (n = 0 in the toy) aborts the
     sweep with Cell_failed naming the experiment and the cell params —
     same contract, either backend. *)
  install ();
  with_faults "" @@ fun () ->
  let grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 0; 2 ] in
  let check_backend label backend =
    let buf = Buffer.create 256 in
    match H.Runner.run ?backend ~grid ~sink:(H.Sink.to_buffer buf) toy with
    | _ -> Alcotest.fail (label ^ ": failing cell did not propagate")
    | exception H.Runner.Cell_failed { exp_id; params; message } ->
      Alcotest.(check string) (label ^ ": experiment id") "dist-toy" exp_id;
      Alcotest.(check string) (label ^ ": canonical params") "n=i:0" params;
      Alcotest.(check bool) (label ^ ": original message kept") true
        (contains message "cell zero always fails")
  in
  check_backend "domains" None;
  check_backend "procs" (Some (`Procs 2))

(* ---- addresses and rosters ---- *)

let test_addr_forms () =
  (match Addr.of_string "tcp:[::1]:7501" with
  | Ok (Addr.Tcp ("::1", 7501)) -> ()
  | Ok a -> Alcotest.fail ("bracketed v6 mis-parsed as " ^ Addr.to_string a)
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "v6 prints bracketed" "tcp:[::1]:7501"
    (Addr.to_string (Addr.Tcp ("::1", 7501)));
  Alcotest.(check string) "v4 prints bare" "tcp:127.0.0.1:80"
    (Addr.to_string (Addr.Tcp ("127.0.0.1", 80)));
  (* An unbracketed multi-colon host is refused, and the error teaches
     the bracket syntax instead of silently mis-splitting at the last
     colon. *)
  (match Addr.of_string "tcp:fe80::7501" with
  | Error e -> Alcotest.(check bool) "error names brackets" true (contains e "bracket")
  | Ok a -> Alcotest.fail ("multi-colon host accepted as " ^ Addr.to_string a));
  List.iter
    (fun bad ->
      match Addr.of_string bad with
      | Error _ -> ()
      | Ok a -> Alcotest.fail (Printf.sprintf "accepted %S as %s" bad (Addr.to_string a)))
    [ "tcp:[::1]7501"; "tcp:[::1]:"; "tcp:[]:75"; "tcp:h:0"; "tcp:h:99999"; "unix:"; "x:y" ];
  (* Rosters: blanks are skipped, the empty roster is an error. *)
  (match Addr.roster_of_string " tcp:a:1, ,unix:/b.sock ," with
  | Ok [ Addr.Tcp ("a", 1); Addr.Unix_socket "/b.sock" ] -> ()
  | Ok _ -> Alcotest.fail "roster mis-parsed"
  | Error e -> Alcotest.fail e);
  match Addr.roster_of_string " , ," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty roster accepted"

let test_handshake_check () =
  (match Msg.hello () with
  | Msg.Hello { fingerprint; cache_epoch; _ } ->
    Alcotest.(check (option string)) "own hello is accepted" None
      (Msg.handshake_error ~fingerprint ~cache_epoch);
    (match Msg.handshake_error ~fingerprint:"deadbeef" ~cache_epoch with
    | Some reason ->
      Alcotest.(check bool) "names the fingerprints" true (contains reason "fingerprint")
    | None -> Alcotest.fail "skewed fingerprint accepted");
    (match Msg.handshake_error ~fingerprint ~cache_epoch:(cache_epoch + 1) with
    | Some reason ->
      Alcotest.(check bool) "names the cache epoch" true (contains reason "epoch")
    | None -> Alcotest.fail "skewed cache epoch accepted")
  | _ -> Alcotest.fail "hello () is not a Hello")

(* ---- end-to-end: handshake, stealing, streaming deltas, rosters ---- *)

let test_skewed_worker_rejected () =
  (* A worker whose binary fingerprint differs is rejected at join time;
     for a self-spawned roster that is a fail-fast (respawning the same
     binary cannot help). *)
  Dist.Backend.install ~spawn:spawn_skewed ();
  with_faults "" @@ fun () ->
  let rejects_before = counter_value "dist.handshake_rejects" in
  (match render_run ~backend:(`Procs 2) toy with
  | _ -> Alcotest.fail "skewed worker joined the sweep"
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the fingerprint skew" true
      (contains msg "fingerprint mismatch"));
  Alcotest.(check bool) "reject counted in dist.handshake_rejects" true
    (counter_value "dist.handshake_rejects" > rejects_before)

let test_steal_under_stall () =
  (* Two workers, fair-share leases of 4 cells each; the worker that
     drew cell 1 stalls on it. The idle worker must steal the stalled
     lease's tail (observable in dist.steals) — only the in-flight head
     waits for the cell deadline — and the report must not change by a
     byte. *)
  install ~cell_timeout:2.0 ();
  with_faults "stall:1" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let steals_before = counter_value "dist.steals" in
  let stolen_before = counter_value "dist.stolen_cells" in
  let out, _ = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "stalled sweep still byte-identical" (domains_reference ()) out;
  Alcotest.(check bool) "a steal happened" true (counter_value "dist.steals" > steals_before);
  Alcotest.(check bool) "stolen cells counted" true
    (counter_value "dist.stolen_cells" > stolen_before)

let test_metric_deltas_stream_before_bye () =
  (* Each drained lease ships a metrics delta (Lease_done), absorbed
     live — before any Bye. With 8 cells across 2 workers every cell's
     dist.worker.cells increment must arrive, and at least two
     Lease_done deltas must have been absorbed mid-run. *)
  install ();
  with_faults "" @@ fun () ->
  let deltas_before = counter_value "dist.metric_deltas_absorbed" in
  let byes_before = counter_value "dist.metric_snapshots_absorbed" in
  let cells_before = counter_value "dist.worker.cells" in
  let out, _ = render_run ~backend:(`Procs 2) toy in
  Alcotest.(check string) "report byte-identical" (domains_reference ()) out;
  Alcotest.(check bool) "deltas arrived before Bye" true
    (counter_value "dist.metric_deltas_absorbed" - deltas_before >= 2);
  Alcotest.(check bool) "workers said goodbye" true
    (counter_value "dist.metric_snapshots_absorbed" - byes_before >= 1);
  Alcotest.(check int) "every worker cell accounted across delta shipments" 8
    (counter_value "dist.worker.cells" - cells_before)

let test_roster_of_listen_workers () =
  (* The pre-started roster path end to end: two listen-mode workers on
     unix sockets, dialed via `Roster — cold run byte-identical, warm
     run over the same still-alive workers all hits, and SIGTERM drains
     them and unlinks their endpoints. *)
  install ();
  with_faults "" @@ fun () ->
  with_dir @@ fun dir ->
  let socks = [ Filename.concat dir "w1.sock"; Filename.concat dir "w2.sock" ] in
  let entries = List.map (fun p -> "unix:" ^ p) socks in
  let pids = List.map spawn_listen entries in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
      List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids)
  @@ fun () ->
  let cache = H.Cache.create ~root:(Filename.concat dir "cache") in
  let joins_before = counter_value "dist.remote_workers_joined" in
  let out_cold, cold = render_run ~backend:(`Roster entries) ~cache toy in
  Alcotest.(check string) "roster report byte-identical to domains" (domains_reference ())
    out_cold;
  Alcotest.(check int) "cold run is all misses" 0 cold.H.Sink.hits;
  Alcotest.(check int) "both roster workers joined" 2
    (counter_value "dist.remote_workers_joined" - joins_before);
  (* Same worker processes serve a second sweep (one session each per
     sweep): the roster is reusable, and the warm run is pure hits. *)
  let out_warm, warm = render_run ~backend:(`Roster entries) ~cache toy in
  Alcotest.(check string) "warm roster report byte-identical" out_cold out_warm;
  Alcotest.(check int) "warm run is all hits" warm.H.Sink.cells warm.H.Sink.hits;
  (* Drain-and-unlink: SIGTERM each worker, wait, and the socket files
     must be gone. *)
  List.iter (fun pid -> Unix.kill pid Sys.sigterm) pids;
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  List.iter
    (fun p -> Alcotest.(check bool) ("endpoint unlinked: " ^ p) false (Sys.file_exists p))
    socks

let suites =
  [ Alcotest.test_case "wire rejects truncation, corruption, version skew" `Quick
      test_wire_rejections;
    Alcotest.test_case "wire reader reassembles split frames" `Quick
      test_wire_reader_split_feeds;
    Alcotest.test_case "msg payloads carry direction tags" `Quick test_msg_direction_tags;
    Alcotest.test_case "trace contexts and span shipments survive the wire" `Quick
      test_trace_context_wire_roundtrip;
    Alcotest.test_case "metrics endpoint scrapes and lints" `Quick test_metrics_endpoint;
    Alcotest.test_case "fault specs parse and are one-shot" `Quick test_faults_spec;
    Alcotest.test_case "addresses: IPv6 brackets, bad forms, rosters" `Quick test_addr_forms;
    Alcotest.test_case "handshake accepts self, names skews" `Quick test_handshake_check;
    Alcotest.test_case "procs backend byte-identical + shared cache" `Slow
      test_procs_matches_domains;
    Alcotest.test_case "crashed workers are replaced, cells reassigned" `Slow
      test_crash_recovery;
    Alcotest.test_case "stalled cells hit the deadline and reassign" `Slow
      test_stall_recovery;
    Alcotest.test_case "a raising cell names itself in Cell_failed" `Slow
      test_cell_error_names_cell;
    Alcotest.test_case "a fingerprint-skewed worker is rejected at join" `Slow
      test_skewed_worker_rejected;
    Alcotest.test_case "an idle worker steals a stalled lease's tail" `Slow
      test_steal_under_stall;
    Alcotest.test_case "metric deltas stream home before Bye" `Slow
      test_metric_deltas_stream_before_bye;
    Alcotest.test_case "pre-started roster: two sweeps, then drain-and-unlink" `Slow
      test_roster_of_listen_workers ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"wire frames round-trip any payload (incl. empty and >64KiB)" ~count:60
      Gen.(
        oneof
          [ string_size (0 -- 64);
            string_size (return 0);
            string_size (65_536 -- 70_000) ])
      (fun payload ->
        match Wire.decode (Wire.encode payload) with
        | Ok p -> String.equal p payload
        | Error _ -> false);
    Test.make ~name:"truncating any frame prefix never decodes" ~count:100
      Gen.(pair (string_size (0 -- 300)) (0 -- 1_000))
      (fun (payload, k) ->
        let frame = Wire.encode payload in
        let cut = k mod String.length frame in
        match Wire.decode (String.sub frame 0 cut) with
        | Error Wire.Truncated -> true
        | Error _ -> false (* a strict prefix must read as truncation, nothing else *)
        | Ok _ -> false);
    (* Roster strings round-trip: any mix of unix paths, v4/hostname and
       bracketed-v6 TCP endpoints survives to_string/of_string both as
       single addresses and as comma-joined rosters. (Paths are drawn
       comma- and colon-free — the separators the roster syntax owns.) *)
    (let addr_gen =
       let open Gen in
       let word = string_size ~gen:(char_range 'a' 'z') (1 -- 12) in
       oneof
         [ map (fun w -> Addr.Unix_socket ("/tmp/" ^ w ^ ".sock")) word;
           map2
             (fun h p -> Addr.Tcp (h, p))
             (oneofl [ "127.0.0.1"; "localhost"; "worker-7.example" ])
             (1 -- 65535);
           map2
             (fun h p -> Addr.Tcp (h, p))
             (oneofl [ "::1"; "fe80::2"; "2001:db8::17" ])
             (1 -- 65535) ]
     in
     Test.make ~name:"rosters round-trip through their printed form" ~count:200
       Gen.(list_size (1 -- 6) addr_gen)
       (fun addrs ->
         Addr.roster_of_string (Addr.roster_to_string addrs) = Ok addrs
         && List.for_all (fun a -> Addr.of_string (Addr.to_string a) = Ok a) addrs)) ]
