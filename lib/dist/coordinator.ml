(* The coordinator event loop. Single-threaded: one select over the
   listener and every worker socket, then four passes per tick —
   population (spawn up to the target while work remains), assignment
   (idle workers get a batched cell lease, or steal the tail of the
   slowest lease when the queue is dry), reaping (waitpid WNOHANG so
   crashed pids are seen even before their socket EOFs), and deadlines
   (leased workers against cell_timeout since their last progress, idle
   ones against heartbeat_timeout). All
   worker fds are nonblocking and read through Transport.Conn.pump;
   frames the reader rejects poison the connection and the worker is
   treated as crashed.

   Recovery invariant: a cell is *held* by at most one live worker at a
   time — grants come off the pending queue, steals move cells from one
   lease to another with a Revoke to the victim, and a dead worker's
   lease is requeued only after the worker is destroyed. The only
   duplicate computations possible are steal races (the victim had
   already started a revoked cell); those are settled by
   [is_resolved], and cells are deterministic, so duplicates cannot
   change a byte of the report. *)

module H = Bcclb_harness
module Obs = Bcclb_obs
module Conn = Transport.Conn

let workers_spawned = Obs.Metrics.Counter.v "dist.workers_spawned"
let worker_deaths = Obs.Metrics.Counter.v "dist.worker_deaths"
let leases_metric = Obs.Metrics.Counter.v "dist.leases"
let leased_cells_metric = Obs.Metrics.Counter.v "dist.leased_cells"
let steals_metric = Obs.Metrics.Counter.v "dist.steals"
let stolen_cells_metric = Obs.Metrics.Counter.v "dist.stolen_cells"
let requeues = Obs.Metrics.Counter.v "dist.requeues"
let frames_in = Obs.Metrics.Counter.v "dist.frames_in"
let bytes_in = Obs.Metrics.Counter.v "dist.bytes_in"
let heartbeats_metric = Obs.Metrics.Counter.v "dist.heartbeats"
let deltas_metric = Obs.Metrics.Counter.v "dist.metric_deltas_absorbed"
let snapshots_metric = Obs.Metrics.Counter.v "dist.metric_snapshots_absorbed"
let rejects_metric = Obs.Metrics.Counter.v "dist.handshake_rejects"
let spans_ingested = Obs.Metrics.Counter.v "dist.spans_ingested"

type config = {
  workers : int;
  heartbeat_timeout : float;
  cell_timeout : float;
  spawn : address:string -> int;
}

(* Told to workers in Init. *)
let heartbeat_interval = 0.25

(* Worker deaths tolerated per cell. *)
let max_retries = 2

(* Adaptive lease sizing aims at this much work per lease. *)
let lease_target_seconds = 1.0

let config ?(heartbeat_timeout = 30.0) ?(cell_timeout = 600.0) ~spawn ~workers () =
  if workers < 1 then invalid_arg "Coordinator.config: workers must be >= 1";
  { workers; heartbeat_timeout; cell_timeout; spawn }

type wstate =
  | Greeting  (** Connected, no accepted [Hello] yet. *)
  | Ready  (** Joined; may hold a lease (lease <> []) or be idle. *)
  | Saying_bye of float  (** [Shutdown] sent at this time. *)

type conn = {
  tc : Conn.t;
  mutable pid : int;  (* -1 until Hello *)
  mutable state : wstate;
  mutable lease : int list;  (* outstanding cells, current first *)
  mutable progress_at : float;  (* lease grant or last Result *)
}

let now = Transport.now

let rec split_at k xs =
  if k <= 0 then ([], xs)
  else match xs with [] -> ([], []) | x :: tl -> let a, b = split_at (k - 1) tl in (x :: a, b)

let run c ~cache ~exp ~cells =
  let n = Array.length cells in
  if n = 0 then [||]
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Obs.span "dist.sweep"
      ~attrs:
        [
          ("experiment", exp.H.Experiment.id);
          ("cells", string_of_int n);
          ("workers", string_of_int c.workers);
        ]
    @@ fun () ->
    let listener = Transport.listen_local () in
    let lfd = Transport.listener_fd listener in
    Unix.set_nonblock lfd;
    let address = Transport.listener_path listener in
    let results : (H.Runner.cell_outcome * float) option array = Array.make n None in
    let failures : string option array = Array.make n None in
    let grants = Array.make n 0 in  (* lease grants, incl. steals: the wire's [attempt] *)
    let losses = Array.make n 0 in  (* worker deaths while holding the cell: the retry cap *)
    let resolved = ref 0 in
    let pending = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i pending) cells;
    let conns : conn list ref = ref [] in
    let live_pids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let helloed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let unconnected = ref 0 in
    let spawned = ref 0 in
    let spawn_cap = c.workers + ((max_retries + 1) * n) in
    let shutdown_at = ref None in
    (* EWMA of observed per-cell seconds, for adaptive lease sizes. *)
    let avg_cell = ref None in
    let observe_seconds s =
      avg_cell := Some (match !avg_cell with None -> s | Some a -> (0.7 *. a) +. (0.3 *. s))
    in

    let is_resolved i = results.(i) <> None || failures.(i) <> None in
    let resolve_result i r =
      if not (is_resolved i) then begin
        results.(i) <- Some r;
        incr resolved
      end
    in
    let resolve_failure i msg =
      if not (is_resolved i) then begin
        failures.(i) <- Some msg;
        incr resolved
      end
    in
    let fail fmt = Printf.ksprintf (fun s -> failwith ("dist: " ^ s)) fmt in

    let spawn_one () =
      if !spawned >= spawn_cap then
        fail "spawn budget exhausted after %d workers (is the worker binary broken?)" !spawned;
      incr spawned;
      let pid = c.spawn ~address in
      Hashtbl.replace live_pids pid ();
      incr unconnected;
      Obs.Metrics.Counter.incr workers_spawned
    in

    let requeue i =
      Obs.Metrics.Counter.incr requeues;
      losses.(i) <- losses.(i) + 1;
      if losses.(i) > max_retries then
        fail "cell %d (%s) of %s lost its worker %d times; giving up" i
          (H.Params.canonical cells.(i))
          exp.H.Experiment.id losses.(i);
      Queue.push i pending
    in

    (* Graceful end of a connection (after Bye): no kill, no requeue —
       the pid is reaped by the WNOHANG pass once it exits. *)
    let retire conn = Conn.close conn.tc in
    (* Crash/timeout path: close, kill the process, and requeue the
       outstanding lease. *)
    let destroy ?(kill = true) conn =
      if not (Conn.is_closed conn.tc) then begin
        Conn.close conn.tc;
        if kill && conn.pid > 0 then (
          try Unix.kill conn.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Obs.Metrics.Counter.incr worker_deaths;
        let lease = conn.lease in
        conn.lease <- [];
        List.iter (fun i -> if not (is_resolved i) then requeue i) lease
      end
    in

    let send conn m =
      try Conn.send conn.tc (Msg.to_worker_payload m) with Unix.Unix_error _ -> destroy conn
    in

    let live_ready () =
      List.length
        (List.filter (fun k -> (not (Conn.is_closed k.tc)) && k.state = Ready) !conns)
    in

    (* Lease sizing: carve the remaining grid fairly across the workers
       while latency is unknown, then shrink to ~lease_target_seconds
       of work per batch once cell times are observed. Shrinking fair
       shares as the grid drains is what makes the active set contract
       near the end — late leases are small, and idle workers steal the
       stragglers' tails. *)
    let lease_size () =
      let live = max c.workers (max 1 (live_ready ())) in
      let remaining = max 1 (n - !resolved) in
      let fair = max 1 ((remaining + live - 1) / live) in
      match !avg_cell with
      | None -> fair
      | Some a ->
        let by_latency =
          int_of_float (Float.ceil (lease_target_seconds /. Float.max a 1e-6))
        in
        max 1 (min fair by_latency)
    in

    let next_pending () =
      let rec go () =
        if Queue.is_empty pending then None
        else
          let i = Queue.pop pending in
          if is_resolved i then go () else Some i
      in
      go ()
    in
    let take_pending k =
      let rec go acc k =
        if k = 0 then List.rev acc
        else match next_pending () with None -> List.rev acc | Some i -> go (i :: acc) (k - 1)
      in
      go [] k
    in

    let grant conn idxs =
      if idxs <> [] then begin
        let cells_arr =
          Array.of_list
            (List.map
               (fun i ->
                 let attempt = grants.(i) in
                 grants.(i) <- attempt + 1;
                 { Msg.cell = i; attempt; params = cells.(i) })
               idxs)
        in
        conn.lease <- conn.lease @ idxs;
        conn.progress_at <- now ();
        Obs.Metrics.Counter.incr leases_metric;
        Obs.Metrics.Counter.add leased_cells_metric (List.length idxs);
        send conn (Msg.Lease { cells = cells_arr; trace = Obs.Trace.context () })
      end
    in

    (* Work stealing: an idle worker facing an empty queue reclaims the
       tail half of the largest outstanding lease (the head is in
       flight at the victim and cannot be recalled). The victim gets a
       Revoke so it drops the cells from its local queue; if it already
       started one, the duplicate result is settled by is_resolved.
       Stolen cells are re-granted at their next attempt number, so
       injected faults (attempt-0-only) never re-fire. *)
    let try_steal thief =
      if !shutdown_at = None then begin
        let victim =
          List.fold_left
            (fun best k ->
              if k != thief && (not (Conn.is_closed k.tc)) && List.length k.lease >= 2 then
                match best with
                | Some b when List.length b.lease >= List.length k.lease -> best
                | _ -> Some k
              else best)
            None !conns
        in
        match victim with
        | None -> ()
        | Some v ->
          let len = List.length v.lease in
          let steal_n = len / 2 in
          let kept, stolen = split_at (len - steal_n) v.lease in
          v.lease <- kept;
          Obs.Metrics.Counter.incr steals_metric;
          Obs.Metrics.Counter.add stolen_cells_metric (List.length stolen);
          send v (Msg.Revoke { cells = stolen });
          if not (Conn.is_closed thief.tc) then grant thief stolen
          else List.iter (fun i -> if not (is_resolved i) then requeue i) stolen
      end
    in

    let handle conn = function
      | Msg.Hello { pid; fingerprint; cache_epoch } -> (
        conn.pid <- pid;
        Hashtbl.replace helloed pid ();
        match Msg.handshake_error ~fingerprint ~cache_epoch with
        | Some reason ->
          Obs.Metrics.Counter.incr rejects_metric;
          send conn (Msg.Reject { reason });
          (* A self-spawned worker can only skew via a broken deploy (or
             the test hook); respawning the same binary cannot help, so
             fail loudly now. *)
          fail "worker %d rejected at handshake: %s" pid reason
        | None ->
          if !shutdown_at <> None then begin
            (* Late joiner of a finished sweep: straight to goodbye. *)
            send conn Msg.Shutdown;
            if not (Conn.is_closed conn.tc) then conn.state <- Saying_bye (now ())
          end
          else begin
            conn.state <- Ready;
            send conn
              (Msg.Init
                 {
                   exp_id = exp.H.Experiment.id;
                   cache_root = Option.map H.Cache.root cache;
                   heartbeat_interval;
                   trace = Obs.Trace.context ();
                 })
          end)
      | Msg.Heartbeat -> Obs.Metrics.Counter.incr heartbeats_metric
      | Msg.Result { cell; outcome; seconds } ->
        resolve_result cell (outcome, seconds);
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ();
        observe_seconds seconds
      | Msg.Cell_error { cell; message } ->
        resolve_failure cell message;
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ()
      | Msg.Lease_done { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr deltas_metric;
        if spans <> [] then begin
          Obs.Trace.ingest ~offset_ns:0 spans;
          Obs.Metrics.Counter.add spans_ingested (List.length spans)
        end
      | Msg.Bye { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr snapshots_metric;
        if spans <> [] then begin
          Obs.Trace.ingest ~offset_ns:0 spans;
          Obs.Metrics.Counter.add spans_ingested (List.length spans)
        end;
        retire conn
      | Msg.Fatal { message } -> fail "worker %d is unserviceable: %s" conn.pid message
    in

    let read_buf = Bytes.create 65536 in
    let pump conn =
      match
        Conn.pump conn.tc ~buf:read_buf
          ~on_bytes:(fun k -> Obs.Metrics.Counter.add bytes_in k)
          ~on_frame:(fun payload ->
            Obs.Metrics.Counter.incr frames_in;
            match Msg.of_payload_from_worker payload with
            | Ok m -> handle conn m
            | Error _ -> destroy conn)
      with
      | `Ok | `Closed -> ()
      | `Eof -> destroy ~kill:false conn
      | `Error _ -> destroy conn
    in

    let accept_new () =
      Transport.accept_all listener ~on_conn:(fun tc ->
          Unix.set_nonblock (Conn.fd tc);
          if !unconnected > 0 then decr unconnected;
          conns := { tc; pid = -1; state = Greeting; lease = []; progress_at = now () } :: !conns)
    in

    let reap () =
      let gone =
        Hashtbl.fold
          (fun pid () acc ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> acc
            | _ -> pid :: acc
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pid :: acc)
          live_pids []
      in
      List.iter
        (fun pid ->
          Hashtbl.remove live_pids pid;
          if Hashtbl.mem helloed pid then (
            (* Its connection EOF handles (or handled) the rest. *)
            match
              List.find_opt (fun k -> k.pid = pid && not (Conn.is_closed k.tc)) !conns
            with
            | Some conn -> destroy ~kill:false conn
            | None -> ())
          else if
            (* Died before it ever connected: give its spawn slot back so
               the population pass replaces it. *)
            !unconnected > 0
          then decr unconnected)
        gone
    in

    let check_deadlines () =
      let t = now () in
      List.iter
        (fun conn ->
          if not (Conn.is_closed conn.tc) then
            if conn.lease <> [] then begin
              (* A leased worker must produce a result every cell_timeout:
                 progress_at resets on each Result, so a k-cell lease gets
                 the same per-cell deadline a k-assignment sequence did. *)
              if t -. conn.progress_at > c.cell_timeout then destroy conn
            end
            else
              match conn.state with
              | Greeting | Ready ->
                if Conn.idle_for ~now:t conn.tc > c.heartbeat_timeout then destroy conn
              | Saying_bye since -> if t -. since > c.heartbeat_timeout then destroy conn)
        !conns
    in

    let ensure_workers () =
      if !shutdown_at = None then begin
        let live =
          List.length (List.filter (fun k -> not (Conn.is_closed k.tc)) !conns) + !unconnected
        in
        for _ = live + 1 to min c.workers (n - !resolved) do
          spawn_one ()
        done
      end
    in

    let assign () =
      List.iter
        (fun conn ->
          if (not (Conn.is_closed conn.tc)) && conn.state = Ready && conn.lease = [] then
            match take_pending (lease_size ()) with
            | [] -> try_steal conn
            | idxs -> grant conn idxs)
        !conns
    in

    let broadcast_shutdown () =
      if !shutdown_at = None then begin
        shutdown_at := Some (now ());
        List.iter
          (fun conn ->
            if not (Conn.is_closed conn.tc) then begin
              send conn Msg.Shutdown;
              if not (Conn.is_closed conn.tc) then conn.state <- Saying_bye (now ())
            end)
          !conns
      end
    in

    let cleanup () =
      List.iter
        (fun conn ->
          Conn.close conn.tc;
          if conn.pid > 0 then try Unix.kill conn.pid Sys.sigkill with Unix.Unix_error _ -> ())
        !conns;
      Hashtbl.iter
        (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        live_pids;
      Hashtbl.iter
        (fun pid () ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live_pids;
      Transport.close_listener listener
    in

    Fun.protect ~finally:cleanup @@ fun () ->
    let finished () = !resolved = n && !conns = [] && Hashtbl.length live_pids = 0 in
    while not (finished ()) do
      ensure_workers ();
      assign ();
      if !resolved = n then broadcast_shutdown ();
      let rds =
        lfd
        :: List.filter_map
            (fun k -> if Conn.is_closed k.tc then None else Some (Conn.fd k.tc))
            !conns
      in
      (match Unix.select rds [] [] 0.05 with
      | ready, _, _ ->
        if List.memq lfd ready then accept_new ();
        List.iter
          (fun k -> if (not (Conn.is_closed k.tc)) && List.memq (Conn.fd k.tc) ready then pump k)
          !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      reap ();
      check_deadlines ();
      conns := List.filter (fun k -> not (Conn.is_closed k.tc)) !conns
    done;
    let first_failure = ref None in
    for i = n - 1 downto 0 do
      match failures.(i) with Some m -> first_failure := Some (i, m) | None -> ()
    done;
    match !first_failure with
    | Some (i, message) ->
      raise
        (H.Runner.Cell_failed
           {
             exp_id = exp.H.Experiment.id;
             params = H.Params.canonical cells.(i);
             message;
           })
    | None -> Array.map (fun r -> Option.get r) results
  end
