(** The coordinator: batched leases, stealing, deadlines, recovery.

    [run] drives a sweep over local worker processes: the coordinator
    opens a listener on a fresh Unix-domain socket
    ({!Transport.listen_local}), spawns [workers] processes via the
    caller-supplied [spawn] and they dial back. A worker joins by
    [Hello], which carries the binary fingerprint and cache format
    epoch — skewed builds are {!Msg.Reject}ed at join time, before they
    can compute a cell or write a cache entry.

    Scheduling is by {b batched cell leases}: an idle worker receives a
    contiguous batch off the pending queue — sized to a fair share of
    the remaining grid, shrunk toward 1s of work once per-cell latency
    is observed — and streams one [Result] back
    per cell. When the queue drains, an idle worker {b steals}: the
    coordinator revokes the tail half of the largest outstanding lease
    and re-leases it, so one slow or stalled worker cannot strand the
    sweep's last cells.

    The failure model, concretely:
    {ul
    {- {b Crash} (SIGKILL, injected exit, OOM): the worker's socket hits
       EOF (or its pid is reaped). Its outstanding lease is requeued and
       a replacement is spawned.}
    {- {b Stall} (hung cell, livelocked worker): a leased worker must
       produce a result every [cell_timeout] (the clock resets per
       [Result]); silence beyond that is treated as a crash. Stealing
       usually rescues the lease tail earlier — only the in-flight head
       waits for the deadline.}
    {- {b Silence} (wedged before/between leases): an idle worker that
       has not heartbeat within [heartbeat_timeout] is destroyed.}
    {- {b Bounded retries}: a cap of 2 worker {e deaths} per
       cell, not lease grants — stealing re-grants freely. Exceeding it
       (or the spawn budget) aborts the sweep.}
    {- {b Deterministic cell failure} (the cell function raised): not
       retried; the sweep drains and the lowest-index failure is
       re-raised as {!Bcclb_harness.Runner.Cell_failed}.}}

    Byte-identity survives all of it: a cell is held by at most one
    live worker, steal races settle by first resolution, cells are
    deterministic, and results are returned in cell order — so the
    report matches the [`Domains] backend byte for byte regardless of
    worker count, batching, stealing or faults.

    Worker metrics stream home as {!Bcclb_obs.Metrics.delta}s with each
    [Lease_done] (and a final delta in [Bye]), absorbed as they arrive
    — the run manifest's metrics include every worker's counters, and a
    crashed worker loses only the tail since its last completed
    lease. *)

type config = {
  workers : int;  (** Target live worker processes, self-spawned. *)
  heartbeat_timeout : float;  (** Idle-worker silence limit. *)
  cell_timeout : float;  (** Leased-worker limit per {e result}, not per lease. *)
  spawn : address:string -> int;
      (** Start one worker process pointed at the socket path [address];
          return its pid. See {!Backend.spawn_argv}. *)
}

val config :
  ?heartbeat_timeout:float ->
  ?cell_timeout:float ->
  spawn:(address:string -> int) ->
  workers:int ->
  unit ->
  config
(** Defaults: 30s heartbeat deadline, 600s cell deadline. The rest is
    fixed: workers heartbeat every 0.25s, a cell survives 2 worker
    deaths, and adaptive leases aim at 1s of work. *)

val run :
  config ->
  cache:Bcclb_harness.Cache.t option ->
  exp:Bcclb_harness.Experiment.t ->
  cells:Bcclb_harness.Params.t array ->
  (Bcclb_harness.Runner.cell_outcome * float) array
(** The [`Procs] implementation of {!Bcclb_harness.Runner.procs_runner}
    (modulo argument shape); {!Backend.install} adapts it. Raises
    [Failure] on infrastructure exhaustion (retry cap, spawn budget,
    handshake rejection) and {!Bcclb_harness.Runner.Cell_failed} on a
    deterministic cell failure. Always tears down: sockets closed,
    socket file unlinked, every spawned pid killed or reaped before
    returning or raising. *)
