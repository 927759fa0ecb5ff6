(** The worker process entry point.

    A worker is the same build as the coordinator — enforced at join
    time by the fingerprint handshake in [Hello] — spawned by it as the
    hidden [experiments worker --socket PATH] subcommand (or as the test
    binary under an environment flag), and it dials back.

    The worker says [Hello], learns its sweep from [Init], then works
    {!Msg.Lease} batches by running {!Bcclb_harness.Runner.run_cell} —
    cache probe, compute, checkpoint — streaming each {!Msg.Result} back
    as it lands. Control
    frames are drained between cells, so a [Revoke] (work stealing)
    takes effect before the next revoked cell would start. Each drained
    lease ships a {!Bcclb_obs.Metrics.delta} in [Lease_done]; [Bye]
    carries the final delta — never a full snapshot, so the coordinator
    can absorb every shipment without double-counting. While idle it
    heartbeats every [heartbeat_interval]; while computing it is silent
    and the coordinator's progress deadline stands guard.

    Fault injection ({!Faults}, [$BCCLB_DIST_FAULTS]) is honoured here:
    an injected crash exits the process without a farewell, an injected
    stall sleeps in the cell forever — both only on [attempt = 0], and
    a stolen cell is re-leased at [attempt >= 1], so a fault fires at
    most once per cell ever. *)

val main :
  ?resolve:(string -> Bcclb_harness.Experiment.t option) ->
  address:string ->
  unit ->
  unit
(** Dial the coordinator's socket path [address] and serve one sweep.
    Never returns normally: exits 0 on shutdown or coordinator
    disappearance, 3 on a fatal protocol/setup error or handshake
    rejection (after attempting to report), 66 on an injected crash.
    [resolve] defaults to {!Bcclb_harness.Registry.find}; tests pass
    their own registry. *)
