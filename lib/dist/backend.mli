(** Glue: make the [`Procs] {!Bcclb_harness.Runner} backend.

    The harness cannot depend on this library (it sits below it), so the
    implementation is injected: call {!install} once at program start —
    [bin/experiments.ml] does, with a spawn that re-execs itself as
    [experiments worker]; tests install their own spawn that re-execs
    the test binary. A [`Procs w] backend runs a coordinator over [w]
    self-spawned workers. *)

val spawn_argv : (string -> string array) -> address:string -> int
(** Build a {!Coordinator.config.spawn} from an argv function:
    [spawn_argv (fun path -> [| Sys.executable_name; "worker"; "--socket"; path |])].
    The child gets [/dev/null] as stdin and the parent's {e stderr} as
    both stdout and stderr — worker chatter must never leak into the
    coordinator's report stream. *)

val cell_timeout_env : string
(** ["BCCLB_DIST_CELL_TIMEOUT"] — overrides the leased-worker progress
    deadline (seconds); CI's stall smoke shortens it. *)

val heartbeat_timeout_env : string
(** ["BCCLB_DIST_HEARTBEAT_TIMEOUT"] — overrides the idle-worker
    deadline (seconds). *)

val install :
  ?heartbeat_timeout:float ->
  ?cell_timeout:float ->
  spawn:(address:string -> int) ->
  unit ->
  unit
(** Register the coordinator as the {!Bcclb_harness.Runner.procs_runner}.
    Defaults follow {!Coordinator.config}, with the two timeout env
    overrides applied. Calling again replaces the previous installation
    (tests use this to tighten deadlines per case). *)
