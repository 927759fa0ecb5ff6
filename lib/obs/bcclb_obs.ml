(* Facade of the observability layer. Consumers alias it
   ([module Obs = Bcclb_obs]) and write [Obs.span], [Obs.Metrics.Counter.v],
   [Obs.Mclock.now_ns]. *)

module Mclock = Mclock
module Metrics = Metrics
module Trace = Trace

let span = Trace.span

let peak_rss_bytes = Mclock.peak_rss_bytes
