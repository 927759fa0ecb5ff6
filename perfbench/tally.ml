(* What one pass records about its operations: how many ran, the latency
   of the engine executions they made, which failed (raised, drifted from
   a golden, or broke a seed-independent check) and which answered wrong
   without failing (a Monte Carlo miss, or an algorithm run off its
   promise). *)

let ops = ref 0
let failed = ref 0
let wrong = ref 0
let notes : string list ref = ref []

(* (milliseconds per execution, executions): an op that made several
   engine executions contributes its mean, weighted by their number. *)
let samples : (float * int) list ref = ref []

let sample ~seconds ~executions =
  if executions > 0 then samples := (seconds *. 1e3 /. float_of_int executions, executions) :: !samples

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      notes := msg :: !notes)
    fmt

(* A check that is not tied to one op: golden drift of a whole table, a
   pinned counter. It fails the pass without adding to [ops]. *)
let check ok fmt = Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

(* Run one op, timing it; an exception counts as a failed op. Traced, the
   op is a span: the parent of its accumulated layer phases. *)
let op ~traced ~label f =
  incr ops;
  let runs0 = Bcclb_engine.Engine.run_count () in
  let t0 = Layers.now () in
  let body () = try f () with e -> fail "%s raised %s" label (Printexc.to_string e) in
  if traced then Bcclb_obs.Trace.span "op" ~attrs:[ ("op", label) ] body else body ();
  sample ~seconds:(Layers.ns_s (Layers.now () - t0)) ~executions:(Bcclb_engine.Engine.run_count () - runs0)

(* Weighted nearest rank: the smallest latency with at least [q] of all
   executions at or below it. *)
let quantile q =
  let sorted = List.sort compare !samples in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 sorted in
  let target = Float.ceil (q *. float_of_int total) in
  let rec go seen = function
    | [] -> 0.0
    | [ (ms, _) ] -> ms
    | (ms, w) :: rest -> if float_of_int (seen + w) >= target then ms else go (seen + w) rest
  in
  go 0 sorted
