(* Per-layer accounting, measured from outside the library: the benchmark
   wraps the public [Algo.t] callbacks, times its own calls into the
   engine, the oracle, the core and the harness, and reads the counters
   the library already keeps. Nothing here is installed on an untraced
   pass, so the end-to-end figures carry none of its cost. *)

module Algo = Bcclb_bcc.Algo
module Simulator = Bcclb_bcc.Simulator
module Obs = Bcclb_obs
module Trace = Bcclb_obs.Trace

let now = Obs.Mclock.now_ns
let ns_s = Obs.Mclock.ns_to_s
let minor () = int_of_float (Gc.minor_words ())

(* ---------- algorithm callbacks ---------- *)

type family = Hashed | Mt | Agm | Adj | Other

let family_name = function
  | Hashed -> "hashed"
  | Mt -> "mt"
  | Agm -> "agm"
  | Adj -> "adj"
  | Other -> "other"

let families = [ Hashed; Mt; Agm; Adj ]

type acc = {
  mutable init_ns : int;
  mutable step_ns : int;
  mutable finish_ns : int;
  mutable step_calls : int;
  mutable init_minor : int;
  mutable step_minor : int;
  mutable finish_minor : int;
}

let fresh () =
  { init_ns = 0; step_ns = 0; finish_ns = 0; step_calls = 0; init_minor = 0; step_minor = 0;
    finish_minor = 0 }

let accs : (family, acc) Hashtbl.t = Hashtbl.create 8

let acc_of fam =
  match Hashtbl.find_opt accs fam with
  | Some a -> a
  | None ->
    let a = fresh () in
    Hashtbl.replace accs fam a;
    a

let total () =
  let t = fresh () in
  Hashtbl.iter
    (fun _ a ->
      t.init_ns <- t.init_ns + a.init_ns;
      t.step_ns <- t.step_ns + a.step_ns;
      t.finish_ns <- t.finish_ns + a.finish_ns;
      t.step_calls <- t.step_calls + a.step_calls;
      t.init_minor <- t.init_minor + a.init_minor;
      t.step_minor <- t.step_minor + a.step_minor;
      t.finish_minor <- t.finish_minor + a.finish_minor)
    accs;
  t

let callback_ns a = a.init_ns + a.step_ns + a.finish_ns
let callback_minor a = a.init_minor + a.step_minor + a.finish_minor

(* Same algorithm, same name (the arena memoises codes by name), with
   each callback timed and its minor allocation counted. *)
let wrap fam (Algo.Packed a) =
  let acc = acc_of fam in
  Algo.Packed
    { a with
      Algo.init =
        (fun view ->
          let w0 = minor () and t0 = now () in
          let s = a.Algo.init view in
          acc.init_ns <- acc.init_ns + (now () - t0);
          acc.init_minor <- acc.init_minor + (minor () - w0);
          s);
      step =
        (fun s ~round ~inbox ->
          let w0 = minor () and t0 = now () in
          let r = a.Algo.step s ~round ~inbox in
          acc.step_ns <- acc.step_ns + (now () - t0);
          acc.step_minor <- acc.step_minor + (minor () - w0);
          acc.step_calls <- acc.step_calls + 1;
          r);
      finish =
        (fun s ~inbox ->
          let w0 = minor () and t0 = now () in
          let o = a.Algo.finish s ~inbox in
          acc.finish_ns <- acc.finish_ns + (now () - t0);
          acc.finish_minor <- acc.finish_minor + (minor () - w0);
          o) }

(* ---------- spans ---------- *)

(* Synthetic child spans carry phases accumulated over one execution
   (one span per phase, not one per callback), laid end to end from the
   parent's start. Their ids use the upper half of the per-process
   sequence space, which the tracer's own counter never reaches. *)
let synthetic_seq = ref 0

let emit_phases ~start_ns phases =
  match Trace.context () with
  | None -> ()
  | Some ctx ->
    let pid = Unix.getpid () in
    let t = ref start_ns in
    let events =
      List.filter_map
        (fun (name, dur_ns) ->
          if dur_ns <= 0 then None
          else begin
            incr synthetic_seq;
            let ev =
              { Trace.name;
                attrs = [ ("accumulated", "true") ];
                pid = 0;
                tid = (Domain.self () :> int);
                id = (pid lsl 32) lor (0x80000000 + !synthetic_seq);
                parent = ctx.Trace.parent_span;
                start_ns = !t;
                dur_ns;
                depth = 2 }
            in
            t := !t + dur_ns;
            Some ev
          end)
        phases
    in
    Trace.ingest ~offset_ns:0 events

(* ---------- engine ---------- *)

let sim_ns = ref 0
let engine_self_ns = ref 0
let engine_self_minor = ref 0

(* [Simulator.run]; traced, its time is split into algorithm callbacks
   and the engine's own share (exchange, observers, transcripts), and the
   split is emitted as accumulated phase spans under the enclosing op. *)
let simulate ~traced ?seed algo inst =
  if not traced then Simulator.run ?seed algo inst
  else begin
    let before = total () in
    let w0 = minor () and t0 = now () in
    let r = Simulator.run ?seed algo inst in
    let dt = now () - t0 and dw = minor () - w0 in
    let after = total () in
    let cb = callback_ns after - callback_ns before in
    sim_ns := !sim_ns + dt;
    engine_self_ns := !engine_self_ns + (dt - cb);
    engine_self_minor := !engine_self_minor + (dw - (callback_minor after - callback_minor before));
    emit_phases ~start_ns:t0
      [ ("algo.init", after.init_ns - before.init_ns);
        ("algo.step", after.step_ns - before.step_ns);
        ("algo.finish", after.finish_ns - before.finish_ns);
        ("engine.self", dt - cb) ];
    r
  end

(* ---------- connectivity oracle ---------- *)

let oracle_ns = ref 0
let oracle_unions = ref 0

let connected ~traced g =
  let go () =
    let t0 = now () in
    let n = Bcclb_graph.Graph.n g in
    let c = Bcclb_graph.Conn.create n in
    Bcclb_graph.Graph.iter_edges
      (fun u v ->
        incr oracle_unions;
        ignore (Bcclb_graph.Conn.union c u v))
      g;
    let yes = Bcclb_graph.Conn.components c = 1 in
    oracle_ns := !oracle_ns + (now () - t0);
    yes
  in
  if traced then Trace.span "conn.oracle" go else go ()

(* ---------- named timers for the core and harness calls ---------- *)

let timers : (string, int) Hashtbl.t = Hashtbl.create 16

let timed ~traced name f =
  let go () =
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () - t0 in
        Hashtbl.replace timers name (dt + Option.value ~default:0 (Hashtbl.find_opt timers name)))
      f
  in
  if traced then Trace.span name go else go ()

let timer_s name = ns_s (Option.value ~default:0 (Hashtbl.find_opt timers name))

(* ---------- library counters ---------- *)

let counter delta name =
  match List.assoc_opt name delta with Some (Obs.Metrics.Counter c) -> c | _ -> 0

let hist_sum delta name =
  match List.assoc_opt name delta with Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.sum | _ -> 0.0
