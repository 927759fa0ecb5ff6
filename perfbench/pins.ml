(* The engine.* counters pinned per workload in golden/engine-counters.txt
   as exact values: any change means the executed work changed. A pin's
   scope is one seed ("@0") or every seed ("@*"). *)

let counters = [ "engine.runs"; "engine.rounds"; "engine.emissions"; "engine.bits_broadcast" ]

let check ~workload ~seed delta =
  let pins = Golden.read_table "engine-counters.txt" in
  List.iter
    (fun name ->
      let v = Layers.counter delta name in
      List.iter
        (fun scope ->
          match List.assoc_opt (Printf.sprintf "%s@%s.%s" workload scope name) pins with
          | Some pinned ->
            Tally.check (pinned = string_of_int v) "%s: %s = %d, pinned %s (@%s)" workload name v pinned
              scope
          | None -> ())
        [ "*"; string_of_int seed ])
    counters
