open Bcclb_bcc
open Bcclb_graph

(* Lemma 3.4, checked by execution (E4): if the endpoints of two
   independent input edges broadcast pairwise-equal sequences during t
   rounds, then the genuinely rewired crossed instance (Definition 3.3,
   via Instance.cross) is execution-indistinguishable from the original:
   every vertex has the same initial knowledge and transcript in both.

   The base instance is executed ONCE and every crossed run is compared
   against that memoised result, halving executions relative to the
   original implementation (which re-ran the base per pair). The
   [verify] knob controls how many pairs are re-checked by genuine
   port-rewired execution: [`All] executes every independent pair (the
   legacy-parity mode), [`Sampled k] executes the first k same-label and
   first k different-label pairs per instance (deterministic in
   enumeration order) and counts the remaining same-label pairs as
   indistinguishable by Lemma 3.4, [`Off] executes none. *)

type verify = [ `All | `Sampled of int | `Off ]

module Obs = Bcclb_obs

(* The process-wide series mirror the report: the loop counts in plain
   local refs (the pair loop is the hot path; a shard write there would
   cost more than the work it counts) and the totals land in the
   registry once per check. *)
let executed_metric = Obs.Metrics.Counter.v "crossing.executed"
let verified_metric = Obs.Metrics.Counter.v "crossing.verified"
let pairs_metric = Obs.Metrics.Counter.v "crossing.pairs_examined"

type report = {
  instances : int;
  crossable_pairs : int;  (* independent pairs examined *)
  same_label_pairs : int;  (* pairs satisfying Lemma 3.4's hypothesis *)
  indistinguishable : int;  (* of those, how many were indistinguishable *)
  violations : int;  (* must be 0 for the lemma to hold *)
  distinguishable_diff_label : int;  (* diagnostic: distinguishable pairs with different labels *)
  executed : int;  (* crossed instances genuinely run (excludes the per-instance base run) *)
  verified : int;  (* same-label pairs confirmed by execution rather than assumed *)
}

let directed_edges structure =
  List.concat_map
    (fun cyc ->
      let k = Array.length cyc in
      List.init k (fun i -> (cyc.(i), cyc.((i + 1) mod k))))
    (Cycles.cycles structure)

(* Running totals of one check; pair counts are weighted, execution
   counts are not. *)
type tally = {
  mutable crossable : int;
  mutable same_label : int;
  mutable indist : int;
  mutable violations : int;
  mutable diff_dist : int;
  mutable executed : int;
  mutable verified : int;
}

(* Every independent directed-edge pair of one instance, each counted
   [weight] times: one base execution, and crossed runs compared against
   it within the [verify] budgets. *)
let sweep tally ~seed ~verify algo inst structure ~weight =
  let base = Simulator.run ~seed algo inst in
  let indist_from_base = Simulator.indistinguishable_from base in
  let sent v = Transcript.sent_string base.Simulator.transcripts.(v) in
  let budget () = ref (match verify with `All -> max_int | `Sampled k -> k | `Off -> 0) in
  let same_budget = budget () and diff_budget = budget () in
  let edges = Array.of_list (directed_edges structure) in
  let m = Array.length edges in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let (v1, u1) = edges.(i) and (v2, u2) = edges.(j) in
      if Instance.independent inst (v1, u1) (v2, u2) then begin
        tally.crossable <- tally.crossable + weight;
        let run_crossed () =
          tally.executed <- tally.executed + 1;
          let crossed = Instance.cross inst (v1, u1) (v2, u2) in
          indist_from_base crossed (Simulator.run ~seed algo crossed)
        in
        if sent v1 = sent v2 && sent u1 = sent u2 then begin
          tally.same_label <- tally.same_label + weight;
          if !same_budget > 0 then begin
            decr same_budget;
            tally.verified <- tally.verified + 1;
            if run_crossed () then tally.indist <- tally.indist + weight
            else tally.violations <- tally.violations + weight
          end
          else
            (* Unverified same-label pairs are indistinguishable by
               Lemma 3.4 — the sampled executions spot-check it. *)
            tally.indist <- tally.indist + weight
        end
        else if !diff_budget > 0 then begin
          decr diff_budget;
          if not (run_crossed ()) then tally.diff_dist <- tally.diff_dist + weight
        end
      end
    done
  done

(* Run [body] on a fresh tally, publish its totals, and report. *)
let tallied ~instances body =
  let t =
    { crossable = 0;
      same_label = 0;
      indist = 0;
      violations = 0;
      diff_dist = 0;
      executed = 0;
      verified = 0 }
  in
  body t;
  Obs.Metrics.Counter.add pairs_metric t.crossable;
  Obs.Metrics.Counter.add executed_metric t.executed;
  Obs.Metrics.Counter.add verified_metric t.verified;
  { instances;
    crossable_pairs = t.crossable;
    same_label_pairs = t.same_label;
    indistinguishable = t.indist;
    violations = t.violations;
    distinguishable_diff_label = t.diff_dist;
    executed = t.executed;
    verified = t.verified }

(* Exhaustive weighted sweep over V₁'s rotation-class representatives
   (instead of [instances] random draws): every independent pair of
   every census instance is accounted for — an orbit member's pairs are
   counted through its representative with the orbit weight — while
   genuine rewired executions run only on representatives. Sound under
   the same condition as the orbit-reduced Indist_graph builds:
   rotation-equivariant transcripts. In the report, pair counts are
   census-weighted and [instances] is |V₁|; [executed]/[verified] stay
   actual execution counts, so the reduction factor is visible as
   verified ≪ same_label_pairs even under [`All]. *)
let check_reps ?(seed = 0) ?(verify = `Sampled 16) algo ~n =
  if not (Indist_graph.orbit_applicable algo ~n) then
    invalid_arg
      (Printf.sprintf
         "Crossing_check.check_reps: weighted-representative counting is sound only for \
          anonymous algorithms (or at rounds = 0); %S reads vertex IDs"
         (Algo.name algo));
  Obs.span "crossing.check_reps" ~attrs:[ ("n", string_of_int n) ]
  @@ fun () ->
  tallied ~instances:(Census.num_one_cycles ~n) (fun tally ->
      Census.iter_one_cycle_orbits ~n (fun s ~weight ->
          let inst = Instance.kt0_circulant (Cycles.to_graph ~n s) in
          sweep tally ~seed ~verify algo inst s ~weight))

let check ?(seed = 0) ?(verify = `Sampled 16) algo ~n ~instances ~wiring rng =
  Obs.span "crossing.check"
    ~attrs:[ ("n", string_of_int n); ("instances", string_of_int instances) ]
  @@ fun () ->
  tallied ~instances (fun tally ->
      for _ = 1 to instances do
        let g = Gen.random_cycle rng n in
        let inst =
          match wiring with
          | `Circulant -> Instance.kt0_circulant g
          | `Random -> Instance.kt0_random rng g
        in
        match Cycles.of_graph g with
        | None -> ()
        | Some s -> sweep tally ~seed ~verify algo inst s ~weight:1
      done)
