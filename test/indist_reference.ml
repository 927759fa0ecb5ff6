open Bcclb_bcc
open Bcclb_graph
open Bcclb_core

(* Parity oracle for Indist_graph: the string-label formulation. Every
   one-cycle instance runs through the full simulator with per-port
   traffic capture, labels are the decoded broadcast strings, and each
   crossing successor is found by allocating the crossed structure and
   looking it up in a Cycles.t-keyed table of V₂. Slow, but it shares
   nothing with the production builders — no arena, no packed codes, no
   orbit atlas — so it pins the graph they must reproduce exactly. *)

let sent_strings_legacy ?(seed = 0) algo ~n structure =
  let result = Simulator.run ~seed algo (Census.to_instance structure ~n) in
  Array.map Transcript.sent_string result.Simulator.transcripts

(* Directed edges along each cycle's stored orientation, with labels. *)
let edge_labels sent structure =
  List.concat_map
    (fun cyc ->
      let k = Array.length cyc in
      List.init k (fun i ->
          let v = cyc.(i) and u = cyc.((i + 1) mod k) in
          ((v, u), (sent.(v), sent.(u)))))
    (Cycles.cycles structure)

(* Ties broken lexicographically on the label strings. *)
let most_frequent_label histogram =
  let best = ref None in
  Hashtbl.iter
    (fun lbl count ->
      match !best with
      | None -> best := Some (lbl, count)
      | Some (lbl', count') ->
        if count > count' || (count = count' && lbl < lbl') then best := Some (lbl, count))
    histogram;
  match !best with
  | None -> invalid_arg "Indist_reference.most_frequent_label: empty histogram"
  | Some (lbl, _) -> lbl

(* Positions i of a cycle whose directed edge (cᵢ, cᵢ₊₁) is active. *)
let active_positions sent cyc ~x ~y =
  let k = Array.length cyc in
  List.filter
    (fun i -> sent.(cyc.(i)) = x && sent.(cyc.((i + 1) mod k)) = y)
    (Bcclb_util.Arrayx.range 0 k)

let sorted_distinct l = Array.of_list (List.sort_uniq Int.compare l)

let finish ~n ~x ~y ~v1 ~v2 adj_sets =
  let radj_sets = Array.make (Array.length v2) [] in
  Array.iteri (fun i1 row -> List.iter (fun i2 -> radj_sets.(i2) <- i1 :: radj_sets.(i2)) row) adj_sets;
  { Indist_graph.n;
    x;
    y;
    v1;
    v2;
    adj = Array.map sorted_distinct adj_sets;
    radj = Array.map sorted_distinct radj_sets }

(* V₁, V₂ in census order, V₂'s index, and every instance's labels. *)
let census ~seed algo ~n =
  let v1 = Census.one_cycles ~n in
  let v2 = Census.two_cycles ~n in
  let v2_index = Hashtbl.create (Array.length v2) in
  Array.iteri (fun i s -> Hashtbl.add v2_index s i) v2;
  let sent1 = Array.map (sent_strings_legacy ~seed algo ~n) v1 in
  (v1, v2, v2_index, sent1)

let build_reference ?(seed = 0) algo ~n ?xy () =
  let v1, v2, v2_index, sent1 = census ~seed algo ~n in
  let x, y =
    match xy with
    | Some p -> p
    | None ->
      let tbl = Hashtbl.create 256 in
      Array.iteri
        (fun idx s ->
          List.iter
            (fun (_, lbl) ->
              Hashtbl.replace tbl lbl (1 + Option.value ~default:0 (Hashtbl.find_opt tbl lbl)))
            (edge_labels sent1.(idx) s))
        v1;
      most_frequent_label tbl
  in
  let adj_sets =
    Array.mapi
      (fun i1 s ->
        let cyc = List.hd (Cycles.cycles s) in
        let k = Array.length cyc in
        let actives = active_positions sent1.(i1) cyc ~x ~y in
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if i < j && j - i >= 3 && k - (j - i) >= 3 then
                  Some (Hashtbl.find v2_index (Census.cross_one_cycle cyc i j))
                else None)
              actives)
          actives)
      v1
  in
  finish ~n ~x ~y ~v1 ~v2 adj_sets

let build_full_reference ?(seed = 0) algo ~n () =
  let v1, v2, v2_index, sent1 = census ~seed algo ~n in
  let adj_sets =
    Array.mapi
      (fun i1 s ->
        let sent = sent1.(i1) in
        let cyc = List.hd (Cycles.cycles s) in
        let k = Array.length cyc in
        let row = ref [] in
        for i = 0 to k - 1 do
          for j = i + 3 to k - 1 do
            if k - (j - i) >= 3 then begin
              let vi = cyc.(i) and ui = cyc.((i + 1) mod k) in
              let vj = cyc.(j) and uj = cyc.((j + 1) mod k) in
              if sent.(vi) = sent.(vj) && sent.(ui) = sent.(uj) then
                row := Hashtbl.find v2_index (Census.cross_one_cycle cyc i j) :: !row
            end
          done
        done;
        !row)
      v1
  in
  finish ~n ~x:"*" ~y:"*" ~v1 ~v2 adj_sets
