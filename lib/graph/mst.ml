(* Minimum spanning forests with explicit weight functions. The
   congested-clique MST literature ([Heg+15; GP16; JN18]) frames the
   paper's contrast between CC(b) and BCC(b); this module supplies the
   sequential oracle that the distributed MST algorithm is tested
   against. *)

let kruskal g ~weight =
  let sorted = Graph.edges_array g in
  Array.sort
    (fun (u1, v1) (u2, v2) ->
      let c = Int.compare (weight u1 v1) (weight u2 v2) in
      if c <> 0 then c else compare (u1, v1) (u2, v2))
    sorted;
  let uf = Conn.create (Graph.n g) in
  List.filter (fun (u, v) -> Conn.union uf u v) (Array.to_list sorted)

let total_weight ~weight edges = List.fold_left (fun acc (u, v) -> acc + weight u v) 0 edges

let is_spanning_forest g edges =
  (* Same number of edges as a spanning forest and acyclic and within the
     graph: then it spans every component. *)
  let n = Graph.n g in
  let uf = Conn.create n in
  let acyclic = List.for_all (fun (u, v) -> Graph.mem_edge g u v && Conn.union uf u v) edges in
  acyclic && Conn.components uf = Graph.num_components g

(* A canonical injective weight function on ID pairs: the bijective
   scramble of the base-2^L pair encoding guarantees DISTINCT weights, so
   the minimum spanning forest is unique and distributed/sequential
   results are comparable edge-by-edge. *)
let weight_of_ids ~max_id =
  let l = Bcclb_util.Mathx.ceil_log2 (max 2 (max_id + 1)) in
  let bits = 2 * l in
  let mask = (1 lsl bits) - 1 in
  let odd = 0x9E3779B9 lor 1 in
  fun id1 id2 ->
    let lo = min id1 id2 and hi = max id1 id2 in
    ((lo lsl l) lor hi) * odd land mask
