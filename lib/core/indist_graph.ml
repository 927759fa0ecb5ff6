open Bcclb_graph

(* The bipartite indistinguishability graph G^t_{x,y} of Definition 3.6,
   materialised for small n: left vertices are all one-cycle instances,
   right vertices all two-cycle instances, and {I1, I2} is an edge iff
   I2 = I1(e1, e2) for active independent directed edges e1, e2 of I1
   (active = head broadcasts x, tail broadcasts y during the t rounds of
   the algorithm).

   One construction serves every algorithm, driven by an orbit atlas of
   V₁. It computes adjacency rows on the atlas's representatives only —
   labels are machine-word codes, and each crossing successor is a hash
   lookup of a packed canonical key — and reconstructs every other row
   through the arena's V₂ handle permutations. Where transcripts are
   rotation-equivariant (anonymous algorithms, or t = 0) the atlas is
   V₁'s rotation-orbit atlas: one execution and one crossing sweep per
   rotation class. Elsewhere it is the trivial atlas — every handle its
   own representative — and the same code runs instance by instance. *)

type t = {
  n : int;
  x : string;
  y : string;
  v1 : Cycles.t array;
  v2 : Cycles.t array;
  adj : int array array;  (* v1 index -> sorted distinct v2 indices *)
  radj : int array array;  (* v2 index -> sorted distinct v1 indices *)
}

type label = Same_label | Active of int * int

(* The splitting-pair loop of Lemma 3.4: every position pair i < j of the
   cycle whose crossing leaves both arcs with >= 3 vertices and whose
   directed edges (cᵢ, cᵢ₊₁), (cⱼ, cⱼ₊₁) carry equal code labels — under
   [Active (x, y)], only pairs whose first edge is (x, y)-active, which
   makes the second one active too. [f i j smaller] receives the smaller
   arc length. *)
let iter_crossings label cyc codes f =
  let k = Array.length cyc in
  for i = 0 to k - 1 do
    let hi = codes.(cyc.(i)) and ti = codes.(cyc.((i + 1) mod k)) in
    let wanted = match label with Same_label -> true | Active (x, y) -> hi = x && ti = y in
    if wanted then
      for j = i + 3 to min (k - 1) (i + k - 3) do
        if codes.(cyc.(j)) = hi && codes.(cyc.((j + 1) mod k)) = ti then f i j (min (j - i) (k - j + i))
      done
  done

let dedup l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let out = ref [] in
  Array.iteri (fun i v -> if i = 0 || a.(i - 1) <> v then out := v :: !out) a;
  Array.of_list (List.rev !out)

let finish arena ~x ~y adj_sets =
  let radj_sets = Array.make (Arena.n_two arena) [] in
  Array.iteri (fun i1 row -> List.iter (fun i2 -> radj_sets.(i2) <- i1 :: radj_sets.(i2)) row) adj_sets;
  { n = Arena.n arena;
    x;
    y;
    v1 = Arena.one_structures arena;
    v2 = Arena.two_structures arena;
    adj = Array.map dedup adj_sets;
    radj = Array.map dedup radj_sets }

(* Most frequent (head, tail) code label across all one-cycle edges,
   each representative's edges counted with its orbit weight — an orbit
   member's edge-label multiset is its representative's. Ties break on
   the DECODED string pair: int code order differs from lexicographic
   string order ('_' sorts after '1' in ASCII but codes as 0), and the
   labels are presented as strings. *)
let most_frequent_code ~rounds (o : Arena.orbit_one) codes rep_cycle =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun ri sent ->
      let cyc = rep_cycle ri in
      let k = Array.length cyc in
      for i = 0 to k - 1 do
        let lbl = (sent.(cyc.(i)), sent.(cyc.((i + 1) mod k))) in
        Hashtbl.replace tbl lbl (o.Arena.weights.(ri) + Option.value ~default:0 (Hashtbl.find_opt tbl lbl))
      done)
    codes;
  let decode (cx, cy) = (Labels.string_of_code ~rounds cx, Labels.string_of_code ~rounds cy) in
  let best = ref None in
  Hashtbl.iter
    (fun lbl count ->
      match !best with
      | None -> best := Some (lbl, count)
      | Some (lbl', count') ->
        if count > count' || (count = count' && decode lbl < decode lbl') then best := Some (lbl, count))
    tbl;
  match !best with
  | None -> invalid_arg "Indist_graph: no edge labels"
  | Some (lbl, _) -> lbl

let orbit_applicable algo ~n =
  Bcclb_bcc.Algo.anonymous algo || Bcclb_bcc.Algo.rounds algo ~n = 0

(* Every handle is its own representative: the per-instance path. *)
let trivial_atlas arena =
  let m = Arena.n_one arena in
  { Arena.reps = Array.init m Fun.id;
    weights = Array.make m 1;
    rep_of = Array.init m Fun.id;
    shift_of = Array.make m 0;
    flip_of = Array.make m false }

(* The atlas a build runs over, with broadcast codes indexed like its
   [reps]: one execution per representative. *)
let atlas ~who ~orbit ~seed algo ~n =
  Arena.require_codable ~who algo ~n;
  let arena = Arena.get ~n in
  if orbit then (arena, Arena.orbit_one arena, Arena.codes_reps arena ~seed algo)
  else (arena, trivial_atlas arena, Arena.codes arena ~seed algo)

(* One crossing sweep: the V₂ handles a representative's [label]
   crossings reach. *)
let row arena label cyc codes =
  let r = ref [] in
  iter_crossings label cyc codes (fun i j _ -> r := Arena.cross_handle arena cyc i j :: !r);
  !r

(* Rotations are automorphisms of the circulant wiring, so when
   transcripts are rotation-equivariant an orbit member's active pairs
   are the rotation image of its representative's, and crossing commutes
   with rotation: the member's row is the representative's row pushed
   through the V₂ handle permutation of its shift. [rep_row ri flip] is
   the representative row a member reads; rotation maps are forced only
   for shifts that occur, so the trivial atlas never builds one. *)
let expand arena (o : Arena.orbit_one) rep_row =
  let rot = Array.init (Arena.n arena) (fun c -> lazy (Arena.rotation_map_two arena c)) in
  Array.init (Arena.n_one arena) (fun h ->
      let row = rep_row o.Arena.rep_of.(h) o.Arena.flip_of.(h) in
      match o.Arena.shift_of.(h) with
      | 0 -> row
      | c ->
        let m = Lazy.force rot.(c) in
        List.map (fun h2 -> m.(h2)) row)

let labelled ~orbit ~seed algo ~n ?xy () =
  let arena, o, codes = atlas ~who:"Indist_graph.build" ~orbit ~seed algo ~n in
  let rounds = Bcclb_bcc.Algo.rounds algo ~n in
  let rep_cycle ri = Arena.one_cycle arena o.Arena.reps.(ri) in
  let x, y =
    match xy with
    | Some (xs, ys) -> (Labels.code_of_string xs, Labels.code_of_string ys)
    | None -> most_frequent_code ~rounds o codes rep_cycle
  in
  (* Crossing is orientation-free but the (x, y) label condition is not:
     a member whose canonical traversal reverses the representative's
     has the representative's (y, x)-active pairs. The orbit atlas
     therefore computes both orientations per representative (they
     coincide when x = y); expansion picks by the flip bit. *)
  let rep_rows =
    Bcclb_engine.Pool.tabulate (Array.length o.Arena.reps) (fun ri ->
        let fwd = row arena (Active (x, y)) (rep_cycle ri) codes.(ri) in
        let rev = if orbit && x <> y then row arena (Active (y, x)) (rep_cycle ri) codes.(ri) else fwd in
        (fwd, rev))
  in
  finish arena
    ~x:(Labels.string_of_code ~rounds x)
    ~y:(Labels.string_of_code ~rounds y)
    (expand arena o (fun ri flip -> if flip then snd rep_rows.(ri) else fst rep_rows.(ri)))

let full ~orbit ~seed algo ~n () =
  let arena, o, codes = atlas ~who:"Indist_graph.build_full" ~orbit ~seed algo ~n in
  let rep_rows =
    Bcclb_engine.Pool.tabulate (Array.length o.Arena.reps) (fun ri ->
        row arena Same_label (Arena.one_cycle arena o.Arena.reps.(ri)) codes.(ri))
  in
  finish arena ~x:"*" ~y:"*" (expand arena o (fun ri _ -> rep_rows.(ri)))

let build_packed ?(seed = 0) algo ~n ?xy () = labelled ~orbit:false ~seed algo ~n ?xy ()
let build_full_packed ?(seed = 0) algo ~n () = full ~orbit:false ~seed algo ~n ()

let build ?(seed = 0) algo ~n ?xy () =
  Bcclb_obs.span "indist.build" ~attrs:[ ("n", string_of_int n) ] (fun () ->
      labelled ~orbit:(orbit_applicable algo ~n) ~seed algo ~n ?xy ())

let build_full ?(seed = 0) algo ~n () =
  Bcclb_obs.span "indist.build_full" ~attrs:[ ("n", string_of_int n) ] (fun () ->
      full ~orbit:(orbit_applicable algo ~n) ~seed algo ~n ())

(* ------------------------------------------------------------------ *)

let num_edges t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj

let degree_v1 t i = Array.length t.adj.(i)
let degree_v2 t i = Array.length t.radj.(i)

let neighborhood t indices =
  let seen = Hashtbl.create 64 in
  List.iter (fun i -> Array.iter (fun j -> Hashtbl.replace seen j ()) t.adj.(i)) indices;
  Hashtbl.length seen

(* Check the Polygamous Hall condition |N(S)| >= k|S| on sampled subsets
   of the positive-degree left vertices; exhaustive subsets are
   exponential, so we sample [samples] random subsets. A violating
   witness S is returned if found. *)
let hall_condition_sampled ?(samples = 200) rng t ~k =
  let live = List.filter (fun i -> degree_v1 t i > 0) (Bcclb_util.Arrayx.range 0 (Array.length t.v1)) in
  let live = Array.of_list live in
  let m = Array.length live in
  if m = 0 then Ok ()
  else begin
    (* The full live set is the extremal witness whenever k|L| > |R|;
       check it first, then random subsets of varied sizes. *)
    let full = Array.to_list live in
    let violation = ref (if neighborhood t full < k * m then Some full else None) in
    for _ = 1 to samples do
      if !violation = None then begin
        let size = 1 + Bcclb_util.Rng.int rng m in
        let perm = Bcclb_util.Rng.permutation rng m in
        let s = List.init size (fun i -> live.(perm.(i))) in
        if neighborhood t s < k * size then violation := Some s
      end
    done;
    match !violation with None -> Ok () | Some s -> Error s
  end

(* Construct an explicit k-matching of size |V1| (Theorem 2.1's
   conclusion) with Hopcroft-Karp on the k-fold blow-up; only left
   vertices of positive degree participate (isolated one-cycle instances
   have no active pair at all and are excluded, as in Lemma 3.8). *)
let k_matching t ~k =
  let live = List.filter (fun i -> degree_v1 t i > 0) (Bcclb_util.Arrayx.range 0 (Array.length t.v1)) in
  let live = Array.of_list live in
  let adj = Array.map (fun i -> t.adj.(i)) live in
  match Hopcroft_karp.k_matching ~k ~nl:(Array.length live) ~nr:(Array.length t.v2) ~adj with
  | None -> None
  | Some groups -> Some (live, groups)

(* Certified error lower bound under mu for THIS algorithm: a maximum
   matching M in the full indistinguishability graph forces, for every
   matched pair, an error of mass at least min(mu(I1), mu(I2)) =
   1 / (2 max(|V1|, |V2|)). *)
let certified_error_lb t =
  let nl = Array.length t.v1 and nr = Array.length t.v2 in
  let m = Hopcroft_karp.max_matching ~nl ~nr ~adj:t.adj in
  let denom = 2 * max nl nr in
  (m.Hopcroft_karp.size, Bcclb_bignum.Ratio.of_ints m.Hopcroft_karp.size denom)

(* Lemma 3.7's quantitative content at t = 0 for one instance: the
   multiset of neighbour degrees of I1, grouped by the smaller cycle
   length i of the neighbour. *)
let neighbor_degree_histogram t i1 =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun i2 ->
      let smaller = List.fold_left min t.n (Cycles.lengths t.v2.(i2)) in
      let d = degree_v2 t i2 in
      let key = (smaller, d) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    t.adj.(i1);
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])
