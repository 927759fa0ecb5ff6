open Bcclb_bcc
open Bcclb_graph

(* Full-graph discovery for bounded-degree inputs: the tightness witness
   of §1.1 ("our lower bounds are tight for uniformly sparse graphs",
   cf. [MT16]). Every vertex broadcasts its ID (KT-0 only, L rounds) and
   then its input-neighbour ID list (d blocks of L rounds, 0-padded).
   Broadcasts are heard by everyone, so after L + dL rounds (KT-0) or dL
   rounds (KT-1) each vertex knows the entire input graph and answers
   locally. Total rounds are O(d log n): Θ(log n) for the 2-regular
   promise problems, matching the Ω(log n) lower bounds. *)

type output = { connected : bool; component : int }

(* A sender broadcasts L-round blocks: its own ID (KT-0 only), then its
   d neighbour IDs, 0-padded. A listener keeps the inboxes of the block
   rounds — each shares its round's emission array, so keeping one costs
   a pointer (see Inbox) — and decodes a block only when its answer reads
   it: the input ports' ID blocks once at round L+1 (KT-0), the rest in
   [finish], and nothing at all when a truncated run must guess. The
   state is updated in place: every driver threads it linearly (see
   Algo). *)
type state = {
  view : View.t;
  l : int;
  d : int;
  id_blocks : int;  (* 1 in KT-0, where block 0 carries the sender's ID; 0 in KT-1 *)
  kept : Msg.t Inbox.t array;  (* kept.(r - 1) carries the round r broadcasts *)
  mutable inboxes : int;  (* inboxes absorbed, the all-silent round-1 one included *)
  mutable nbrs : int array;
      (* IDs of this vertex's input-graph neighbours, ascending. In KT-1
         they are initial knowledge; in KT-0 they are decoded once, at
         round l+1, from the ID blocks heard on input ports, and are
         empty before that. *)
}

let blocks st = st.id_blocks + st.d

(* Placeholder for block rounds not heard yet. *)
let unheard : Msg.t Inbox.t = Inbox.make 0 Msg.silent

(* Inbox r carries the round r−1 broadcasts, so the first inbox carries
   none. Rounds past the last block carry nothing and are not kept. *)
let keep st inbox =
  let r = st.inboxes in
  if r >= 1 && r <= Array.length st.kept then st.kept.(r - 1) <- inbox;
  st.inboxes <- r + 1

let rounds_heard st = Int.min (st.inboxes - 1) (Array.length st.kept)

(* Block [b] heard on port [p], big-endian, or −1 unless all of its L
   rounds were heard and none was silent. *)
let block st p b =
  let first = b * st.l in
  if first + st.l > rounds_heard st then -1
  else begin
    let v = ref 0 and r = ref 0 in
    while !r < st.l && !v >= 0 do
      (match Inbox.get st.kept.(first + !r) p with
      | Msg.Silent -> v := -1
      | Msg.Word w -> v := (!v lsl 1) lor Bool.to_int (Bcclb_util.Bits.to_bool w));
      incr r
    done;
    !v
  end

let schedule st ~round =
  let p1 = st.id_blocks * st.l in
  if round <= p1 then
    (* Broadcast own ID, big-endian. *)
    Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos:(round - 1) (View.id st.view))
  else begin
    let r = round - p1 - 1 in
    let block = r / st.l and pos = r mod st.l in
    let value = if block < Array.length st.nbrs then st.nbrs.(block) else 0 in
    Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos value)
  end

(* The ID index finish unions over: id − 1 in KT-0 (IDs are 1..n), the
   position in the sorted [all_ids] in KT-1; −1 for an ID that is not
   the instance's. Both are order-preserving, so the smallest index of
   a component is its smallest ID. *)
let index_of view =
  match View.kt1 view with
  | None ->
    let n = View.n view in
    fun id -> if id >= 1 && id <= n then id - 1 else -1
  | Some k ->
    let ids = k.View.all_ids in
    fun id ->
      let lo = ref 0 and hi = ref (Array.length ids) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ids.(mid) < id then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length ids && ids.(!lo) = id then !lo else -1

let id_of_index view i = match View.kt1 view with None -> i + 1 | Some k -> k.View.all_ids.(i)

(* The promise the ID fields rely on: a KT-1 ID must fit L bits without
   being the 0 padding, and KT-0 IDs must be 1..n, the universe the
   decoder assumes. Off it the algorithm would answer wrong in silence. *)
let check_id ~name view ~l =
  let id = View.id view and n = View.n view in
  match View.kt1 view with
  | Some _ ->
    if id < 1 || id >= 1 lsl l then
      invalid_arg
        (Printf.sprintf "%s: ID %d does not fit the %d-bit ID field (KT-1 IDs must be 1..%d)" name id
           l ((1 lsl l) - 1))
  | None ->
    if id < 1 || id > n then
      invalid_arg (Printf.sprintf "%s: ID %d is outside 1..%d (KT-0 IDs must be 1..n)" name id n)

(* Link our own ID with its neighbours and every decoded sender with
   the neighbour IDs it broadcast, as ID-index pairs: link i joins
   ends.(2i) and ends.(2i+1); unknown IDs and self-links are dropped.
   Returns the links, their number, and whether the transcript
   determines the graph: our neighbours, every sender's ID and every
   neighbour block were all heard. *)
let links st ~index ~own =
  let view = st.view in
  let ports = View.num_ports view in
  let ends = Array.make (2 * (Array.length st.nbrs + (ports * st.d))) 0 in
  let m = ref 0 in
  let link a b =
    if a >= 0 && b >= 0 && a <> b then begin
      ends.(!m) <- a;
      ends.(!m + 1) <- b;
      m := !m + 2
    end
  in
  Array.iter (fun id -> link own (index id)) st.nbrs;
  let complete = ref (Array.length st.nbrs >= View.degree view) in
  for p = 0 to ports - 1 do
    let sender = if st.id_blocks = 0 then View.neighbor_id view p else block st p 0 in
    if sender < 0 then complete := false
    else begin
      let s = index sender in
      for b = st.id_blocks to blocks st - 1 do
        match block st p b with
        | -1 -> complete := false
        | 0 -> ()
        | v -> link s (index v)
      done
    end
  done;
  (ends, !m / 2, !complete)

(* Each edge can be heard from both endpoints: count the distinct ones.
   Closing a cycle with fewer than n known edges certifies that some
   cycle shorter than n exists, a NO-certificate for TwoCycle. *)
let closes_short_cycle ~n ends links =
  let keys =
    Array.init links (fun i ->
        let a = ends.(2 * i) and b = ends.((2 * i) + 1) in
        (Int.min a b * n) + Int.max a b)
  in
  Array.sort Int.compare keys;
  let uf = Conn.create n in
  let known = ref 0 and cycle = ref false in
  Array.iteri
    (fun i key ->
      if i = 0 || keys.(i - 1) <> key then begin
        incr known;
        if not (Conn.union uf (key / n) (key mod n)) then cycle := true
      end)
    keys;
  !cycle && !known < n

(* When the transcript does not determine the graph, [finish] answers
   [optimist] — unless [certify] is set and the edges heard so far close
   a cycle shorter than n, which certifies NO. *)
let make ~knowledge ~max_degree ~name ~optimist ~certify =
  let rounds ~n =
    let l = Codec.id_width ~n in
    (match knowledge with Instance.KT0 -> l | Instance.KT1 -> 0) + (max_degree * l)
  in
  let init view =
    if View.degree view > max_degree then
      invalid_arg (Printf.sprintf "%s: vertex degree exceeds declared bound %d" name max_degree);
    (match (knowledge, View.kt1 view) with
    | Instance.KT1, None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | _ -> ());
    let l = Codec.id_width ~n:(View.n view) in
    check_id ~name view ~l;
    let id_blocks, nbrs =
      match View.kt1 view with
      | Some _ ->
        let ids = Array.of_list (List.map (View.neighbor_id view) (View.input_ports view)) in
        Array.sort Int.compare ids;
        (0, ids)
      | None -> (1, [||])
    in
    { view; l; d = max_degree; id_blocks;
      kept = Array.make ((id_blocks + max_degree) * l) unheard;
      inboxes = 0;
      nbrs }
  in
  let step st ~round ~inbox =
    keep st inbox;
    if st.id_blocks = 1 && round = st.l + 1 then begin
      let heard p = match block st p 0 with -1 -> None | id -> Some id in
      let ids = Array.of_list (List.filter_map heard (View.input_ports st.view)) in
      Array.sort Int.compare ids;
      st.nbrs <- ids
    end;
    (st, schedule st ~round)
  in
  let finish st ~inbox =
    keep st inbox;
    let view = st.view in
    let guess connected = { connected; component = View.id view } in
    (* A run cut before the last block leaves every port's last block
       unheard: a decider that only guesses reads nothing. *)
    if (not certify) && rounds_heard st < Array.length st.kept then guess optimist
    else begin
      let n = View.n view and index = index_of view in
      let own = index (View.id view) in
      let ends, links, complete = links st ~index ~own in
      if complete then begin
        let uf = Conn.create n in
        for i = 0 to links - 1 do
          ignore (Conn.union uf ends.(2 * i) ends.((2 * i) + 1))
        done;
        (* Component label = smallest ID = smallest index in our set. *)
        let root = Conn.find uf own in
        let first = ref 0 in
        while Conn.find uf !first <> root do
          incr first
        done;
        { connected = Conn.components uf = 1; component = id_of_index view !first }
      end
      else guess (optimist && not (certify && closes_short_cycle ~n ends links))
    end
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let model = function Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1"
let bias optimist = if optimist then "yes-bias" else "no-bias"

let connectivity ~knowledge ~max_degree =
  let name = Printf.sprintf "discovery-connectivity[%s,d<=%d]" (model knowledge) max_degree in
  let algo = make ~knowledge ~max_degree ~name ~optimist:true ~certify:false in
  Algo.pack (Algo.map_output (fun o -> o.connected) algo)

let components ~knowledge ~max_degree =
  let name = Printf.sprintf "discovery-components[%s,d<=%d]" (model knowledge) max_degree in
  let algo = make ~knowledge ~max_degree ~name ~optimist:true ~certify:false in
  Algo.pack (Algo.map_output (fun o -> o.component) algo)

let connectivity_guess_no ~knowledge ~max_degree =
  let name =
    Printf.sprintf "discovery-connectivity-pessimist[%s,d<=%d]" (model knowledge) max_degree
  in
  let algo = make ~knowledge ~max_degree ~name ~optimist:false ~certify:false in
  Algo.pack (Algo.map_output (fun o -> o.connected) algo)

let connectivity_truncated ~knowledge ~max_degree ~rounds ~optimist =
  let name = Printf.sprintf "discovery[%s,d<=%d,%s]" (model knowledge) max_degree (bias optimist) in
  let algo = make ~knowledge ~max_degree ~name ~optimist ~certify:false in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))

(* A smarter truncation: use whatever part of the graph the transcript
   already determines. If the known edges close a cycle shorter than n,
   the input must be a two-cycle instance (answer NO with certainty);
   otherwise fall back to the optimist/pessimist guess. This gives the
   error-vs-rounds sweep of E3 a gradient between "knows nothing" and
   "knows everything". *)
let connectivity_partial ~knowledge ~max_degree ~rounds ~optimist =
  let name =
    Printf.sprintf "discovery-partial[%s,d<=%d,%s]" (model knowledge) max_degree (bias optimist)
  in
  let algo = make ~knowledge ~max_degree ~name ~optimist ~certify:true in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))
