open Bcclb_bcc
open Bcclb_graph
open Bcclb_algorithms

(* Parity oracle for Discovery: the history-decoding formulation. Every
   vertex keeps its whole inbox history; the KT-0 neighbour IDs are
   decoded from it at round L+1, every round re-sorts them to pick the
   block to broadcast, and [finish] reassembles each port's broadcast
   sequence and decodes every block afresh into an ID-edge list, which it
   turns into a graph through hash tables. Quadratic in the round count,
   but every decode is the plain Codec one, so it pins the semantics the
   accumulator-decoding production version must reproduce exactly:
   outputs and transcripts. On the ID promise the production version
   enforces, both read edges over the same ID universe. *)

(* The per-sender broadcast sequences seen by one vertex: element [p] is
   the array of broadcasts of the peer behind port [p]. [inboxes] is the
   full list of inboxes delivered so far, oldest first. Inbox r carries
   the round r−1 broadcasts, so dropping the (all-silent) first inbox
   leaves exactly the broadcasts of rounds 1..len−1. *)
let broadcast_sequences ~num_ports ~inboxes =
  let all = match inboxes with [] -> [] | _ :: tl -> tl in
  let t = List.length all in
  let seqs = Array.make num_ports [||] in
  for p = 0 to num_ports - 1 do
    let arr = Array.make t Msg.Silent in
    List.iteri (fun i inbox -> arr.(i) <- Inbox.get inbox p) all;
    seqs.(p) <- arr
  done;
  seqs

type output = { connected : bool; component : int }

type state = {
  view : View.t;
  l : int;
  d : int;
  inboxes : Msg.t Inbox.t list;  (* newest first *)
  own_ids : int list;
      (* IDs of this vertex's input-graph neighbours, in input-port order.
         In KT-1 they are initial knowledge; in KT-0 they are decoded once,
         at round l+1, from the first L broadcasts heard on input ports,
         and are [] before that. *)
}

let phase1_rounds st = match View.kt1 st.view with Some _ -> 0 | None -> st.l

(* KT-0: decode the neighbour IDs from the first L broadcasts heard on
   input ports, complete from round l+1 on. *)
let decode_own_ids st =
  let seqs =
    broadcast_sequences ~num_ports:(View.num_ports st.view) ~inboxes:(List.rev st.inboxes)
  in
  List.filter_map
    (fun p ->
      let v, complete = Codec.decode_int ~first:1 ~width:st.l seqs.(p) in
      if complete then Some v else None)
    (View.input_ports st.view)

let schedule st ~round =
  let p1 = phase1_rounds st in
  if round <= p1 then
    (* Broadcast own ID, big-endian. *)
    Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos:(round - 1) (View.id st.view))
  else begin
    let r = round - p1 - 1 in
    let block = r / st.l and pos = r mod st.l in
    let nbrs = List.sort Int.compare st.own_ids in
    let value = match List.nth_opt nbrs block with Some id -> id | None -> 0 in
    Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos value)
  end

(* Decode everything heard (tolerating truncation) into a graph over IDs.
   Returns the edge list over IDs and whether decoding was complete. *)
let decode_graph st ~final_inbox =
  let inboxes = List.rev (final_inbox :: st.inboxes) in
  let seqs = broadcast_sequences ~num_ports:(View.num_ports st.view) ~inboxes in
  let p1 = phase1_rounds st in
  let complete = ref true in
  let edges = ref [] in
  (* Own adjacency: in KT-0 it is only known once phase 1 decoded. *)
  let own = View.id st.view in
  List.iter (fun nbr -> edges := (own, nbr) :: !edges) st.own_ids;
  if List.length st.own_ids < View.degree st.view then complete := false;
  for p = 0 to View.num_ports st.view - 1 do
    let sender_id =
      match View.kt1 st.view with
      | Some _ -> Some (View.neighbor_id st.view p)
      | None ->
        let v, ok = Codec.decode_int ~first:1 ~width:st.l seqs.(p) in
        if ok then Some v else None
    in
    match sender_id with
    | None -> complete := false
    | Some sid ->
      for block = 0 to st.d - 1 do
        let v, ok = Codec.decode_int ~first:(p1 + (block * st.l) + 1) ~width:st.l seqs.(p) in
        if not ok then complete := false
        else if v <> 0 then edges := (sid, v) :: !edges
      done
  done;
  (!edges, !complete)

let components_of_id_edges ~ids edges =
  (* Graph over the ID space; unknown IDs are ignored defensively. *)
  let index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.add index id i) ids;
  let ok (u, v) = Hashtbl.mem index u && Hashtbl.mem index v && u <> v in
  let g =
    Graph.of_edges ~n:(Array.length ids)
      (List.map (fun (u, v) -> (Hashtbl.find index u, Hashtbl.find index v)) (List.filter ok edges))
  in
  let labels = Graph.components g in
  (* Back to ID labels: component label = smallest ID in the component. *)
  let comp_min = Hashtbl.create 16 in
  Array.iteri
    (fun i id ->
      let c = labels.(i) in
      match Hashtbl.find_opt comp_min c with
      | None -> Hashtbl.add comp_min c id
      | Some m -> if id < m then Hashtbl.replace comp_min c id)
    ids;
  (Graph.num_components g, fun id -> Hashtbl.find comp_min labels.(Hashtbl.find index id))

(* [on_incomplete] decides behaviour under truncation: what to output when
   the transcript does not determine the graph. *)
let make ~knowledge ~max_degree ~name ~on_incomplete () =
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
    let own_ids =
      match View.kt1 view with
      | Some _ -> List.map (View.neighbor_id view) (View.input_ports view)
      | None -> []
    in
    { view; l = Codec.id_width ~n:(View.n view); d = max_degree; inboxes = []; own_ids }
  in
  let step st ~round ~inbox =
    let st = { st with inboxes = inbox :: st.inboxes } in
    let st =
      if Option.is_none (View.kt1 st.view) && round = st.l + 1 then { st with own_ids = decode_own_ids st }
      else st
    in
    (st, schedule st ~round)
  in
  let finish st ~inbox =
    let edges, complete = decode_graph st ~final_inbox:inbox in
    if not complete then on_incomplete st edges
    else begin
      (* All IDs are known: 1..n by repository convention in KT-0; exact
         list in KT-1. *)
      let ids =
        match View.kt1 st.view with
        | Some k -> k.View.all_ids
        | None -> Array.init (View.n st.view) (fun i -> i + 1)
      in
      let num_components, label_of = components_of_id_edges ~ids edges in
      { connected = num_components = 1; component = label_of (View.id st.view) }
    end
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let name knowledge max_degree kind =
  Printf.sprintf "discovery-%s[%s,d<=%d]" kind
    (match knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
    max_degree

let guess optimist st _edges = { connected = optimist; component = View.id st.view }

let connectivity ~knowledge ~max_degree =
  let algo =
    make ~knowledge ~max_degree ~name:(name knowledge max_degree "connectivity")
      ~on_incomplete:(guess true) ()
  in
  Algo.pack (Algo.map_output (fun o -> o.connected) algo)

let components ~knowledge ~max_degree =
  let algo =
    make ~knowledge ~max_degree ~name:(name knowledge max_degree "components")
      ~on_incomplete:(guess true) ()
  in
  Algo.pack (Algo.map_output (fun o -> o.component) algo)

let connectivity_guess_no ~knowledge ~max_degree =
  let algo =
    make ~knowledge ~max_degree ~name:(name knowledge max_degree "pessimist")
      ~on_incomplete:(guess false) ()
  in
  Algo.pack (Algo.map_output (fun o -> o.connected) algo)

let connectivity_truncated ~knowledge ~max_degree ~rounds ~optimist =
  let algo =
    make ~knowledge ~max_degree ~name:(name knowledge max_degree "truncated")
      ~on_incomplete:(guess optimist) ()
  in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))

(* Known edges are over the instance's IDs (1..n in KT-0, [all_ids] in
   KT-1); each edge can be reported by both endpoints, so deduplicate
   before cycle-testing. Closing a cycle with fewer than n known edges
   certifies that some cycle shorter than n exists. *)
let connectivity_partial ~knowledge ~max_degree ~rounds ~optimist =
  let infer st edges =
    let n = View.n st.view in
    let ids =
      match View.kt1 st.view with Some k -> k.View.all_ids | None -> Array.init n (fun i -> i + 1)
    in
    let index = Hashtbl.create 16 in
    Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
    let seen = Hashtbl.create 16 in
    let distinct = ref [] in
    List.iter
      (fun (u, v) ->
        if Hashtbl.mem index u && Hashtbl.mem index v && u <> v then begin
          let key = (min u v, max u v) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            distinct := key :: !distinct
          end
        end)
      edges;
    let uf = Conn.create n in
    let short_cycle = ref false in
    let known = List.length !distinct in
    List.iter
      (fun (u, v) ->
        if (not (Conn.union uf (Hashtbl.find index u) (Hashtbl.find index v))) && known < n then
          short_cycle := true)
      !distinct;
    if !short_cycle then { connected = false; component = View.id st.view }
    else { connected = optimist; component = View.id st.view }
  in
  let algo =
    make ~knowledge ~max_degree ~name:(name knowledge max_degree "partial") ~on_incomplete:infer ()
  in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))
