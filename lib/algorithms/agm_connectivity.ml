open Bcclb_bcc
open Bcclb_graph
open Bcclb_sketch
module Seq = Bcclb_util.Bits.Seq

(* Connectivity for ARBITRARY graphs in BCC(1) in O(log^3 n) rounds, via
   public-coin AGM linear sketches: the "CONNECTIVITY can be solved in
   BCC(b) for any b >= 1 in just O(poly(log n)) rounds" regime that the
   paper's introduction situates its Omega(log n) lower bounds against.

   Structure: every vertex builds, from the SHARED coin stream, the same
   family of GF(2) l0-samplers (one per Boruvka phase and boosting copy)
   over the edge-id universe, toggles its incident edges into its own
   copies, and broadcasts their serialisation bit by bit. Broadcasts
   reach everyone, so after O(phases * copies * log^2 n) = O(log^3 n)
   rounds every vertex holds every vertex's sketches. Those are public, so
   decoding the n sketch families and the local Boruvka run once per run
   and are shared by every vertex whose decode input equals the
   decoder's ({!Chunked.shared}); only the output is per vertex. Per
   phase, a component's sketch is the XOR of its members' (internal
   edges cancel), and sampling it yields an outgoing edge. Monte Carlo:
   sampling can fail (extra phases retry with fresh randomness) and
   checksum collisions can fabricate edges (mitigated by check bits and
   an endpoint sanity test); errors are rare and measured in the tests
   and experiment E14. *)

type params = { copies : int; check_bits : int; phases : int }

let default_params ~n =
  { copies = 3;
    check_bits = min 20 (Edge_coding.bits ~n + 4);
    phases = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 }

type state = {
  view : View.t;
  params : params;
  specs : L0_sampler.hash_spec array;  (* phases * copies, row-major *)
  own_bits : string;  (* serialisation of our samplers *)
  heard : Seq.seq array;  (* accumulated bits per port *)
}

(* The shared decode's whole input, and its published result. *)
type key = {
  n : int;
  params : params;
  bandwidth : int;
  specs : L0_sampler.hash_spec array;
  payloads : Seq.seq array;  (* by sender index *)
}

type decoded = { components : int; labels : int array }

let memo : (key, decoded) Chunked.memo = Chunked.memo ()

let same_key a b =
  a.n = b.n && a.params = b.params && a.bandwidth = b.bandwidth
  && Array.for_all2 L0_sampler.equal_spec a.specs b.specs
  && Chunked.same_payloads a.payloads b.payloads

let build_own_samplers view params specs =
  let n = View.n view in
  let universe = Edge_coding.universe ~n in
  let me = Chunked.index_of_id view (View.id view) in
  Array.map
    (fun spec ->
      let s = L0_sampler.create ~universe ~check_bits:params.check_bits spec in
      List.iter
        (fun p ->
          let nbr = Chunked.index_of_id view (View.neighbor_id view p) in
          L0_sampler.toggle s (Edge_coding.encode ~n me nbr))
        (View.input_ports view);
      s)
    specs

let sampler_bits ~n ~check_bits =
  let universe = Edge_coding.universe ~n in
  L0_sampler.levels_for ~universe * L0_sampler.bits_per_level ~universe ~check_bits

let payload_bits ~n params = params.phases * params.copies * sampler_bits ~n ~check_bits:params.check_bits

let total_rounds ?(bandwidth = 1) ~n params =
  Chunked.rounds ~bits:(payload_bits ~n params) ~bandwidth

(* The local Boruvka over all n sketch families, run once per run.
   samplers.(v).(k): vertex v's k-th sampler. *)
let local_components ~n params samplers =
  let uf = Conn.create n in
  for phase = 0 to params.phases - 1 do
    (* Component roots and their member lists. *)
    let members = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let root = Conn.find uf v in
      Hashtbl.replace members root (v :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    if Hashtbl.length members > 1 then
      Hashtbl.iter
        (fun _root vs ->
          (* Try the copies of this phase until one samples a boundary
             edge. *)
          let rec attempt c =
            if c < params.copies then begin
              let k = (phase * params.copies) + c in
              match vs with
              | [] -> ()
              | v0 :: rest ->
                let merged = L0_sampler.copy samplers.(v0).(k) in
                List.iter (fun v -> L0_sampler.merge_into ~into:merged samplers.(v).(k)) rest;
                (match L0_sampler.sample merged with
                | Some e ->
                  let u, v = Edge_coding.decode ~n e in
                  (* Sanity: a genuine boundary edge has exactly one
                     endpoint inside this component. *)
                  let inside w = Conn.same uf w (List.hd vs) in
                  if inside u <> inside v then ignore (Conn.union uf u v) else attempt (c + 1)
                | None -> attempt (c + 1))
            end
          in
          attempt 0)
        members
  done;
  uf

(* Decode every vertex's sampler family from its payload and run the
   local Boruvka. *)
let decode key =
  let n = key.n and params = key.params in
  let universe = Edge_coding.universe ~n in
  let sb = sampler_bits ~n ~check_bits:params.check_bits in
  let samplers =
    Array.map
      (fun payload ->
        let bits = Chunked.to_bits payload in
        Array.mapi
          (fun k spec ->
            L0_sampler.of_bits ~universe ~check_bits:params.check_bits spec
              (String.sub bits (k * sb) sb))
          key.specs)
      key.payloads
  in
  let uf = local_components ~n params samplers in
  { components = Conn.components uf; labels = Conn.labels uf }

let make ~name ?(bandwidth = 1) ~finish_of_decoded () =
  Chunked.check_bandwidth name bandwidth;
  let rounds ~n = total_rounds ~bandwidth ~n (default_params ~n) in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let n = View.n view in
      let params = default_params ~n in
      (* Public coins: every vertex draws the same spec sequence. *)
      let coins = View.coins view in
      let specs = Array.init (params.phases * params.copies) (fun _ -> L0_sampler.fresh_spec coins) in
      let own = build_own_samplers view params specs in
      let own_bits = String.concat "" (Array.to_list (Array.map L0_sampler.to_bits own)) in
      { view;
        params;
        specs;
        own_bits;
        heard =
          Chunked.accumulators ~ports:(View.num_ports view) ~bits:(String.length own_bits) }
  in
  let step st ~round ~inbox =
    (* Collect the bits broadcast in the previous round. *)
    if round >= 2 then Chunked.absorb ~into:st.heard inbox;
    (st, Chunked.emit ~bits:st.own_bits ~bandwidth ~chunk:(round - 1))
  in
  let finish st ~inbox =
    Chunked.absorb ~into:st.heard inbox;
    let key =
      { n = View.n st.view;
        params = st.params;
        bandwidth;
        specs = st.specs;
        payloads = Chunked.payloads st.view ~own:(Chunked.of_bits st.own_bits) st.heard }
    in
    let me = Chunked.index_of_id st.view (View.id st.view) in
    finish_of_decoded st ~me (Chunked.shared memo ~equal:same_key key (fun () -> decode key))
  in
  { Algo.name;
    anonymous = false;
    bandwidth = (fun ~n:_ -> bandwidth);
    rounds;
    init;
    step;
    finish }

let connectivity ?bandwidth () =
  Algo.pack
    (make ~name:"agm-sketch-connectivity" ?bandwidth
       ~finish_of_decoded:(fun _st ~me:_ d -> d.components = 1)
       ())

let components ?bandwidth () =
  Algo.pack
    (make ~name:"agm-sketch-components" ?bandwidth
       ~finish_of_decoded:(fun st ~me d ->
         (* Label: the smallest member ID of our component. *)
         View.id_at st.view (d.labels.(me)))
       ())
