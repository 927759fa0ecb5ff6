open Bcclb_bcc
open Bcclb_graph
open Bcclb_sketch
open Bcclb_detsketch
module Seq = Bcclb_util.Bits.Seq

(* Deterministic connectivity via syndrome sketches (Montealegre–Todinca
   style): see the .mli for the protocol story. The public knowledge — an
   edge-status table over the coordinate universe plus a Conn structure
   over the known edges — is an immutable per-phase snapshot, a pure
   function of every phase's payloads so far. It is decoded once per run
   ({!Chunked.shared}) and held by every vertex whose own payload history
   equals the decoder's, so all vertices stay in lockstep without any
   extra communication and without n copies of the public state. *)

type params = { s0 : int; phases : int; bandwidth : int }

let field ~n = Gfp.for_universe ~universe:(Edge_coding.universe ~n)
let element_bits ~n = Gfp.element_bits (field ~n)
let default_params ~n = { s0 = 4; phases = 2; bandwidth = element_bits ~n }

let check_params params =
  if params.s0 < 1 then invalid_arg "Mt_connectivity: s0 must be positive";
  if params.phases < 1 then invalid_arg "Mt_connectivity: need at least one phase";
  Chunked.check_bandwidth "Mt_connectivity" params.bandwidth

let sparsity params k = params.s0 lsl k
let elements_of params k = Syndrome.elements_for ~s:(sparsity params k)
let payload_bits ~n params k = elements_of params k * element_bits ~n

let rounds_of_phase ~n params k =
  Chunked.rounds ~bits:(payload_bits ~n params k) ~bandwidth:params.bandwidth

let sum_over_phases params f =
  let acc = ref 0 in
  for k = 0 to params.phases - 1 do
    acc := !acc + f k
  done;
  !acc

let syndrome_bits ~n params = sum_over_phases params (payload_bits ~n params)
let total_rounds ~n params = sum_over_phases params (rounds_of_phase ~n params)

(* Public edge status, by edge coordinate. *)
let unknown = '\000'
let edge = '\001'
let nonedge = '\002'

(* The public knowledge after a phase's decode. Published once and never
   mutated again: the next phase decodes into copies, and [labels] is
   computed before publication because [Conn.find] halves paths. *)
type snapshot = { status : Bytes.t; conn : Conn.t; labels : int array }

(* A phase decode's whole input: every phase's payloads so far by sender
   index, newest first. *)
type key = { n : int; params : params; history : Seq.seq array list }

let memo : (key, snapshot) Chunked.memo = Chunked.memo ()

let same_key a b =
  a.n = b.n && a.params = b.params && List.equal Chunked.same_payloads a.history b.history

type state = {
  view : View.t;
  params : params;
  field : Gfp.t;
  me : int;
  incident : bool array;  (* my private incidence, by vertex index *)
  mutable public : snapshot option;  (* None before the first decode: nothing known *)
  mutable history : Seq.seq array list;  (* decoded phases' payloads, newest first *)
  mutable heard : Seq.seq array;  (* current phase's bits, per port *)
  mutable phase : int;
  mutable phase_start : int;  (* rounds before the current phase *)
  mutable own_bits : string;  (* current phase's payload *)
}

let status_of public coord =
  match public with None -> unknown | Some p -> Bytes.get p.status coord

(* My residual syndrome: incident edges whose status is still publicly
   unknown. The min endpoint of an edge carries weight +1, the max −1 —
   the signing that makes component sums cancel internal edges. *)
let build_payload st =
  let n = View.n st.view in
  let t = Syndrome.create ~field:st.field ~r:(elements_of st.params st.phase) in
  Array.iteri
    (fun u inc ->
      if inc then begin
        let coord = Edge_coding.encode ~n st.me u in
        if status_of st.public coord = unknown then
          Syndrome.add t ~coord ~weight:(if st.me < u then 1 else -1)
      end)
    st.incident;
  Syndrome.to_bits t

(* The public decode of one phase into [status]/[conn], given everyone's
   residual syndromes. Learning an edge subtracts it from both endpoints'
   working syndromes (they counted it as residual at phase start), which
   can unlock decodes that were over budget — the peeling cascade. *)
let process_phase ~n ~params ~field ~phase status conn syn =
  let s_k = sparsity params phase in
  let changed = ref false in
  let learn_edge coord =
    if Bytes.get status coord = unknown then begin
      Bytes.set status coord edge;
      let u, v = Edge_coding.decode ~n coord in
      ignore (Conn.union conn u v);
      Syndrome.add syn.(u) ~coord ~weight:(-1);
      Syndrome.add syn.(v) ~coord ~weight:1;
      changed := true
    end
  in
  let learn_nonedge coord =
    if Bytes.get status coord = unknown then begin
      Bytes.set status coord nonedge;
      changed := true
    end
  in
  (* Decode a syndrome against its candidate coordinates; on a verified
     decode, every candidate's status becomes public (in the support →
     edge, absent → non-edge). [expected_sign] guards the ±1 coefficient
     pattern of incidence sums; any deviation voids the whole decode. *)
  let attempt t candidates expected_sign =
    if Array.length candidates > 0 then
      match Syndrome.decode t ~s:s_k ~candidates with
      | None -> ()
      | Some support ->
        if Array.for_all (fun (coord, w) -> w = expected_sign coord) support then begin
          let in_support = Hashtbl.create (Array.length support) in
          Array.iter (fun (coord, _) -> Hashtbl.replace in_support coord ()) support;
          Array.iter
            (fun coord ->
              if Hashtbl.mem in_support coord then learn_edge coord else learn_nonedge coord)
            candidates
        end
  in
  let pass () =
    changed := false;
    (* Per-vertex recovery: v's residual support is exactly its unknown
       incident edges, so a success also certifies all its other unknown
       pairs as non-edges. *)
    for v = 0 to n - 1 do
      let candidates = ref [] in
      for u = n - 1 downto 0 do
        if u <> v then begin
          let coord = Edge_coding.encode ~n u v in
          if Bytes.get status coord = unknown then candidates := coord :: !candidates
        end
      done;
      let candidates = Array.of_list !candidates in
      attempt syn.(v) candidates (fun coord ->
          let u, _ = Edge_coding.decode ~n coord in
          if u = v then 1 else -1)
    done;
    (* Component-cut recovery (sketch-Borůvka): summing a component's
       residual syndromes cancels its internal edges, leaving exactly the
       unknown outgoing cut. *)
    let members = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let root = Conn.find conn v in
      Hashtbl.replace members root (v :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    if Hashtbl.length members > 1 then
      Hashtbl.iter
        (fun _root vs ->
          let in_c = Array.make n false in
          List.iter (fun v -> in_c.(v) <- true) vs;
          let merged = Syndrome.create ~field ~r:(elements_of params phase) in
          List.iter (fun v -> Syndrome.merge_into ~into:merged syn.(v)) vs;
          let candidates = ref [] in
          List.iter
            (fun v ->
              for u = 0 to n - 1 do
                if not in_c.(u) then begin
                  let coord = Edge_coding.encode ~n u v in
                  if Bytes.get status coord = unknown then candidates := coord :: !candidates
                end
              done)
            vs;
          attempt merged (Array.of_list !candidates) (fun coord ->
              let u, _ = Edge_coding.decode ~n coord in
              if in_c.(u) then 1 else -1))
        members
  in
  pass ();
  while !changed do
    pass ()
  done

(* The phase decode from the previous snapshot and everyone's payloads
   for the phase, into a fresh snapshot. *)
let decode ~n ~params ~field ~phase public payloads =
  let r = elements_of params phase in
  let syn = Array.map (fun p -> Syndrome.of_bits ~field ~r (Chunked.to_bits p)) payloads in
  let status, conn =
    match public with
    | None -> (Bytes.make (Edge_coding.universe ~n) unknown, Conn.create n)
    | Some p -> (Bytes.copy p.status, Conn.copy p.conn)
  in
  process_phase ~n ~params ~field ~phase status conn syn;
  { status; conn; labels = Conn.labels conn }

(* Close the current phase: key it by the whole payload history, and
   decode only if this domain has not already decoded that history. *)
let finish_phase st =
  let n = View.n st.view in
  let history = Chunked.payloads st.view ~own:(Chunked.of_bits st.own_bits) st.heard :: st.history in
  let key = { n; params = st.params; history } in
  let snapshot =
    Chunked.shared memo ~equal:same_key key (fun () ->
        decode ~n ~params:st.params ~field:st.field ~phase:st.phase st.public (List.hd history))
  in
  st.public <- Some snapshot;
  st.history <- history;
  snapshot

let make ~name ?params ~finish_of_snapshot () =
  let params_for ~n = match params with Some p -> p | None -> default_params ~n in
  let bandwidth ~n = (params_for ~n).bandwidth in
  let rounds ~n = total_rounds ~n (params_for ~n) in
  let heard_for view params phase =
    Chunked.accumulators ~ports:(View.num_ports view)
      ~bits:(payload_bits ~n:(View.n view) params phase)
  in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let n = View.n view in
      let params = params_for ~n in
      check_params params;
      let incident = Array.make n false in
      List.iter
        (fun p -> incident.(Chunked.index_of_id view (View.neighbor_id view p)) <- true)
        (View.input_ports view);
      let st =
        { view;
          params;
          field = field ~n;
          me = Chunked.index_of_id view (View.id view);
          incident;
          public = None;
          history = [];
          heard = heard_for view params 0;
          phase = 0;
          phase_start = 0;
          own_bits = "" }
      in
      st.own_bits <- build_payload st;
      st
  in
  let step st ~round ~inbox =
    if round >= 2 then Chunked.absorb ~into:st.heard inbox;
    let n = View.n st.view in
    if round > st.phase_start + rounds_of_phase ~n st.params st.phase then begin
      (* First round of the next phase: the inbox we just absorbed
         completed the previous phase's payloads. Take the public decode,
         then sketch what is still unknown. The old accumulators now
         belong to the history, so the new phase gets fresh ones. *)
      ignore (finish_phase st);
      st.phase_start <- st.phase_start + rounds_of_phase ~n st.params st.phase;
      st.phase <- st.phase + 1;
      st.own_bits <- build_payload st;
      st.heard <- heard_for st.view st.params st.phase
    end;
    ( st,
      Chunked.emit ~bits:st.own_bits ~bandwidth:st.params.bandwidth
        ~chunk:(round - st.phase_start - 1) )
  in
  let finish st ~inbox =
    Chunked.absorb ~into:st.heard inbox;
    finish_of_snapshot st (finish_phase st)
  in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish }

let connectivity ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-connectivity" ?params
       ~finish_of_snapshot:(fun _st snap -> Conn.components snap.conn = 1)
       ())

let components ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-components" ?params
       ~finish_of_snapshot:(fun st snap -> View.id_at st.view (snap.labels.(st.me)))
       ())
