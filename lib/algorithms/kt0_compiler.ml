open Bcclb_bcc

(* The knowledge translation of §1.1: "if the bandwidth b = Omega(log n)
   there is essentially no distinction between the KT-0 and KT-1 versions
   since each node can send its ID to neighbours in constant rounds".
   Executable form, for any b >= 1: compile a KT-1 algorithm into a KT-0
   algorithm by prepending an ID-learning phase of ceil(L / b) rounds
   (L = id bits) in which every vertex broadcasts its ID; each vertex
   then knows the ID behind every port and hands the inner algorithm a
   synthesised KT-1 view. The cost of knowledge is an ADDITIVE
   O(log n / b) rounds — which is why the paper's KT-1 lower bounds are
   the stronger ones.

   The synthesised view keeps the instance's true (arbitrary) port
   wiring; KT-1 algorithms only ever rely on knowing the ID behind each
   port, never on the ID-sorted wiring convention, so they run unchanged. *)

type ('s, 'v) phase = Learning of Msg.t Inbox.t list (* inboxes, newest first *) | Running of 's

type ('s, 'v) state = { view : View.t; l : int; chunk : int; phase : ('s, 'v) phase }

let compile (Algo.Packed a) =
  let name = Printf.sprintf "kt0[%s]" a.Algo.name in
  let bandwidth ~n = max 1 (a.Algo.bandwidth ~n) in
  let learn_rounds ~n =
    let l = Codec.id_width ~n in
    let b = bandwidth ~n in
    (l + b - 1) / b
  in
  let rounds ~n = learn_rounds ~n + a.Algo.rounds ~n in
  let init view =
    (match View.kt1 view with
    | Some _ -> invalid_arg (name ^ ": expects a KT-0 instance")
    | None -> ());
    let n = View.n view in
    { view; l = Codec.id_width ~n; chunk = bandwidth ~n; phase = Learning [] }
  in
  (* Broadcast own ID in big-endian chunks of [chunk] bits (the last
     chunk may be shorter). *)
  let id_chunk st ~round =
    let sent = (round - 1) * st.chunk in
    let width = min st.chunk (st.l - sent) in
    let value = (View.id st.view lsr (st.l - sent - width)) land ((1 lsl width) - 1) in
    Msg.of_int ~width value
  in
  let synthesize st inboxes =
    (* Reassemble each port's ID from the learning-phase broadcasts. *)
    let num_ports = View.num_ports st.view in
    let neighbor_ids =
      Array.init num_ports (fun p ->
          List.fold_left
            (fun acc inbox ->
              match Inbox.get inbox p with
              | Msg.Silent -> acc
              | Msg.Word w -> (acc lsl Bcclb_util.Bits.width w) lor Bcclb_util.Bits.value w)
            0 (List.rev inboxes))
    in
    let all = Array.append [| View.id st.view |] neighbor_ids in
    Array.sort Int.compare all;
    { st.view with View.kt1 = Some { View.all_ids = all; neighbor_ids } }
  in
  let step st ~round ~inbox =
    let lr = learn_rounds ~n:(View.n st.view) in
    match st.phase with
    | Learning inboxes ->
      if round <= lr then
        (* Still broadcasting ID chunks; inboxes of rounds 2..lr carry
           the chunks of rounds 1..lr-1. *)
        ({ st with phase = Learning (inbox :: inboxes) }, id_chunk st ~round)
      else begin
        (* First inner round: [inbox] carries the final ID chunks. *)
        let kt1_view = synthesize st (inbox :: inboxes) in
        let inner = a.Algo.init kt1_view in
        let silent = Inbox.make (View.num_ports st.view) Msg.silent in
        let inner', msg = a.Algo.step inner ~round:1 ~inbox:silent in
        ({ st with phase = Running inner' }, msg)
      end
    | Running inner ->
      let inner', msg = a.Algo.step inner ~round:(round - lr) ~inbox in
      ({ st with phase = Running inner' }, msg)
  in
  let finish st ~inbox =
    match st.phase with
    | Running inner -> a.Algo.finish inner ~inbox
    | Learning inboxes ->
      (* Degenerate: the inner algorithm declared zero rounds. Initialise
         and finish immediately. *)
      let kt1_view = synthesize st (inbox :: inboxes) in
      let inner = a.Algo.init kt1_view in
      a.Algo.finish inner ~inbox:(Inbox.make (View.num_ports st.view) Msg.silent)
  in
  Algo.pack { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish }

let learning_rounds ~n ~bandwidth =
  let l = Codec.id_width ~n in
  (l + max 1 bandwidth - 1) / max 1 bandwidth
