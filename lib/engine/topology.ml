(* Message-exchange topologies: how one round's emissions become the next
   round's inboxes. The engine is agnostic; each simulated model plugs in
   the exchange it needs. *)

type ('emit, 'inbox) t = round:int -> prev:'inbox array -> 'emit array -> 'inbox array

let broadcast ~n ~ports =
  let rows = Array.init n ports in
  fun ~round:_ ~prev:_ emits -> Array.map (fun ports -> Inbox.of_emissions emits ~ports) rows

let unicast ~n ~peer ~port_to ~round:_ ~prev:_ emits =
  (* Vertex u hears, on its port q, what the peer v sent through v's port
     toward u. *)
  Array.init n (fun u ->
      Array.init (n - 1) (fun q ->
          let v = peer u q in
          emits.(v).(port_to v u)))

let two_party ~round:_ ~prev emits =
  if Array.length emits <> 2 then invalid_arg "Topology.two_party: exactly two parties required";
  [| emits.(1) :: prev.(0); emits.(0) :: prev.(1) |]
