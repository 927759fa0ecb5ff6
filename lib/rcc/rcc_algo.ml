open Bcclb_bcc

(* The range-parameterised congested clique of Becker et al. [Bec+16],
   described in the paper's §1.3: in each round a vertex may send at most
   [range] DISTINCT messages across its n-1 ports (silence not counted).
   range = 1 is exactly the broadcast model BCC(b); range = n-1 is the
   full congested clique CC(b). The paper cites the fact that problems
   can be provably sensitive to every increment of the range. *)

type ('s, 'o) t = {
  name : string;
  bandwidth : n:int -> int;
  range : n:int -> int;
  rounds : n:int -> int;
  init : View.t -> 's;
  step : 's -> round:int -> inbox:Msg.t array -> 's * Msg.t array;
      (* One message per port; at most [range ~n] distinct non-silent
         values among them. *)
  finish : 's -> inbox:Msg.t array -> 'o;
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed

let pack a = Packed a

let name (Packed a) = a.name
let rounds (Packed a) ~n = a.rounds ~n
let range (Packed a) ~n = a.range ~n

let distinct_messages msgs =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun m ->
      match m with
      | Msg.Silent -> ()
      | Msg.Word w -> Hashtbl.replace seen (Bcclb_util.Bits.width w, Bcclb_util.Bits.value w) ())
    msgs;
  Hashtbl.length seen

(* Every broadcast algorithm is a range-1 algorithm. *)
let of_broadcast (Algo.Packed a) =
  Packed
    { name = a.Algo.name;
      bandwidth = a.Algo.bandwidth;
      range = (fun ~n:_ -> 1);
      rounds = a.Algo.rounds;
      init = a.Algo.init;
      step =
        (fun s ~round ~inbox ->
          let s', msg = a.Algo.step s ~round ~inbox:(Inbox.of_array inbox) in
          (s', Array.make (Array.length inbox) msg));
      finish = (fun s ~inbox -> a.Algo.finish s ~inbox:(Inbox.of_array inbox)) }
