(* A vertex's inbox is the round's emission array plus its port row: the
   broadcast exchange is O(n) per round (one small record per vertex),
   not the O(n^2) of a per-vertex copy. *)

type 'a t = { emits : 'a array; ports : int array }

let of_emissions emits ~ports = { emits; ports }

let make len x = { emits = [| x |]; ports = Array.make len 0 }

let of_array a = { emits = a; ports = Array.init (Array.length a) Fun.id }

let length t = Array.length t.ports

let get t p = t.emits.(t.ports.(p))

let iteri f t = Array.iteri (fun p u -> f p t.emits.(u)) t.ports

let to_array t = Array.map (fun u -> t.emits.(u)) t.ports
