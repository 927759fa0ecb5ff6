(* One cell per element: value >= 0 is a parent pointer, value < 0 is a
   root holding rank = -value - 1 (a fresh cell is -1, rank 0). *)

type t = { cells : int array; mutable components : int }

let rank_repr rank = -rank - 1
let repr_rank v = -v - 1

let create n =
  if n < 0 then invalid_arg "Conn.create: negative size";
  { cells = Array.make n (rank_repr 0); components = n }

let size t = Array.length t.cells

let copy t = { cells = Array.copy t.cells; components = t.components }

let components t = t.components

(* Path halving: swing x past its parent to its grandparent, then
   continue from the grandparent. *)
let rec find t x =
  let px = t.cells.(x) in
  if px < 0 then x
  else begin
    let gx = t.cells.(px) in
    if gx < 0 then px
    else begin
      t.cells.(x) <- gx;
      find t gx
    end
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then false
  else begin
    let kx = repr_rank t.cells.(rx) and ky = repr_rank t.cells.(ry) in
    if kx < ky then t.cells.(rx) <- ry
    else if ky < kx then t.cells.(ry) <- rx
    else begin
      (* Equal ranks: attach the larger index under the smaller. *)
      let winner = min rx ry and loser = max rx ry in
      t.cells.(loser) <- winner;
      t.cells.(winner) <- rank_repr (kx + 1)
    end;
    t.components <- t.components - 1;
    true
  end

let same t x y = find t x = find t y

(* Ascending scan: the first member met in each set is its smallest. *)
let labels t =
  let n = size t in
  let label_of_root = Array.make n (-1) in
  Array.init n (fun v ->
      let r = find t v in
      if label_of_root.(r) < 0 then label_of_root.(r) <- v;
      label_of_root.(r))
