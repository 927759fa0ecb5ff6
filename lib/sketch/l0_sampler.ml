open Bcclb_util

(* GF(2) ℓ₀-samplers for XOR-mergeable edge sketches (Ahn–Guha–McGregor
   style, over the two-element field, which suffices for incidence
   vectors: an edge internal to a vertex set appears in exactly two
   member sketches and cancels, a boundary edge survives).

   A sampler has ⌈log₂ N⌉ + 1 geometric levels; level ℓ keeps only
   coordinates e with h(e) having ℓ leading sampled bits (probability
   2^{-ℓ}). Per level it stores three XOR-aggregates of the surviving
   coordinates: parity of their count, XOR of their ids, and XOR of a
   checksum hash of their ids. A level holding exactly one survivor has
   parity 1 and a consistent checksum, and then the id is read off
   directly; a level with ≥ 2 survivors passes the parity test only with
   an odd count and then fails the checksum with high probability.

   All hash functions are drawn from the shared public-coin stream, so
   every vertex of a BCC algorithm builds IDENTICAL samplers and sketch
   merging is plain XOR — the property the broadcast model needs. *)

type hash_spec = { a : int; b : int; a2 : int; b2 : int }

type t = {
  n_universe : int;
  levels : int;
  check_bits : int;
  spec : hash_spec;
  parity : Bytes.t;  (* one bit per level, stored as bytes for clarity *)
  xor_ids : int array;
  xor_checks : int array;
}

let prime = 2147483647

let fresh_spec rng =
  { a = 1 + Rng.int rng (prime - 1);
    b = Rng.int rng prime;
    a2 = 1 + Rng.int rng (prime - 1);
    b2 = Rng.int rng prime }

let equal_spec (x : hash_spec) y = x = y

let levels_for ~universe = Mathx.ceil_log2 (max 2 universe) + 1

let create ~universe ~check_bits spec =
  if universe <= 0 then invalid_arg "L0_sampler.create: empty universe";
  let levels = levels_for ~universe in
  { n_universe = universe;
    levels;
    check_bits;
    spec;
    parity = Bytes.make levels '\000';
    xor_ids = Array.make levels 0;
    xor_checks = Array.make levels 0 }

let level_of t e =
  (* Number of leading "sampled" decisions: geometric with ratio 1/2,
     derived from a pairwise-ish hash. *)
  let h = (((t.spec.a * e) + t.spec.b) mod prime) land max_int in
  let rec count lvl h = if lvl >= t.levels - 1 || h land 1 = 1 then lvl else count (lvl + 1) (h lsr 1) in
  count 0 h

let checksum t e = (((t.spec.a2 * e) + t.spec.b2) mod prime) land ((1 lsl t.check_bits) - 1)

(* Toggle coordinate e (add over GF(2)). An item at level ℓ is present in
   levels 0..ℓ (prefix design), so updates touch a prefix. *)
let toggle t e =
  if e < 0 || e >= t.n_universe then invalid_arg "L0_sampler.toggle: coordinate out of range";
  let lvl = level_of t e in
  let c = checksum t e in
  for l = 0 to lvl do
    Bytes.set t.parity l (Char.chr (Char.code (Bytes.get t.parity l) lxor 1));
    t.xor_ids.(l) <- t.xor_ids.(l) lxor e;
    t.xor_checks.(l) <- t.xor_checks.(l) lxor c
  done

let copy t =
  { t with
    parity = Bytes.copy t.parity;
    xor_ids = Array.copy t.xor_ids;
    xor_checks = Array.copy t.xor_checks }

let merge_into ~into t =
  if into.n_universe <> t.n_universe || into.levels <> t.levels then
    invalid_arg "L0_sampler.merge_into: incompatible samplers";
  for l = 0 to into.levels - 1 do
    Bytes.set into.parity l
      (Char.chr (Char.code (Bytes.get into.parity l) lxor Char.code (Bytes.get t.parity l)));
    into.xor_ids.(l) <- into.xor_ids.(l) lxor t.xor_ids.(l);
    into.xor_checks.(l) <- into.xor_checks.(l) lxor t.xor_checks.(l)
  done

let merge a b =
  let r = copy a in
  merge_into ~into:r b;
  r

(* Scan levels from sparsest (deepest) to densest; accept the first level
   that looks one-sparse and verifies. *)
let sample t =
  let rec scan l =
    if l < 0 then None
    else if
      Char.code (Bytes.get t.parity l) = 1
      && t.xor_ids.(l) >= 0
      && t.xor_ids.(l) < t.n_universe
      && checksum t t.xor_ids.(l) = t.xor_checks.(l)
      && level_of t t.xor_ids.(l) >= l
    then Some t.xor_ids.(l)
    else scan (l - 1)
  in
  scan (t.levels - 1)

let is_zero t =
  let rec go l = l >= t.levels || (Char.code (Bytes.get t.parity l) = 0 && t.xor_ids.(l) = 0 && go (l + 1)) in
  go 0

(* Bit-serialisation, for broadcasting sketches in BCC(1): per level,
   1 parity bit + id bits + check bits. *)
let bits_per_level ~universe ~check_bits = 1 + Mathx.ceil_log2 (max 2 universe) + check_bits

let serialized_bits t = t.levels * bits_per_level ~universe:t.n_universe ~check_bits:t.check_bits

let to_bits t =
  let idb = Mathx.ceil_log2 (max 2 t.n_universe) in
  let buf = Buffer.create (serialized_bits t) in
  for l = 0 to t.levels - 1 do
    Buffer.add_char buf (if Char.code (Bytes.get t.parity l) = 1 then '1' else '0');
    for i = idb - 1 downto 0 do
      Buffer.add_char buf (if (t.xor_ids.(l) lsr i) land 1 = 1 then '1' else '0')
    done;
    for i = t.check_bits - 1 downto 0 do
      Buffer.add_char buf (if (t.xor_checks.(l) lsr i) land 1 = 1 then '1' else '0')
    done
  done;
  Buffer.contents buf

let of_bits ~universe ~check_bits spec s =
  let t = create ~universe ~check_bits spec in
  let idb = Mathx.ceil_log2 (max 2 universe) in
  let per = bits_per_level ~universe ~check_bits in
  if String.length s <> t.levels * per then invalid_arg "L0_sampler.of_bits: length mismatch";
  let bit i = s.[i] = '1' in
  for l = 0 to t.levels - 1 do
    let base = l * per in
    Bytes.set t.parity l (if bit base then '\001' else '\000');
    let id = ref 0 in
    for i = 0 to idb - 1 do
      id := (!id lsl 1) lor (if bit (base + 1 + i) then 1 else 0)
    done;
    t.xor_ids.(l) <- !id;
    let c = ref 0 in
    for i = 0 to check_bits - 1 do
      c := (!c lsl 1) lor (if bit (base + 1 + idb + i) then 1 else 0)
    done;
    t.xor_checks.(l) <- !c
  done;
  t
