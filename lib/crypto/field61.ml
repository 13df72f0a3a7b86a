type t = int

let p = (1 lsl 61) - 1

let zero = 0
let one = 1
let two = 2

(* Reduce a value in [0, 2^62) to canonical form using the Mersenne
   identity 2^61 = 1 (mod p): fold the top bit(s) back into the bottom. *)
let fold62 x =
  let x = (x land p) + (x lsr 61) in
  if x >= p then x - p else x

let of_int n =
  let r = n mod p in
  if r < 0 then r + p else r

let to_int x = x

let equal = Int.equal
let compare = Int.compare

let add a b = fold62 (a + b)

let sub a b = if a >= b then a - b else a - b + p

(* a, b < 2^61.  Split a = ah*2^31 + al and b = bh*2^31 + bl with
   ah, bh < 2^30 and al, bl < 2^31.  Then
     a*b = ah*bh*2^62 + (ah*bl + al*bh)*2^31 + al*bl
   and modulo p: 2^62 = 2 and, writing mid = ah*bl + al*bh = mh*2^30 + ml
   (mh < 2^32, ml < 2^30), mid*2^31 = mh*2^61 + ml*2^31 = mh + ml*2^31.
   Every partial product fits a 63-bit native int. *)
let mul a b =
  let ah = a lsr 31 and al = a land 0x7FFF_FFFF in
  let bh = b lsr 31 and bl = b land 0x7FFF_FFFF in
  let hi = fold62 (2 * ah * bh) in
  let mid = (ah * bl) + (al * bh) in
  let mh = mid lsr 30 and ml = mid land 0x3FFF_FFFF in
  let mid' = fold62 (mh + (ml lsl 31)) in
  let lo = fold62 (al * bl) in
  add (add hi mid') lo

let mul_slow a b =
  let rec go acc a b = if b = 0 then acc else go (if b land 1 = 1 then add acc a else acc) (add a a) (b lsr 1) in
  go 0 a b

let pow b e =
  if e < 0 then invalid_arg "Field61.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go 1 b e

let inv a =
  if a = 0 then raise Division_by_zero;
  pow a (p - 2)

(* Folds the input as 7-byte little-endian words [w], with
   [acc <- acc * 1_099_511_628_211 + w], the last word holding the 1 to
   7 bytes left over.  A 7-byte word is
   below 2^56 < p, so it is already canonical.  Every key and signature
   depends on this exact fold: a word is read with one 8-byte load and
   masked to its 7 bytes while 8 bytes remain, and assembled byte by
   byte after that. *)
let of_bytes s =
  let n = String.length s in
  let mix acc w = add (mul acc 1_099_511_628_211) w in
  let acc = ref 0 and i = ref 0 in
  while !i + 8 <= n do
    acc := mix !acc (Int64.to_int (String.get_int64_le s !i) land 0xFF_FFFF_FFFF_FFFF);
    i := !i + 7
  done;
  if !i < n then begin
    let w = ref 0 in
    for j = n - 1 downto !i do
      w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    acc := mix !acc !w
  end;
  (* Avoid mapping short inputs to zero, which would be an annoying
     degenerate group element downstream. *)
  if !acc = 0 then one else !acc

let random next64 =
  let rec draw () =
    let x = Int64.to_int (next64 ()) land ((1 lsl 61) - 1) in
    if x >= p then draw () else x
  in
  draw ()

let pp fmt x = Format.fprintf fmt "%d" x
