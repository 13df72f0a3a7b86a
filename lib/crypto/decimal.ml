(* Digits are taken from the non-positive side, where [min_int] has a
   magnitude: OCaml's [/] and [mod] truncate, so [q mod 10] is in
   [-9, 0]. *)
let length n =
  let len = ref (if n < 0 then 2 else 1) and q = ref (if n < 0 then n else -n) in
  while !q <= -10 do
    incr len;
    q := !q / 10
  done;
  !len

(* Write [n] into [b], its last digit at [stop - 1]: [length n] bytes. *)
let write b ~stop n =
  let q = ref (if n < 0 then n else -n) and i = ref stop in
  while
    decr i;
    Bytes.unsafe_set b !i (Char.unsafe_chr (48 - (!q mod 10)));
    q := !q / 10;
    !q <> 0
  do
    ()
  done;
  if n < 0 then Bytes.unsafe_set b (!i - 1) '-'

let of_int n =
  let len = length n in
  let b = Bytes.create len in
  write b ~stop:len n;
  Bytes.unsafe_to_string b

let fields a b rest =
  let la = length a and lb = length b in
  let r = Bytes.create (la + 1 + lb + 1 + String.length rest) in
  write r ~stop:la a;
  Bytes.set r la '|';
  write r ~stop:(la + 1 + lb) b;
  Bytes.set r (la + 1 + lb) '|';
  Bytes.blit_string rest 0 r (la + 1 + lb + 1) (String.length rest);
  Bytes.unsafe_to_string r
