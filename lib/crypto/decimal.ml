(* Digits are taken from the non-positive side, where [min_int] has a
   magnitude: OCaml's [/] and [mod] truncate, so [q mod 10] is in
   [-9, 0]. *)
let of_int n =
  let neg = n < 0 in
  let m = if neg then n else -n in
  let len = ref (if neg then 2 else 1) and q = ref m in
  while !q <= -10 do
    incr len;
    q := !q / 10
  done;
  let b = Bytes.create !len in
  q := m;
  for i = !len - 1 downto Bool.to_int neg do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!q mod 10)));
    q := !q / 10
  done;
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b
