(* A multiply carries low key bits up, never high ones down, and the
   table picks a bucket by the low bits of the hash: fold the key's high
   half onto its low half, multiply, then fold the product's high bits
   back down.  The multiplier is odd, so the multiply loses no key
   bits. *)
let hash k =
  let h = (k lxor (k lsr 32)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash
end)
