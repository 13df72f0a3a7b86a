let quorum_f n = (n - 1) / 3

(* One bit per voter and the running count: adding a vote and reading the
   count are O(1) and allocate nothing, whatever the committee size. *)

type t = { n : int; bits : Bytes.t; mutable count : int }

let create n = { n; bits = Bytes.make ((n + 7) / 8) '\000'; count = 0 }

let add t voter =
  if voter < 0 || voter >= t.n then invalid_arg "Tally.add";
  let byte = voter lsr 3 and mask = 1 lsl (voter land 7) in
  let b = Char.code (Bytes.unsafe_get t.bits byte) in
  if b land mask = 0 then begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (b lor mask));
    t.count <- t.count + 1
  end

let count t = t.count

let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.count <- 0
