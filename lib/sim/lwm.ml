module Ints = Set.Make (Int)

type t = {
  window : int option;
  mutable low : int; (* every number below it is a member *)
  mutable above : Ints.t; (* members above [low] *)
}

let create ?window () = { window; low = 0; above = Ints.empty }

let mem t n = n < t.low || Ints.mem n t.above

(* Extend the mark over the members it now touches. *)
let rec settle t =
  if Ints.mem t.low t.above then begin
    t.above <- Ints.remove t.low t.above;
    t.low <- t.low + 1;
    settle t
  end

let advance t low =
  if low > t.low then begin
    if not (Ints.is_empty t.above) then begin
      let _, _, rest = Ints.split (low - 1) t.above in
      t.above <- rest
    end;
    t.low <- low;
    settle t
  end

let add t n =
  if mem t n then false
  else begin
    (match t.window with
     | Some w when n - t.low >= w -> advance t (n - w + 1)
     | Some _ | None -> ());
    if n = t.low then begin
      t.low <- n + 1;
      settle t
    end
    else t.above <- Ints.add n t.above;
    true
  end

let low t = t.low
let above t = Ints.elements t.above

let restore ?window ~low ~above () =
  let t = { window; low = 0; above = Ints.of_list above } in
  advance t low;
  settle t;
  t
