(* Dynamic membership (ROADMAP item 5).

   The paper evaluates a static deployment; here membership is a
   first-class *ordered* command: a [change] rides the STOB as a
   {!Stob_item.Reconfigure} item, so every correct server applies the
   same change at the same position in the total order and rolls its
   active set, multisig committee and quorum thresholds forward
   deterministically.

   A deployment is created with [capacity] machine slots of which the
   first [initial] are active; the rest are spares that can [Join]
   later.  [Leave] deactivates a slot; [Replace] installs a fresh
   identity (new key generation) in an existing slot.  Thresholds are
   functions of the *active* count: f = (active - 1) / 3, quorum =
   f + 1, exactly the paper's constants evaluated against the current
   epoch's committee. *)

type change =
  | Join of int (* slot *)
  | Leave of int
  | Replace of int * int (* slot, new key generation *)

type t = {
  capacity : int;
  initial : int; (* slots [0, initial) are active at epoch 0 *)
  active : bool array;
  generation : int array;
  mutable epoch : int;
}

let create ~capacity ~initial =
  if initial <= 0 || initial > capacity then invalid_arg "Membership.create";
  { capacity; initial;
    active = Array.init capacity (fun i -> i < initial);
    generation = Array.make capacity 0;
    epoch = 0 }

let capacity t = t.capacity
let epoch t = t.epoch
let is_active t i = i >= 0 && i < t.capacity && t.active.(i)
let generation t i = t.generation.(i)

let active_count t =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.active

let active_slots t =
  List.filter (fun i -> t.active.(i)) (List.init t.capacity Fun.id)

(* The first active slot other than [skip], walking the ring of slots
   from [from]; [None] when there is none.  Callers pick peers with it:
   spares have nothing to serve and a departed member may be gone. *)
let next_active t ~from ~skip =
  let rec walk c tries =
    if tries = 0 then None
    else if t.active.(c) && skip <> Some c then Some c
    else walk ((c + 1) mod t.capacity) (tries - 1)
  in
  walk from t.capacity

let f t = (active_count t - 1) / 3
let quorum t = f t + 1

(* Idempotence guard: the same ordered command may reach a server twice
   (live delivery and then again through WAL replay or state transfer),
   so a change that would not alter the state is a no-op.  A [Replace]
   is fresh only if its generation is strictly newer. *)
let applies t = function
  | Join i -> i >= 0 && i < t.capacity && not t.active.(i)
  | Leave i -> is_active t i
  | Replace (i, gen) -> i >= 0 && i < t.capacity && gen > t.generation.(i)

let apply t c =
  if not (applies t c) then false
  else begin
    (match c with
     | Join i -> t.active.(i) <- true
     | Leave i -> t.active.(i) <- false
     | Replace (i, gen) ->
       t.generation.(i) <- gen;
       t.active.(i) <- true);
    t.epoch <- t.epoch + 1;
    true
  end

(* Back to the epoch-0 state — the starting point of a cold restart,
   before the checkpoint and WAL roll the membership forward again. *)
let reset t =
  for i = 0 to t.capacity - 1 do
    t.active.(i) <- i < t.initial;
    t.generation.(i) <- 0
  done;
  t.epoch <- 0

(* Checkpoint representation: epoch plus one (active, generation) pair
   per slot, in slot order. *)
let snapshot t =
  (t.epoch,
   List.init t.capacity (fun i -> (t.active.(i), t.generation.(i))))

let restore t (epoch, members) =
  List.iteri
    (fun i (a, g) ->
      if i < t.capacity then begin
        t.active.(i) <- a;
        t.generation.(i) <- g
      end)
    members;
  t.epoch <- epoch

let describe = function
  | Join i -> Printf.sprintf "join server %d" i
  | Leave i -> Printf.sprintf "leave server %d" i
  | Replace (i, gen) -> Printf.sprintf "replace server %d (gen %d)" i gen
