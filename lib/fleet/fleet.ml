(* Broker-fleet partitioning: which broker serves which client.

   A deployment with N brokers splits its client population into N
   partitions.  The policy is a pure function of (seed, client key,
   broker roster), so every node of the simulation — clients picking a
   home broker, the doctor naming the hottest partition — computes the
   same answer without any coordination messages.  Partitioning homes
   clients only: every broker reads the one Rank directory, so any broker
   can serve any signed-up client.

   The home broker is a seeded integer mix of the client key modulo the
   fleet size; the failover list is the rotation starting at the home.
   Uniform by construction, oblivious to geography. *)

type mode = Hash

type t = {
  seed : int64;
  mutable homed : int array; (* clients homed on each broker *)
}

let create ?(seed = 42L) () = { seed; homed = [||] }

let size t = Array.length t.homed

let register t =
  let id = Array.length t.homed in
  t.homed <- Array.append t.homed [| 0 |];
  id

(* SplitMix64 finalizer over (seed, key): the same avalanche every
   component of the simulation can recompute locally.  The result is
   truncated to a non-negative OCaml int. *)
let mix t key =
  let open Int64 in
  let z = add t.seed (mul (of_int (key + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  (* Drop the top two bits: OCaml's native int is 63-bit, so [to_int] of
     anything >= 2^62 would wrap negative. *)
  to_int (shift_right_logical z 2)

(* Home broker plus ordered failover list. *)
let assignment t ~key () =
  let n = Array.length t.homed in
  if n = 0 then []
  else
    let home = mix t key mod n in
    List.init n (fun i -> (home + i) mod n)

let home t ~key () =
  match assignment t ~key () with b :: _ -> b | [] -> invalid_arg "Fleet.home: empty fleet"

(* --- partition-load accounting (doctor / rebalance probes) ------------- *)

let note_client t b = t.homed.(b) <- t.homed.(b) + 1

let hottest t =
  let best = ref (-1) and load = ref min_int in
  Array.iteri
    (fun i n -> if n > !load then begin best := i; load := n end)
    t.homed;
  if !best < 0 then None else Some (!best, !load)
