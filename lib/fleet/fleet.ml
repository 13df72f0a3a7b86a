(* Broker-fleet partitioning: which broker serves which client.

   A deployment with N brokers splits its client population into N
   partitions.  The policy is a pure function of (seed, client key,
   broker roster), so every node of the simulation — clients picking a
   home broker, servers assigning shard ownership to a signed-up
   identity, the doctor naming the hottest partition — computes the
   same answer without any coordination messages.

   The home broker is a seeded integer mix of the client key modulo the
   fleet size; the failover list is the rotation starting at the home.
   Uniform by construction, oblivious to geography.

   Liveness bookkeeping ([mark_down]/[mark_up]) mirrors what a real
   client observes through timeouts; [first_alive] is the rendezvous
   point of crash failover: the client's retry rotation and the
   server-side shard handoff both land on the same successor. *)

type mode = Hash

type broker = {
  mutable fb_alive : bool;
  mutable fb_clients : int; (* clients currently homed on this broker *)
}

type t = { seed : int64; mutable brokers : broker array }

let create ?(seed = 42L) () = { seed; brokers = [||] }

let size t = Array.length t.brokers

let register t =
  let id = Array.length t.brokers in
  t.brokers <- Array.append t.brokers [| { fb_alive = true; fb_clients = 0 } |];
  id

let alive t i = t.brokers.(i).fb_alive
let mark_down t i = t.brokers.(i).fb_alive <- false
let mark_up t i = t.brokers.(i).fb_alive <- true

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
  let n = Array.length t.brokers in
  if n = 0 then []
  else
    let home = mix t key mod n in
    List.init n (fun i -> (home + i) mod n)

let home t ~key () =
  match assignment t ~key () with b :: _ -> b | [] -> invalid_arg "Fleet.home: empty fleet"

(* The broker a [key]-client should be talking to right now: the first
   alive entry of its failover list (its home when everything is up).
   Falls back to the home broker when the whole fleet is down. *)
let first_alive t ~key () =
  let order = assignment t ~key () in
  match List.find_opt (fun b -> t.brokers.(b).fb_alive) order with
  | Some b -> b
  | None -> home t ~key ()

(* --- partition-load accounting (doctor / rebalance probes) ------------- *)

let note_client t b = t.brokers.(b).fb_clients <- t.brokers.(b).fb_clients + 1

let hottest t =
  let best = ref (-1) and load = ref min_int in
  Array.iteri
    (fun i b -> if b.fb_clients > !load then begin best := i; load := b.fb_clients end)
    t.brokers;
  if !best < 0 then None else Some (!best, !load)
