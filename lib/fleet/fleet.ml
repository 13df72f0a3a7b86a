(* Broker-fleet partitioning: which broker serves which client.

   A deployment with N brokers splits its client population into N
   partitions.  The policy is a pure function of (seed, client key,
   broker roster), so every node of the simulation — clients picking a
   home broker, servers assigning shard ownership to a signed-up
   identity, the doctor naming the hottest partition — computes the
   same answer without any coordination messages.

   Two modes:

   - [Hash]: the home broker is a seeded integer mix of the client key
     modulo the fleet size; the failover list is the rotation starting
     at the home.  Uniform by construction, oblivious to geography.

   - [Region_affinity]: brokers are ranked by one-way latency from the
     client's region (reusing {!Repro_sim.Region.latency}); the home is
     drawn by hash among the nearest equidistant group so a popular
     region still spreads over its co-located brokers, and the failover
     list walks outward by latency.

   Liveness bookkeeping ([mark_down]/[mark_up]) mirrors what a real
   client observes through timeouts; [first_alive] is the rendezvous
   point of crash failover: the client's retry rotation and the
   server-side shard handoff both land on the same successor. *)

module Region = Repro_sim.Region

type mode = Hash | Region_affinity

type broker = {
  fb_region : Region.t;
  mutable fb_alive : bool;
  mutable fb_clients : int; (* clients currently homed on this broker *)
}

type t = {
  mode : mode;
  seed : int64;
  mutable brokers : broker array;
}

let create ?(mode = Hash) ?(seed = 42L) () = { mode; seed; brokers = [||] }

let mode t = t.mode
let size t = Array.length t.brokers

let register t ~region =
  let id = Array.length t.brokers in
  t.brokers <-
    Array.append t.brokers
      [| { fb_region = region; fb_alive = true; fb_clients = 0 } |];
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

(* Home broker plus ordered failover list.  [region] matters only in
   [Region_affinity] mode; without it the policy degrades to [Hash]. *)
let assignment t ~key ?region () =
  let n = Array.length t.brokers in
  if n = 0 then []
  else
    match (t.mode, region) with
    | Hash, _ | Region_affinity, None ->
      let home = mix t key mod n in
      List.init n (fun i -> (home + i) mod n)
    | Region_affinity, Some r ->
      let ranked =
        List.sort
          (fun a b ->
            let la = Region.latency r t.brokers.(a).fb_region
            and lb = Region.latency r t.brokers.(b).fb_region in
            if Float.equal la lb then Int.compare a b else Float.compare la lb)
          (List.init n Fun.id)
      in
      (* Spread within the nearest equidistant group by hash, so one
         popular region does not funnel onto a single broker. *)
      let nearest = Region.latency r t.brokers.(List.hd ranked).fb_region in
      let group =
        List.length
          (List.filter
             (fun i -> Float.equal (Region.latency r t.brokers.(i).fb_region) nearest)
             ranked)
      in
      let pick = mix t key mod group in
      let arr = Array.of_list ranked in
      let homed = Array.make n 0 in
      (* Rotate the nearest group so the hashed pick leads; keep the
         latency-ordered tail as the failover walk. *)
      for i = 0 to n - 1 do
        homed.(i) <-
          (if i < group then arr.((pick + i) mod group) else arr.(i))
      done;
      Array.to_list homed

let home t ~key ?region () =
  match assignment t ~key ?region () with b :: _ -> b | [] -> invalid_arg "Fleet.home: empty fleet"

(* The broker a [key]-client should be talking to right now: the first
   alive entry of its failover list (its home when everything is up).
   Falls back to the home broker when the whole fleet is down. *)
let first_alive t ~key ?region () =
  let order = assignment t ~key ?region () in
  match List.find_opt (fun b -> t.brokers.(b).fb_alive) order with
  | Some b -> b
  | None -> home t ~key ?region ()

(* --- partition-load accounting (doctor / rebalance probes) ------------- *)

let note_client t b = t.brokers.(b).fb_clients <- t.brokers.(b).fb_clients + 1

let hottest t =
  let best = ref (-1) and load = ref min_int in
  Array.iteri
    (fun i b -> if b.fb_clients > !load then begin best := i; load := b.fb_clients end)
    t.brokers;
  if !best < 0 then None else Some (!best, !load)
