(* lib/fleet tests: the partitioning policy is a deterministic pure
   function of (seed, key, roster); shard directories merge back into the
   monolithic Rank; a 1-broker fleet is a bit-identical no-op against the
   legacy nearest-first routing; crash failover re-routes clients onto
   the rendezvous successor (with the shard handed off to the same
   place); and the servers' round-robin witness checks stop a flooded
   partition from starving its siblings. *)

module Engine = Repro_sim.Engine
module Rng = Repro_sim.Rng
module Trace = Repro_trace.Trace
module Deployment = Repro_chopchop.Deployment
module Client = Repro_chopchop.Client
module Directory = Repro_chopchop.Directory
module Types = Repro_chopchop.Types
module Fleet = Repro_fleet.Fleet
module Spam = Repro_workload.Spam

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fleet_of ?(seed = 42L) n =
  let fl = Fleet.create ~seed () in
  for _ = 1 to n do
    ignore (Fleet.register fl)
  done;
  fl

(* --- the policy ------------------------------------------------------- *)

let test_deterministic_assignment () =
  let a = fleet_of 4 and b = fleet_of 4 in
  for key = 0 to 199 do
    Alcotest.(check (list int))
      (Printf.sprintf "key %d assignment is seed-determined" key)
      (Fleet.assignment a ~key ()) (Fleet.assignment b ~key ())
  done;
  (* Every broker is somebody's home: the hash spreads. *)
  let hit = Array.make 4 false in
  for key = 0 to 199 do
    let h = Fleet.home a ~key () in
    checkb "home is in range" true (h >= 0 && h < 4);
    hit.(h) <- true
  done;
  Array.iteri
    (fun i h -> checkb (Printf.sprintf "broker %d gets some home" i) true h)
    hit

let test_assignment_permutation () =
  let fl = fleet_of 5 in
  for key = 0 to 49 do
    let order = Fleet.assignment fl ~key () in
    checki "covers the whole roster" 5 (List.length order);
    Alcotest.(check (list int))
      "failover list is a permutation" [ 0; 1; 2; 3; 4 ]
      (List.sort compare order);
    checki "home leads the list" (Fleet.home fl ~key ()) (List.hd order)
  done

let test_seed_sensitivity () =
  let a = fleet_of ~seed:42L 4 and b = fleet_of ~seed:43L 4 in
  let diff = ref 0 in
  for key = 0 to 99 do
    if Fleet.home a ~key () <> Fleet.home b ~key () then incr diff
  done;
  checkb "different seeds shuffle the partition" true (!diff > 0)

(* --- shard directories ------------------------------------------------ *)

let test_shard_merge_monolithic () =
  let dense = 16 in
  let mono = Directory.create ~dense_count:dense () in
  let cards =
    List.init 6 (fun i ->
        (Types.keypair_of_seed (Printf.sprintf "fleet-card-%d" i)).Types.card)
  in
  let ids = List.map (Directory.append mono) cards in
  let shards = [ Directory.create_shard mono; Directory.create_shard mono ] in
  List.iteri
    (fun i (id, card) ->
      Directory.shard_insert (List.nth shards (i mod 2)) ~id card)
    (List.combine ids cards);
  let merged = Directory.merge_shards mono shards in
  checki "merged size equals monolithic" (Directory.size mono)
    (Directory.size merged);
  List.iter2
    (fun id card ->
      checkb
        (Printf.sprintf "id %d resolves to the same card" id)
        true
        (Directory.find merged id = Some card
        && Directory.find mono id = Some card))
    ids cards;
  (* Dense identities resolve identically through shard views too. *)
  let sh = List.hd shards in
  checkb "dense id resolves through the shard" true
    (Directory.shard_find sh 3 = Directory.find mono 3)

let test_shard_dense_guard () =
  let sh = Directory.create_shard (Directory.create ~dense_count:8 ()) in
  let card = (Types.keypair_of_seed "dense-guard").Types.card in
  Alcotest.check_raises "dense ids are never re-ranked"
    (Invalid_argument "Directory.shard_insert: dense ids are derived, not stored")
    (fun () ->
      Directory.shard_insert sh ~id:3 card);
  Directory.shard_insert sh ~id:8 card;
  checkb "explicit id inserted" true (Directory.shard_mem sh 8);
  Directory.shard_remove sh ~id:8;
  checkb "explicit id removed" false (Directory.shard_mem sh 8)

(* --- deployment integration ------------------------------------------- *)

let drive_deployment ~fleet ~n_brokers ~seed =
  let trace = Trace.Sink.memory () in
  let cfg =
    { Deployment.default_config with
      n_brokers; dense_clients = 1024; seed; trace; fleet }
  in
  let d = Deployment.create cfg in
  let clients = Array.init 4 (fun _ -> Deployment.add_client d ()) in
  Array.iter Client.signup clients;
  let engine = Deployment.engine d in
  Array.iteri
    (fun i c ->
      Engine.schedule_at engine ~time:5. (fun () ->
          Client.broadcast c (Printf.sprintf "fleet:m%d" i)))
    clients;
  Deployment.run d ~until:40.;
  let completed =
    Array.fold_left (fun acc c -> acc + Client.completed c) 0 clients
  in
  (completed, Trace.Sink.events trace)

let test_single_broker_noop () =
  (* A 1-broker fleet must be inert: same seed, same event stream, same
     deliveries as the legacy nearest-first routing. *)
  let c_fleet, ev_fleet =
    drive_deployment ~fleet:(Some Fleet.Hash) ~n_brokers:1 ~seed:42L
  in
  let c_legacy, ev_legacy =
    drive_deployment ~fleet:None ~n_brokers:1 ~seed:42L
  in
  checki "all broadcasts complete (fleet)" 4 c_fleet;
  checki "all broadcasts complete (legacy)" 4 c_legacy;
  checki "same number of trace events" (List.length ev_legacy)
    (List.length ev_fleet);
  checkb "trace streams are bit-identical" true
    (compare ev_fleet ev_legacy = 0)

let test_repeat_runs_bit_identical () =
  let c1, ev1 = drive_deployment ~fleet:(Some Fleet.Hash) ~n_brokers:3 ~seed:7L in
  let c2, ev2 = drive_deployment ~fleet:(Some Fleet.Hash) ~n_brokers:3 ~seed:7L in
  checki "all broadcasts complete" 4 c1;
  checki "repeat completes identically" c1 c2;
  checkb "3-broker fleet runs are bit-identical" true (compare ev1 ev2 = 0)

let test_crash_failover () =
  let cfg =
    { Deployment.default_config with
      n_brokers = 3; dense_clients = 1024; fleet = Some Fleet.Hash }
  in
  let d = Deployment.create cfg in
  let c = Deployment.add_client d () in
  Client.signup c;
  Deployment.run d ~until:10.;
  let fl = Option.get (Deployment.fleet d) in
  let node = Option.get (Deployment.node_of_client d c) in
  let home = Fleet.home fl ~key:node () in
  Client.broadcast c "before-crash";
  Deployment.run d ~until:20.;
  checki "first broadcast completes through the home broker" 1
    (Client.completed c);
  Deployment.crash_broker d home;
  checkb "crash moved the shard to the successor" true
    (Deployment.fleet_handoff_bytes d > 0);
  checkb "crashed partition emptied" true
    (match Deployment.broker_shard d home with
     | Some sh -> Directory.shard_size sh = 0
     | None -> false);
  Client.broadcast c "after-crash";
  (* Re-route happens on the client's seeded resubmit backoff: generous
     horizon, but completion is the assertion. *)
  Deployment.run d ~until:70.;
  checki "broadcast completes via the failover broker" 2 (Client.completed c);
  let successor = Fleet.first_alive fl ~key:node () in
  checkb "failover target differs from the crashed home" true
    (successor <> home);
  Deployment.recover_broker d home;
  Deployment.run d ~until:80.;
  checkb "recovery reshards the partition back" true
    (match Deployment.broker_shard d home with
     | Some sh -> Directory.shard_mem sh 1024 (* the client's explicit id *)
     | None -> false)

let test_fair_admission_starvation () =
  (* Flood the hottest partition's broker: the servers check the brokers'
     witnesses in turn, so every honest client — including those homed on
     the flooded broker — still completes.  The honest second wave matters: its submissions carry delivery-cert
     evidence, which is what legitimizes the flood's seq > 0 spam at the
     broker (the cached-best rule), keeping the hot pipeline saturated. *)
  let cfg =
    { Deployment.default_config with
      n_brokers = 3; dense_clients = 2048; fleet = Some Fleet.Hash }
  in
  let d = Deployment.create cfg in
  let clients = Array.init 6 (fun _ -> Deployment.add_client d ()) in
  Array.iter Client.signup clients;
  let hot = match Deployment.fleet_hottest d with
    | Some (b, _) -> b
    | None -> Alcotest.fail "fleet accounting empty"
  in
  let engine = Deployment.engine d in
  let rng = Rng.create 0xF100DL in
  Engine.schedule_at engine ~time:10. (fun () ->
      ignore
        (Spam.start_greedy ~deployment:d ~rng ~rate:400. ~first_id:0
           ~clients:64 ~broker:hot ~until:55. ()));
  Array.iteri
    (fun i c ->
      Engine.schedule_at engine ~time:5. (fun () ->
          Client.broadcast c (Printf.sprintf "starve:c%d:m0" i));
      Engine.schedule_at engine ~time:25. (fun () ->
          Client.broadcast c (Printf.sprintf "starve:c%d:m1" i)))
    clients;
  Deployment.run d ~until:90.;
  Array.iter
    (fun c -> checki "honest broadcasts complete under the flood" 2
        (Client.completed c))
    clients

let () =
  Alcotest.run "fleet"
    [ ("policy",
       [ Alcotest.test_case "assignment is seed-deterministic" `Quick
           test_deterministic_assignment;
         Alcotest.test_case "failover list is a rooted permutation" `Quick
           test_assignment_permutation;
         Alcotest.test_case "seeds shuffle the partition" `Quick
           test_seed_sensitivity ]);
      ("shards",
       [ Alcotest.test_case "shard merge equals the monolithic directory"
           `Quick test_shard_merge_monolithic;
         Alcotest.test_case "dense ids are guarded; explicit ids round-trip"
           `Quick test_shard_dense_guard ]);
      ("deployment",
       [ Alcotest.test_case "1-broker fleet is a bit-identical no-op" `Quick
           test_single_broker_noop;
         Alcotest.test_case "same-seed 3-broker runs are bit-identical" `Quick
           test_repeat_runs_bit_identical;
         Alcotest.test_case "crash failover re-routes and reshards" `Quick
           test_crash_failover;
         Alcotest.test_case "fair admission stops partition starvation"
           `Quick test_fair_admission_starvation ]) ]
