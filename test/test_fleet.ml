(* lib/fleet tests: the partitioning policy is a deterministic pure
   function of (seed, key, roster); every fleet broker resolves every
   signed-up client through the one Rank directory; a 1-broker fleet is a
   bit-identical no-op against the legacy nearest-first routing; crash
   failover re-routes clients onto their next broker, and so does a cut
   between a client and its live home broker; and the servers'
   round-robin witness checks stop a flooded partition from starving its
   siblings. *)

module Engine = Repro_sim.Engine
module Rng = Repro_sim.Rng
module Trace = Repro_trace.Trace
module Deployment = Repro_chopchop.Deployment
module Client = Repro_chopchop.Client
module Broker = Repro_chopchop.Broker
module Server = Repro_chopchop.Server
module Proto = Repro_chopchop.Proto
module Directory = Repro_chopchop.Directory
module Types = Repro_chopchop.Types
module Schnorr = Repro_crypto.Schnorr
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

(* --- one directory ------------------------------------------------------ *)

let fleet_config n_brokers =
  { Deployment.default_config with
    n_brokers; dense_clients = 1024; fleet = Some Fleet.Hash }

(* Clients sign up through each of three fleet brokers; then every broker
   is handed a correctly signed submission from every signed-up client.
   A broker includes a submission in a proposal only once its signature
   checks out under the key it resolved, so an "include" from every
   broker for every client shows each broker resolving each id to the
   card the servers ranked. *)
let test_brokers_read_one_directory () =
  let trace = Trace.Sink.memory () in
  let d = Deployment.create { (fleet_config 3) with trace } in
  let clients =
    List.concat_map
      (fun b -> List.init 2 (fun _ -> (b, Deployment.add_client d ~brokers:[ b ] ())))
      [ 0; 1; 2 ]
  in
  List.iter (fun (_, c) -> Client.signup c) clients;
  Deployment.run d ~until:10.;
  let signed_up =
    List.map
      (fun (b, c) ->
        let id = Option.get (Client.id c) in
        let node = Option.get (Deployment.node_of_client d c) in
        (* The key a deployment derives for a client node. *)
        let kp = Types.keypair_of_seed (Printf.sprintf "client-node-%d" node) in
        Array.iteri
          (fun i s ->
            checkb
              (Printf.sprintf "server %d ranks the card signed up via broker %d" i b)
              true
              (Directory.find (Server.directory s) id = Some kp.Types.card))
          (Deployment.servers d);
        (id, kp))
      clients
  in
  let key ~broker id = (broker * 1_000_000) + id in
  for broker = 0 to 2 do
    List.iter
      (fun (id, kp) ->
        let msg = Printf.sprintf "via-%d" broker in
        Broker.receive_client (Deployment.broker d broker)
          (Proto.Submission
             { id; seq = 0; msg;
               tsig =
                 Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg);
               evidence = None; ctx = Trace.Ctx.make ~root:(key ~broker id) }))
      signed_up
  done;
  Deployment.run d ~until:14.;
  let included = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      if e.ev_phase = Trace.I && e.ev_name = "include" then
        Hashtbl.replace included (e.ev_actor - 1000, e.ev_id) ())
    (Trace.Sink.events trace);
  for broker = 0 to 2 do
    List.iter
      (fun (id, _) ->
        checkb
          (Printf.sprintf "broker %d resolves client %d" broker id)
          true
          (Hashtbl.mem included (broker, key ~broker id)))
      signed_up
  done

let test_directory_append_find () =
  let dir = Directory.create ~dense_count:8 () in
  checkb "a dense id resolves to its derived card" true
    (Directory.find dir 3 = Some (Directory.dense_keypair dir 3).Types.card);
  checkb "no card past the directory" true (Directory.find dir 8 = None);
  checkb "no card below zero" true (Directory.find dir (-1) = None);
  let cards =
    List.init 3 (fun i ->
        (Types.keypair_of_seed (Printf.sprintf "fleet-card-%d" i)).Types.card)
  in
  let ids = List.map (Directory.append dir) cards in
  Alcotest.(check (list int)) "explicit ids rank above the dense population"
    [ 8; 9; 10 ] ids;
  List.iter2
    (fun id card ->
      checkb (Printf.sprintf "id %d round-trips" id) true
        (Directory.find dir id = Some card))
    ids cards;
  checkb "dense ids keep their derived cards" true
    (Directory.find dir 3 = Some (Directory.dense_keypair dir 3).Types.card);
  checki "size counts both populations" 11 (Directory.size dir)

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

(* One signed-up fleet client that has completed a broadcast through its
   home broker: the deployment, the client, its node and its failover
   order (home first). *)
let homed_client () =
  let d = Deployment.create (fleet_config 3) in
  let c = Deployment.add_client d () in
  Client.signup c;
  Deployment.run d ~until:10.;
  let fl = Option.get (Deployment.fleet d) in
  let node = Option.get (Deployment.node_of_client d c) in
  let order = Fleet.assignment fl ~key:node () in
  Client.broadcast c "first";
  Deployment.run d ~until:20.;
  checki "first broadcast completes through the home broker" 1
    (Client.completed c);
  checkb "the home broker completed it" true
    (Broker.batches_completed (Deployment.broker d (List.hd order)) > 0);
  (d, c, node, order)

let test_crash_failover () =
  let d, c, _, order = homed_client () in
  let home = List.hd order and successor = List.nth order 1 in
  Deployment.crash_broker d home;
  Client.broadcast c "after-crash";
  (* Re-route happens on the client's seeded resubmit backoff: generous
     horizon, but completion is the assertion. *)
  Deployment.run d ~until:70.;
  checki "broadcast completes via the failover broker" 2 (Client.completed c);
  checkb "the next broker of the failover list completed it" true
    (Broker.batches_completed (Deployment.broker d successor) > 0);
  Deployment.recover_broker d home;
  let at_home = Broker.batches_completed (Deployment.broker d home) in
  Client.broadcast c "after-recovery";
  Deployment.run d ~until:80.;
  checki "broadcast after recovery completes" 3 (Client.completed c);
  checkb "the rehomed client is served by its home broker again" true
    (Broker.batches_completed (Deployment.broker d home) > at_home)

(* The home broker stays up but every packet between it and the client
   is lost: the client's resubmissions rotate to the next broker, which
   serves it because every broker reads the one directory. *)
let test_cut_off_from_home () =
  let d, c, node, order = homed_client () in
  let home_node = Deployment.broker_node_id d (List.hd order) in
  Deployment.set_link_loss d ~src:node ~dst:home_node 1.0;
  Deployment.set_link_loss d ~src:home_node ~dst:node 1.0;
  Client.broadcast c "cut-off";
  Deployment.run d ~until:120.;
  checki "broadcast completes through another broker" 2 (Client.completed c)

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
           `Quick test_brokers_read_one_directory;
         Alcotest.test_case "dense ids are guarded; explicit ids round-trip"
           `Quick test_directory_append_find ]);
      ("deployment",
       [ Alcotest.test_case "1-broker fleet is a bit-identical no-op" `Quick
           test_single_broker_noop;
         Alcotest.test_case "same-seed 3-broker runs are bit-identical" `Quick
           test_repeat_runs_bit_identical;
         Alcotest.test_case "crash failover re-routes and reshards" `Quick
           test_crash_failover;
         Alcotest.test_case "client cut off from its home broker completes elsewhere"
           `Quick test_cut_off_from_home;
         Alcotest.test_case "fair admission stops partition starvation"
           `Quick test_fair_admission_starvation ]) ]
