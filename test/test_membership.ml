(* Dynamic-membership tests: the Membership state machine's thresholds
   and idempotence guard (the sole replay protection for ordered
   Reconfigure commands), the rank directory staying coherent across an
   epoch change, checkpoint round-trips that carry a changed committee
   through a cold restart, and a joiner ordered in mid-partition that
   must keep retrying state transfer until the heal. *)

module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Deployment = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Client = Repro_chopchop.Client
module Directory = Repro_chopchop.Directory
module Membership = Repro_chopchop.Membership
module Chaos = Repro_chaos.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let count_instant sink name =
  List.length
    (List.filter
       (fun (e : Trace.event) -> e.ev_phase = Trace.I && e.ev_name = name)
       (Trace.Sink.events sink))

(* --- Membership state machine ---------------------------------------- *)

let test_thresholds () =
  let m = Membership.create ~capacity:8 ~initial:4 in
  checki "epoch 0" 0 (Membership.epoch m);
  checki "4 active" 4 (Membership.active_count m);
  checki "f = 1 at n = 4" 1 (Membership.f m);
  checki "quorum = 2 at n = 4" 2 (Membership.quorum m);
  Alcotest.(check (list int))
    "active slots are the founding prefix" [ 0; 1; 2; 3 ]
    (Membership.active_slots m);
  (* Grow to 7: f = (7-1)/3 = 2, quorum 3. *)
  checkb "join 4" true (Membership.apply m (Membership.Join 4));
  checkb "join 5" true (Membership.apply m (Membership.Join 5));
  checkb "join 6" true (Membership.apply m (Membership.Join 6));
  checki "f = 2 at n = 7" 2 (Membership.f m);
  checki "quorum = 3 at n = 7" 3 (Membership.quorum m);
  checki "epoch counts every change" 3 (Membership.epoch m);
  (* Shrink back down: thresholds follow the active count, not capacity. *)
  checkb "leave 6" true (Membership.apply m (Membership.Leave 6));
  checkb "leave 5" true (Membership.apply m (Membership.Leave 5));
  checki "f = 1 at n = 5" 1 (Membership.f m);
  checki "quorum = 2 at n = 5" 2 (Membership.quorum m)

(* The ring walk that picks a peer: first active slot from [from],
   wrapping, never [skip]; [None] once nothing qualifies. *)
let test_next_active () =
  let m = Membership.create ~capacity:5 ~initial:4 in
  let next ~from ~skip = Membership.next_active m ~from ~skip in
  Alcotest.(check (option int)) "spare skipped, wraps" (Some 0) (next ~from:4 ~skip:None);
  Alcotest.(check (option int)) "skip self" (Some 3) (next ~from:2 ~skip:(Some 2));
  ignore (Membership.apply m (Membership.Leave 3));
  Alcotest.(check (option int)) "departed skipped" (Some 0) (next ~from:3 ~skip:None);
  List.iter (fun i -> ignore (Membership.apply m (Membership.Leave i))) [ 0; 2 ];
  Alcotest.(check (option int)) "only the skipped one left" None (next ~from:0 ~skip:(Some 1))

let test_idempotence () =
  let m = Membership.create ~capacity:5 ~initial:4 in
  (* The same ordered command can reach a server twice (live delivery,
     then WAL replay / state transfer): the second application must be a
     no-op that does not bump the epoch. *)
  checkb "first join applies" true (Membership.apply m (Membership.Join 4));
  checkb "replayed join is a no-op" false (Membership.apply m (Membership.Join 4));
  checki "epoch bumped once" 1 (Membership.epoch m);
  checkb "first leave applies" true (Membership.apply m (Membership.Leave 3));
  checkb "replayed leave is a no-op" false
    (Membership.apply m (Membership.Leave 3));
  checki "epoch at 2" 2 (Membership.epoch m);
  (* Replace freshness: only a strictly newer generation installs. *)
  checkb "gen 1 replace applies" true
    (Membership.apply m (Membership.Replace (2, 1)));
  checkb "replayed gen 1 is a no-op" false
    (Membership.apply m (Membership.Replace (2, 1)));
  checkb "stale gen 0 is a no-op" false
    (Membership.apply m (Membership.Replace (2, 0)));
  checki "generation recorded" 1 (Membership.generation m 2);
  checki "epoch at 3" 3 (Membership.epoch m)

let test_snapshot_restore_reset () =
  let m = Membership.create ~capacity:5 ~initial:4 in
  ignore (Membership.apply m (Membership.Join 4));
  ignore (Membership.apply m (Membership.Leave 1));
  ignore (Membership.apply m (Membership.Replace (2, 3)));
  let snap = Membership.snapshot m in
  (* Restore into a fresh instance (a joiner restoring a peer's
     checkpoint) must reproduce epoch, active set and generations. *)
  let m' = Membership.create ~capacity:5 ~initial:4 in
  Membership.restore m' snap;
  checki "epoch restored" (Membership.epoch m) (Membership.epoch m');
  Alcotest.(check (list int))
    "active set restored"
    (Membership.active_slots m) (Membership.active_slots m');
  checki "generation restored" 3 (Membership.generation m' 2);
  (* Reset is the cold-restart starting point: epoch 0, founding set. *)
  Membership.reset m';
  checki "reset epoch" 0 (Membership.epoch m');
  Alcotest.(check (list int))
    "reset active set" [ 0; 1; 2; 3 ]
    (Membership.active_slots m');
  checki "reset generations" 0 (Membership.generation m' 2)

(* --- deployment-level membership edges -------------------------------- *)

let store_cfg trace =
  { Deployment.default_config with
    Deployment.spare_servers = 1;
    store_enabled = true;
    checkpoint_every = 4;
    trace }

(* Signups straddling an epoch change: explicit identities registered
   before and after an ordered Join must both resolve on every member,
   the joiner included (it learns pre-join signups through state
   transfer, post-join ones through the live order). *)
let test_rank_directory_across_epoch () =
  let trace = Trace.Sink.memory () in
  let cfg = store_cfg trace in
  let d = Deployment.create cfg in
  let engine = Deployment.engine d in
  let inv = Chaos.Invariant.create ~n_servers:5 in
  Chaos.Invariant.attach inv d;
  let a = Deployment.add_client d () in
  let b = Deployment.add_client d () in
  Client.signup a;
  for j = 0 to 2 do
    Client.broadcast a (Printf.sprintf "pre-epoch:%d" j)
  done;
  Engine.schedule engine ~delay:15. (fun () ->
      Chaos.Invariant.reset_server inv 4;
      Deployment.join_server d 4);
  Engine.schedule engine ~delay:30. (fun () ->
      Client.signup b;
      for j = 0 to 2 do
        Client.broadcast b (Printf.sprintf "post-epoch:%d" j)
      done);
  Deployment.run d ~until:90.;
  checki "pre-join client completed" 3 (Client.completed a);
  checki "post-join client completed" 3 (Client.completed b);
  checkb "joiner caught up" false (Deployment.server_catching_up d 4);
  List.iter
    (fun s -> checki (Printf.sprintf "server %d at epoch 1" s) 1
        (Deployment.server_epoch d s))
    (Membership.active_slots (Deployment.membership d));
  (* The joiner's rank directory covers both signups: same size as the
     founding members'. *)
  let dir_size s = Directory.size (Server.directory (Deployment.servers d).(s)) in
  checki "joiner directory matches server 0" (dir_size 0) (dir_size 4);
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* Checkpoint round-trip with a changed committee: after a join and a
   leave (active count 4 -> 5 -> 4, but a different set), a cold restart
   must restore the epoch-2 membership from its checkpoint/WAL, not the
   founding one, and rejoin with dedup intact. *)
let test_checkpoint_roundtrip_changed_membership () =
  let trace = Trace.Sink.memory () in
  let cfg = store_cfg trace in
  let d = Deployment.create cfg in
  let engine = Deployment.engine d in
  let inv = Chaos.Invariant.create ~n_servers:5 in
  Chaos.Invariant.attach inv d;
  let c = Deployment.add_client d () in
  Client.signup c;
  for j = 0 to 3 do
    Client.broadcast c (Printf.sprintf "m%d" j)
  done;
  Engine.schedule engine ~delay:15. (fun () ->
      Chaos.Invariant.reset_server inv 4;
      Deployment.join_server d 4);
  Engine.schedule engine ~delay:25. (fun () -> Deployment.leave_server d 3);
  Engine.schedule engine ~delay:30. (fun () ->
      for j = 4 to 7 do
        Client.broadcast c (Printf.sprintf "m%d" j)
      done);
  Engine.schedule engine ~delay:45. (fun () ->
      Chaos.Invariant.reset_server inv 1;
      Deployment.restart_server d 1);
  Engine.schedule engine ~delay:60. (fun () ->
      Client.broadcast c "post-restart");
  Deployment.run d ~until:100.;
  checki "all broadcasts completed" 9 (Client.completed c);
  checkb "restarted server caught up" false (Deployment.server_catching_up d 1);
  let active = Membership.active_slots (Deployment.membership d) in
  Alcotest.(check (list int)) "active set is {0,1,2,4}" [ 0; 1; 2; 4 ] active;
  List.iter
    (fun s -> checki (Printf.sprintf "server %d at epoch 2" s) 2
        (Deployment.server_epoch d s))
    active;
  (* The restarted server's own membership object was rebuilt from its
     checkpoint + WAL replay, not from the live deployment view. *)
  let m1 = Server.membership (Deployment.servers d).(1) in
  Alcotest.(check (list int))
    "restored membership matches" active (Membership.active_slots m1);
  checki "restored quorum follows active count" 2 (Membership.quorum m1);
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* A joiner ordered in while partitioned from every peer: it must keep
   retrying Sync_requests (rotating peers, backing off — the sync_retry
   instants) instead of wedging, and complete its bootstrap only after
   the heal. *)
let test_join_mid_partition () =
  let trace = Trace.Sink.memory () in
  let cfg = store_cfg trace in
  let d = Deployment.create cfg in
  let engine = Deployment.engine d in
  let c = Deployment.add_client d () in
  Client.signup c;
  for j = 0 to 2 do
    Client.broadcast c (Printf.sprintf "m%d" j)
  done;
  (* Isolate the spare's node (everyone unlisted stays in group 0), then
     order it in: the join itself commits on the live majority side. *)
  Engine.schedule engine ~delay:10. (fun () ->
      Deployment.partition d [ []; [ 4 ] ]);
  Engine.schedule engine ~delay:12. (fun () -> Deployment.join_server d 4);
  let still_syncing_before_heal = ref false in
  Engine.schedule engine ~delay:35. (fun () ->
      still_syncing_before_heal := Deployment.server_catching_up d 4);
  Engine.schedule engine ~delay:40. (fun () -> Deployment.heal d);
  Deployment.run d ~until:100.;
  checkb "joiner blocked while partitioned" true !still_syncing_before_heal;
  checkb "joiner caught up after heal" false
    (Deployment.server_catching_up d 4);
  checki "joiner at epoch 1" 1 (Deployment.server_epoch d 4);
  checkb "sync retries observed (rotating-peer backoff)" true
    (count_instant trace "sync_retry" > 0);
  checki "client unaffected" 3 (Client.completed c)

let () =
  Alcotest.run "membership"
    [ ("state-machine",
       [ Alcotest.test_case "thresholds follow the active count" `Quick
           test_thresholds;
         Alcotest.test_case "next active slot walk" `Quick test_next_active;
         Alcotest.test_case "ordered-command idempotence" `Quick
           test_idempotence;
         Alcotest.test_case "snapshot / restore / reset" `Quick
           test_snapshot_restore_reset ]);
      ("epoch-edges",
       [ Alcotest.test_case "rank directory across an epoch change" `Quick
           test_rank_directory_across_epoch;
         Alcotest.test_case "checkpoint round-trip with changed committee"
           `Quick test_checkpoint_roundtrip_changed_membership;
         Alcotest.test_case "join mid-partition waits for the heal" `Quick
           test_join_mid_partition ]) ]
