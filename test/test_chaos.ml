(* lib/chaos unit tests: each misbehave_* hook must be caught in the act
   by the correct nodes (observable as reject_* / dup_ref trace instants)
   without costing correct clients their broadcasts; the invariant
   checker must fire on deliberate violations; and scenarios must be
   bit-deterministic under a fixed seed. *)

module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Deployment = Repro_chopchop.Deployment
module Client = Repro_chopchop.Client
module Broker = Repro_chopchop.Broker
module Server = Repro_chopchop.Server
module Proto = Repro_chopchop.Proto
module Chaos = Repro_chaos.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let count_instant sink name =
  List.length
    (List.filter
       (fun (e : Trace.event) -> e.ev_phase = Trace.I && e.ev_name = name)
       (Trace.Sink.events sink))

(* A small traced deployment (4 servers, Sequencer): [faults] runs after
   creation, clients broadcast [msgs_each] unique payloads each, and the
   run is long enough for backoff-driven broker rotation to play out. *)
let run_mini ?(n_brokers = 2) ?client_brokers ?(n_clients = 2)
    ?(msgs_each = 2) ~faults () =
  let trace = Trace.Sink.memory () in
  let cfg = { Deployment.default_config with n_brokers; trace } in
  let d = Deployment.create cfg in
  let inv = Chaos.Invariant.create ~n_servers:cfg.Deployment.n_servers in
  Chaos.Invariant.attach inv d;
  faults d;
  let clients =
    Array.init n_clients (fun _ ->
        Deployment.add_client d ?brokers:client_brokers ())
  in
  Array.iter Client.signup clients;
  Array.iteri
    (fun i c ->
      for j = 0 to msgs_each - 1 do
        Client.broadcast c (Printf.sprintf "c%d:m%d" i j)
      done)
    clients;
  Deployment.run d ~until:80.;
  let completed =
    Array.fold_left (fun acc c -> acc + Client.completed c) 0 clients
  in
  (d, inv, trace, completed, n_clients * msgs_each)

(* Broker 0 forges its reduction multi-signatures: every server must
   reject the batch (reject_batch), and clients complete by rotating to
   the honest broker 1. *)
let test_garble_rejected () =
  let _, inv, trace, completed, expected =
    run_mini ~client_brokers:[ 0; 1 ]
      ~faults:(fun d -> Broker.misbehave_garble_reduction (Deployment.broker d 0))
      ()
  in
  checkb "servers rejected garbled batches" true
    (count_instant trace "reject_batch" > 0);
  checki "all broadcasts completed via honest broker" expected completed;
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* Broker 0 tampers with a client payload: the batch no longer matches
   its roots, so Batch.verify fails on every server. *)
let test_malform_rejected () =
  let _, inv, trace, completed, expected =
    run_mini ~client_brokers:[ 0; 1 ]
      ~faults:(fun d -> Broker.misbehave_malform (Deployment.broker d 0))
      ()
  in
  checkb "servers rejected malformed batches" true
    (count_instant trace "reject_batch" > 0);
  checki "all broadcasts completed" expected completed;
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* Server 1 signs garbage witness shards: the broker must discard them
   (reject_shard) and still assemble f+1 = 2 honest shards from the
   other three servers. *)
let test_bad_shares_rejected () =
  let d, inv, trace, completed, expected =
    run_mini
      ~faults:(fun d -> Server.misbehave_bad_shares (Deployment.servers d).(1))
      ()
  in
  ignore d;
  checkb "broker rejected garbage shards" true
    (count_instant trace "reject_shard" > 0);
  checki "all broadcasts completed" expected completed;
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* Server 1 refuses to witness (fail-silent): the broker extends the
   witness set past the margin and completes without it. *)
let test_refuse_witness () =
  let _, inv, _, completed, expected =
    run_mini
      ~faults:(fun d ->
        Server.misbehave_refuse_witness (Deployment.servers d).(1))
      ()
  in
  checki "all broadcasts completed despite silent witness" expected completed;
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* Broker 0 withholds delivery certificates: its batches deliver, but the
   clients never learn it.  Resubmission (with backoff) rotates them to
   broker 1, the servers' exceptions path replays the already-delivered
   operations, and no message is delivered twice. *)
let test_withhold_certs () =
  let _, inv, _, completed, expected =
    run_mini ~client_brokers:[ 0; 1 ]
      ~faults:(fun d -> Broker.misbehave_withhold_certs (Deployment.broker d 0))
      ()
  in
  checki "all broadcasts completed after rotation" expected completed;
  checkb "no duplicate deliveries" true (Chaos.Invariant.ok inv)

(* Broker 0 announces two conflicting batches for one (broker, number)
   slot: both can gather witnesses, but the servers' (broker, number)
   dedup keeps exactly one — visible as dup_ref instants. *)
let test_equivocation_delivers_once () =
  let _, inv, trace, completed, expected =
    run_mini ~client_brokers:[ 0; 1 ]
      ~faults:(fun d -> Broker.misbehave_equivocate (Deployment.broker d 0))
      ()
  in
  checkb "servers deduplicated the equivocating slot" true
    (count_instant trace "dup_ref" > 0);
  checki "all broadcasts completed" expected completed;
  checkb "exactly-once delivery (agreement + no-dup)" true
    (Chaos.Invariant.ok inv)

(* Broker 0 crash-stops before any traffic: clients prefer it first, so
   every broadcast must ride the backoff-resubmission rotation to
   broker 1 (validity with all but one broker faulty, §4.4.2). *)
let test_crashed_broker_failover () =
  let _, inv, _, completed, expected =
    run_mini ~client_brokers:[ 0; 1 ]
      ~faults:(fun d -> Deployment.crash_broker d 0)
      ()
  in
  checki "all broadcasts completed via failover" expected completed;
  checkb "invariants hold" true (Chaos.Invariant.ok inv)

(* The checker itself: feeding the same delivery twice must raise a
   no-duplication violation. *)
let test_invariant_duplicate () =
  let inv = Chaos.Invariant.create ~n_servers:2 in
  let d = Proto.Ops [| (7, "dup-me") |] in
  Chaos.Invariant.observe inv ~server:0 d;
  checkb "clean after first delivery" true (Chaos.Invariant.ok inv);
  Chaos.Invariant.observe inv ~server:0 d;
  checkb "duplicate detected" false (Chaos.Invariant.ok inv);
  checkb "violation names no-duplication" true
    (List.exists
       (fun v ->
         String.length v >= 14 && String.sub v 0 14 = "no-duplication")
       (Chaos.Invariant.violations inv))

(* And conflicting logs at the same position must raise an agreement
   violation. *)
let test_invariant_divergence () =
  let inv = Chaos.Invariant.create ~n_servers:2 in
  Chaos.Invariant.observe inv ~server:0 (Proto.Ops [| (1, "a") |]);
  Chaos.Invariant.observe inv ~server:1 (Proto.Ops [| (2, "b") |]);
  checkb "divergence detected" false (Chaos.Invariant.ok inv);
  checkb "violation names agreement" true
    (List.exists
       (fun v -> String.length v >= 9 && String.sub v 0 9 = "agreement")
       (Chaos.Invariant.violations inv))

(* Regression: a replaced or joined server gets a fresh identity and
   re-delivers history from an unknown offset; [reset_server] must clear
   its log/dedup state and mute it, so neither re-observed deliveries nor
   [check_validity] raise false violations against it.  (Before the fix,
   a replaced server's stale (client, msg) entries tripped spurious
   no-duplication and validity failures.) *)
let test_reset_server_mutes_validity () =
  let inv = Chaos.Invariant.create ~n_servers:2 in
  let d = Proto.Ops [| (3, "alpha") |] in
  Chaos.Invariant.observe inv ~server:0 d;
  Chaos.Invariant.observe inv ~server:1 d;
  Chaos.Invariant.reset_server inv 1;
  checkb "server 1 muted" true (Chaos.Invariant.muted inv 1);
  checkb "server 0 not muted" false (Chaos.Invariant.muted inv 0);
  (* Re-delivery under the fresh identity: no false duplicate. *)
  Chaos.Invariant.observe inv ~server:1 d;
  checkb "no false duplicate after reset" true (Chaos.Invariant.ok inv);
  (* Validity holds the muted server to digest equality instead: a
     payload it never (re-)delivered is not a violation on it, but still
     is on an unmuted server. *)
  Chaos.Invariant.check_validity inv
    ~expected:[ ("beta", "beta") ]
    ~correct_servers:[ 1 ];
  checkb "muted server exempt from validity" true (Chaos.Invariant.ok inv);
  Chaos.Invariant.check_validity inv
    ~expected:[ ("beta", "beta") ]
    ~correct_servers:[ 0 ];
  checkb "unmuted server still checked" false (Chaos.Invariant.ok inv)

(* Same seed, same scale -> structurally identical verdicts, rejections
   and per-server delivery counts included. *)
let test_scenario_determinism () =
  match Chaos.find "broker-equivocation" with
  | None -> Alcotest.fail "scenario broker-equivocation missing"
  | Some sc ->
    let a = sc.Chaos.sc_run ~seed:7L ~scale:Chaos.Quick () in
    let b = sc.Chaos.sc_run ~seed:7L ~scale:Chaos.Quick () in
    checkb "verdicts bit-identical across runs" true (a = b);
    checkb "and they pass" true a.Chaos.v_pass

(* [name] passes at quick scale under three different seeds, and each run
   is bit-deterministic. *)
let across_seeds name () =
  match Chaos.find name with
  | None -> Alcotest.failf "scenario %s missing" name
  | Some sc ->
    List.iter
      (fun seed ->
        let a = sc.Chaos.sc_run ~seed ~scale:Chaos.Quick () in
        let b = sc.Chaos.sc_run ~seed ~scale:Chaos.Quick () in
        checkb (Printf.sprintf "deterministic under seed %Ld" seed) true (a = b);
        if not a.Chaos.v_pass then
          Alcotest.failf "%s failed under seed %Ld: %s" name seed
            (String.concat "; " a.Chaos.v_violations))
      [ 1L; 7L; 42L ]

(* Acceptance for the dynamic-membership work: the kitchen-sink
   reconfiguration scenario (join + leave + rolling restarts under a
   flash crowd and spam). *)
let test_kitchen_sink_reconfig_seeds = across_seeds "reconfig-kitchen-sink"

(* Sybil and greedy floods with no per-client rate limit: the sybil flood
   is shed, the greedy one is ordered, and the honest clients complete. *)
let test_spam_sybil_seeds = across_seeds "spam-sybil"

(* Every named scenario passes at quick scale (the CI contract). *)
let test_all_scenarios_quick () =
  let verdicts = Chaos.run_all ~seed:42L ~scale:Chaos.Quick in
  List.iter
    (fun v ->
      if not v.Chaos.v_pass then
        Alcotest.failf "scenario %s failed: %s" v.Chaos.v_name
          (String.concat "; " v.Chaos.v_violations))
    verdicts;
  checki "all scenarios ran" (List.length Chaos.scenarios)
    (List.length verdicts)

let () =
  Alcotest.run "chaos"
    [ ("byzantine-broker",
       [ Alcotest.test_case "garbled reduction rejected" `Quick
           test_garble_rejected;
         Alcotest.test_case "malformed batch rejected" `Quick
           test_malform_rejected;
         Alcotest.test_case "withheld certs survived" `Quick
           test_withhold_certs;
         Alcotest.test_case "equivocation delivers once" `Quick
           test_equivocation_delivers_once;
         Alcotest.test_case "crashed broker failover" `Quick
           test_crashed_broker_failover ]);
      ("byzantine-server",
       [ Alcotest.test_case "bad witness shards rejected" `Quick
           test_bad_shares_rejected;
         Alcotest.test_case "silent witness tolerated" `Quick
           test_refuse_witness ]);
      ("invariants",
       [ Alcotest.test_case "no-duplication fires" `Quick
           test_invariant_duplicate;
         Alcotest.test_case "agreement fires" `Quick
           test_invariant_divergence;
         Alcotest.test_case "reset_server mutes fresh identities" `Quick
           test_reset_server_mutes_validity ]);
      ("scenarios",
       [ Alcotest.test_case "deterministic verdicts" `Quick
           test_scenario_determinism;
         Alcotest.test_case "reconfig kitchen sink across seeds" `Quick
           test_kitchen_sink_reconfig_seeds;
         Alcotest.test_case "spam-sybil across seeds" `Quick
           test_spam_sybil_seeds;
         Alcotest.test_case "all pass at quick scale" `Quick
           test_all_scenarios_quick ]) ]
