(* Tests for the STOB substrate through its one handle, [Stob]: the
   sequencer oracle, the PBFT-style protocol and chained HotStuff all
   satisfy the STOB properties (agreement, total order, no duplication,
   validity) in benign runs and under crash faults, including leader
   crashes, view changes, recovery and cold-restart resumption. *)

open Repro_sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Stob = Repro_stob.Stob
module Trace = Repro_trace.Trace

(* An n-server cluster of [underlay] over the geo network, fed
   [payloads] from rotating servers every 20 ms from 0.1 s (payload k
   from server k mod n); [crash] stop at [crash_at] and, with
   [recover_at], come back then.  Returns per-server delivery logs
   (newest first) and the replicas.  The network hands every message
   over [copies] times. *)
let start ?(copies = 1) ?trace ?batch_max ?max_outstanding ?(crash = [])
    ?(crash_at = 1.0) ?recover_at underlay ~n ~seed ~payloads () =
  let engine = Engine.create ~seed ?trace () in
  let net = Net.create engine () in
  let regions = Array.of_list (Region.server_regions_for n) in
  let delivered = Array.make n [] in
  let replicas =
    Array.init n (fun i ->
        Stob.create underlay ~engine ~self:i ~n
          ~send:(fun ~dst ~bytes m ->
            for _ = 1 to copies do Net.send net ~src:i ~dst ~bytes m done)
          ~deliver:(fun p -> delivered.(i) <- p :: delivered.(i))
          ~payload_bytes:String.length ?batch_max ?max_outstanding ())
  in
  Array.iteri
    (fun i r -> Net.add_node net ~id:i ~region:regions.(i) ~handler:(Stob.receive r) ())
    replicas;
  let at time f = Engine.schedule engine ~delay:time f in
  List.iteri
    (fun k p -> at (0.1 +. (0.02 *. float_of_int k)) (fun () -> Stob.broadcast replicas.(k mod n) p))
    payloads;
  List.iter
    (fun i ->
      at crash_at (fun () -> Stob.crash replicas.(i));
      Option.iter (fun time -> at time (fun () -> Stob.recover replicas.(i))) recover_at)
    crash;
  (engine, delivered, replicas)

let logs delivered = Array.to_list (Array.map List.rev delivered)

(* Runs [start]'s cluster to [horizon]; returns the logs of the replicas
   never crashed, then every replica's log. *)
let scenario ?copies ?batch_max ?max_outstanding ?(crash = []) ?crash_at ?recover_at
    underlay ~n ~seed ~payloads ~horizon () =
  let engine, delivered, _ =
    start ?copies ?batch_max ?max_outstanding ~crash ?crash_at ?recover_at underlay ~n
      ~seed ~payloads ()
  in
  Engine.run ~until:horizon engine;
  let all = logs delivered in
  (List.filteri (fun i _ -> not (List.mem i crash)) all, all)

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go xs ys
  in
  if List.length a <= List.length b then go a b else go b a

let no_dup l = List.length (List.sort_uniq compare l) = List.length l

let payloads k = List.init k (fun i -> "p" ^ string_of_int i)

let check_properties ?(expect_all = true) logs total =
  match logs with
  | first :: rest ->
    List.iter (fun l -> checkb "agreement (prefix)" true (is_prefix first l)) rest;
    List.iter (fun l -> checkb "no duplication" true (no_dup l)) logs;
    if expect_all then
      List.iter (fun l -> checki "validity: all delivered" total (List.length l)) logs
  | [] -> Alcotest.fail "no correct servers"

(* Agreement and no duplication among the live replicas, and every
   payload a live server submitted is delivered.  A crashed server's own
   submissions may die with it. *)
let check_live ~n ~crash logs total =
  check_properties ~expect_all:false logs total;
  List.iteri
    (fun k p ->
      if not (List.mem (k mod n) crash) then
        checkb ("delivered " ^ p) true (List.mem p (List.hd logs)))
    (payloads total)

let test_benign underlay () =
  let live, _ = scenario underlay ~n:4 ~seed:1L ~payloads:(payloads 30) ~horizon:60. () in
  check_properties live 30

let test_crash ~n ~seed ~crash ~crash_at ~total ~horizon underlay () =
  let live, _ =
    scenario ~crash ~crash_at underlay ~n ~seed ~payloads:(payloads total) ~horizon ()
  in
  check_live ~n ~crash live total

(* A follower down from 0.3 s to 0.5 s misses messages that are never
   replayed: it may stall, but its log stays a prefix of everyone's. *)
let test_recover_prefix underlay () =
  let live, all =
    scenario ~crash:[ 2 ] ~crash_at:0.3 ~recover_at:0.5 underlay ~n:4 ~seed:2L
      ~payloads:(payloads 40) ~horizon:90. ()
  in
  check_live ~n:4 ~crash:[ 2 ] live 40;
  check_properties ~expect_all:false all 40

let test_seven_servers underlay () =
  let live, _ = scenario underlay ~n:7 ~seed:5L ~payloads:(payloads 40) ~horizon:90. () in
  check_properties live 40

(* Every message arrives three times.  A vote counted once per arrival
   would let two live replicas of four reach a quorum of three alone, so
   with f+1 crashed nothing may deliver; with everyone live, the repeats
   must not break agreement or duplicate a delivery. *)
let test_duplicated_votes underlay () =
  let live, _ =
    scenario underlay ~n:4 ~seed:8L ~copies:3 ~crash:[ 2; 3 ] ~crash_at:0.05
      ~payloads:(payloads 12) ~horizon:60. ()
  in
  List.iter (fun l -> checki "no quorum from repeated votes" 0 (List.length l)) live;
  let live, _ =
    scenario underlay ~n:4 ~seed:8L ~copies:3 ~payloads:(payloads 12) ~horizon:60. ()
  in
  check_properties live 12

let qcheck_random_schedule underlay name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name
       QCheck.(pair (int_bound 1000) (int_range 5 40))
       (fun (seed, k) ->
         let logs, _ =
           scenario underlay ~n:4 ~seed:(Int64.of_int (seed + 1)) ~payloads:(payloads k)
             ~horizon:120. ()
         in
         match logs with
         | first :: rest ->
           List.for_all (fun l -> is_prefix first l) rest
           && List.for_all no_dup logs
           && List.for_all (fun l -> List.length l = k) logs
         | [] -> false))

(* Sampled every 50 ms, a replica's cursor never moves back, and it moves
   forward whenever the replica delivered since the last sample. *)
let test_cursor_advances underlay () =
  let engine, _, replicas = start underlay ~n:4 ~seed:1L ~payloads:(payloads 30) () in
  let last = Array.map (fun r -> (Stob.cursor r, Stob.delivered_count r)) replicas in
  Array.iter (fun (c, _) -> checki "cursor starts at 0" 0 c) last;
  Engine.every engine ~period:0.05 ~until:30. (fun () ->
      Array.iteri
        (fun i r ->
          let c0, d0 = last.(i) and c = Stob.cursor r and d = Stob.delivered_count r in
          checkb "cursor monotone" true (c >= c0);
          if d > d0 then checkb "cursor advances with delivery" true (c > c0);
          last.(i) <- (c, d))
        replicas);
  Engine.run ~until:60. engine;
  Array.iter (fun r -> checki "all delivered" 30 (Stob.delivered_count r)) replicas

(* Replica 3 is down until 0.5 s and then buffers what it cannot deliver
   past its gap; at 1.5 s it resumes at replica 0's cursor, as a cold
   restart does after state transfer.  Nothing below that cursor may
   ever deliver at replica 3; what it delivers is replica 0's log from
   there on. *)
let test_resume_at underlay () =
  let engine, delivered, replicas =
    start ~crash:[ 3 ] ~crash_at:0.05 ~recover_at:0.5 underlay ~n:4 ~seed:3L
      ~payloads:(payloads 150) ()
  in
  let skipped = ref 0 in
  Engine.schedule engine ~delay:1.5 (fun () ->
      skipped := List.length delivered.(0);
      checki "nothing delivered across the gap" 0 (List.length delivered.(3));
      Stob.resume_at replicas.(3) ~cursor:(Stob.cursor replicas.(0));
      checki "cursor moved" (Stob.cursor replicas.(0)) (Stob.cursor replicas.(3)));
  Engine.run ~until:60. engine;
  let reference = List.rev delivered.(0) and resumed = List.rev delivered.(3) in
  let below = List.filteri (fun i _ -> i < !skipped) reference in
  checkb "skipped some" true (below <> []);
  List.iter (fun p -> checkb ("never delivers " ^ p) false (List.mem p resumed)) below;
  checkb "delivers on from the cursor" true
    (resumed <> [] && is_prefix resumed (List.filteri (fun i _ -> i >= !skipped) reference))

(* A HotStuff leader crashed while its proposal deadline is pending must
   propose again once recovered; otherwise every view it leads times out. *)
let test_recovered_leader_proposes () =
  let trace = Trace.Sink.memory () in
  let engine, delivered, _ =
    start ~trace ~crash:[ 0 ] ~crash_at:0.2 ~recover_at:0.25 Stob.Hotstuff ~n:4
      ~seed:3L ~payloads:(payloads 100) ()
  in
  Engine.run ~until:120. engine;
  let proposals =
    List.filter
      (fun (e : Trace.event) -> e.ev_actor = 0 && e.ev_name = "propose" && e.ev_time > 0.25)
      (Trace.Sink.events trace)
  in
  checkb "recovered leader proposes" true (proposals <> []);
  check_live ~n:4 ~crash:[ 0 ] (logs delivered) 100

let proto_suite ?(leader_crash = true) name underlay =
  ( name,
    [ Alcotest.test_case "benign: agreement+nodup+validity" `Quick (test_benign underlay);
      Alcotest.test_case "crash follower" `Quick
        (test_crash ~n:4 ~seed:2L ~crash:[ 2 ] ~crash_at:0.3 ~total:30 ~horizon:90. underlay) ]
    @ (if leader_crash then
         (* The Sequencer oracle is not fault-tolerant to node 0 by design. *)
         [ Alcotest.test_case "crash leader (view change)" `Quick
             (test_crash ~n:4 ~seed:3L ~crash:[ 0 ] ~crash_at:0.5 ~total:20 ~horizon:120.
                underlay);
           Alcotest.test_case "crash f of 7" `Quick
             (test_crash ~n:7 ~seed:4L ~crash:[ 5; 6 ] ~crash_at:0.4 ~total:28 ~horizon:120.
                underlay);
           Alcotest.test_case "votes delivered three times" `Quick
             (test_duplicated_votes underlay) ]
       else [])
    @ [ Alcotest.test_case "seven servers" `Quick (test_seven_servers underlay);
        Alcotest.test_case "cursor advances with delivery" `Quick
          (test_cursor_advances underlay);
        Alcotest.test_case "resume_at skips below the cursor" `Quick
          (test_resume_at underlay);
        Alcotest.test_case "recovered replica stays a prefix" `Quick
          (test_recover_prefix underlay);
        qcheck_random_schedule underlay (name ^ ": random schedules hold properties") ] )

let test_pbft_sequential_mode () =
  (* max_outstanding = 1 (BFT-SMaRt mode) still delivers everything, just
     more slowly. *)
  let live, _ =
    scenario ~max_outstanding:1 ~batch_max:4 Stob.Pbft ~n:4 ~seed:6L
      ~payloads:(payloads 25) ~horizon:120. ()
  in
  check_properties live 25

let () =
  Alcotest.run "stob"
    [ proto_suite ~leader_crash:false "sequencer" Stob.Sequencer;
      proto_suite "pbft" Stob.Pbft;
      proto_suite "hotstuff" Stob.Hotstuff;
      ("pbft-modes",
       [ Alcotest.test_case "sequential instances" `Quick test_pbft_sequential_mode ]);
      ("recovery",
       [ Alcotest.test_case "hotstuff leader proposes again" `Quick
           test_recovered_leader_proposes ]) ]
