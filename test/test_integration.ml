(* Full-stack integration tests: Chop Chop over each underlying Atomic
   Broadcast, applications replicated across servers under load, crash
   faults mid-stream, and the experiment runner end to end. *)

module D = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Client = Repro_chopchop.Client
module Broker = Repro_chopchop.Broker
module Batch = Repro_chopchop.Batch
module Proto = Repro_chopchop.Proto
module LB = Repro_workload.Load_broker

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Chop Chop on each underlay: real clients + load broker together. *)
let run_underlay underlay () =
  let d =
    D.create
      { D.default_config with underlay; n_servers = 4; dense_clients = 100_000 }
  in
  let lb =
    LB.create ~deployment:d ~region:Repro_sim.Region.Ovh_gravelines
      ~config:{ rate = 2.0; batch_count = 256; msg_bytes = 8;
                distill_fraction = 1.0; ranges = 2; first_id = 0 }
      ()
  in
  let completions = ref 0 in
  let clients =
    List.init 3 (fun _ ->
        D.add_client d ~on_delivered:(fun _ ~latency:_ -> incr completions) ())
  in
  List.iter Client.signup clients;
  D.run d ~until:6.0;
  LB.start lb ~until:10. ();
  List.iter (fun c -> Client.broadcast c "mixed-traffic") clients;
  D.run d ~until:80.0;
  checki "clients completed" 3 !completions;
  checki "load completed" (LB.submitted lb) (LB.completed lb);
  let counts = Array.map Server.delivered_messages (D.servers d) in
  Array.iter (fun c -> checki "servers agree on message count" counts.(0) c) counts;
  checkb "load actually flowed" true (counts.(0) > 256)

(* Each ordered reference's witness-certificate pairing is a serial CPU
   job on whichever lane is free, so its completion time depends on the
   server's backlog.  Server 1 starts with eight lanes busy for 1.5 s,
   server 0 idle: both must still deliver the same references in STOB
   order. *)
let test_order_independent_of_lane_backlog () =
  let d =
    D.create
      { D.default_config with underlay = D.Pbft; n_servers = 4;
        dense_clients = 100_000 }
  in
  let cpu1 = D.server_cpu d 1 in
  for lane = 1 to 8 do
    Repro_sim.Cpu.charge cpu1
      ~work:(Repro_sim.Cpu.serial (1.5 *. float_of_int lane /. 8.))
  done;
  let order = Array.make 4 [] in
  D.server_deliver_hook d (fun srv del ->
      match del with
      | Proto.Bulk { first_id; tag; _ } ->
        order.(srv) <- (first_id, tag) :: order.(srv)
      | Proto.Ops _ -> ());
  let lb =
    LB.create ~deployment:d ~region:Repro_sim.Region.Ovh_gravelines
      ~config:{ rate = 20.0; batch_count = 256; msg_bytes = 8;
                distill_fraction = 1.0; ranges = 2; first_id = 0 }
      ()
  in
  LB.start lb ~until:4. ();
  D.run d ~until:40.0;
  checki "every batch delivered at server 0" (LB.submitted lb)
    (List.length order.(0));
  checkb "same references, same order, despite the backlog" true
    (order.(0) = order.(1))

(* Payments replicated across all servers under dense + explicit load. *)
let test_payments_replicated () =
  let d =
    D.create { D.default_config with underlay = D.Pbft; dense_clients = 100_000 }
  in
  let apps = Array.map (fun _ -> Repro_apps.Payments.create ()) (D.servers d) in
  D.server_deliver_hook d (fun srv del ->
      ignore (Repro_apps.Payments.apply_delivery apps.(srv) del));
  let lb =
    LB.create ~deployment:d ~region:Repro_sim.Region.Ovh_beauharnois
      ~config:{ rate = 2.0; batch_count = 128; msg_bytes = 8;
                distill_fraction = 1.0; ranges = 2; first_id = 0 }
      ()
  in
  let c = D.add_client d () in
  Client.signup c;
  D.run d ~until:5.0;
  LB.start lb ~until:8. ();
  Client.broadcast c (Repro_apps.Payments.encode_op ~recipient:3 ~amount:17);
  D.run d ~until:60.0;
  let supply = Repro_apps.Payments.total_supply apps.(0) in
  Array.iteri
    (fun i app ->
      checki (Printf.sprintf "server %d ops" i)
        (Repro_apps.Payments.ops_applied apps.(0))
        (Repro_apps.Payments.ops_applied app);
      checki (Printf.sprintf "server %d supply" i) supply
        (Repro_apps.Payments.total_supply app))
    apps;
  checkb "the explicit payment applied" true
    (Repro_apps.Payments.ops_applied apps.(0) > 128)

(* Crash f servers mid-load: delivery continues on survivors. *)
let test_crash_under_load () =
  let d =
    D.create { D.default_config with underlay = D.Pbft; dense_clients = 100_000 }
  in
  let lb =
    LB.create ~deployment:d ~region:Repro_sim.Region.Ovh_gravelines
      ~config:{ rate = 2.0; batch_count = 128; msg_bytes = 8;
                distill_fraction = 1.0; ranges = 2; first_id = 0 }
      ()
  in
  LB.start lb ~until:20. ();
  Repro_sim.Engine.schedule (D.engine d) ~delay:8.0 (fun () -> D.crash_server d 2);
  D.run d ~until:80.0;
  let before_crash = 8.0 *. 2.0 *. 128. in
  checkb
    (Printf.sprintf "survivors delivered past the crash point (%d)"
       (Server.delivered_messages (D.servers d).(0)))
    true
    (float_of_int (Server.delivered_messages (D.servers d).(0)) > before_crash);
  checkb "most load completed" true
    (LB.completed lb > LB.submitted lb * 8 / 10)

(* The experiment runner produces coherent metrics at a tiny scale. *)
let test_runner_coherent () =
  let open Repro_experiments in
  let p =
    { Chopchop_run.default with
      n_servers = 4; rate = 100_000.; batch_count = 4096;
      duration = 10.; warmup = 4.; cooldown = 2.; measure_clients = 2;
      dense_clients = 1_000_000 }
  in
  let r = Chopchop_run.run p in
  checkb
    (Printf.sprintf "throughput near offered (%.0f)" r.Chopchop_run.throughput)
    true
    (r.Chopchop_run.throughput > 60_000. && r.Chopchop_run.throughput < 120_000.);
  checkb "latency positive and bounded" true
    (let m = Repro_trace.Trace.Hist.mean r.Chopchop_run.latency in
     m > 0.1 && m < 10.);
  checkb "network rate >= input rate (overhead exists)" true
    (r.Chopchop_run.network_rate_bps >= r.Chopchop_run.input_rate_bps *. 0.9);
  checkb "goodput tracks input at this load" true
    (r.Chopchop_run.goodput_bps > r.Chopchop_run.input_rate_bps *. 0.6)

let test_runner_empty_window () =
  (* The window closes before any measured message can complete (the
     pipeline takes ~2 s): the latency histogram is empty, and the result
     line says so instead of printing a latency of 0. *)
  let open Repro_experiments in
  let p =
    { Chopchop_run.default with
      n_servers = 4; rate = 100_000.; batch_count = 4096;
      duration = 2.; warmup = 0.5; cooldown = 0.5; measure_clients = 2;
      dense_clients = 1_000_000 }
  in
  let r = Chopchop_run.run p in
  checki "no latency sample" 0 (Repro_trace.Trace.Hist.count r.Chopchop_run.latency);
  let line = Format.asprintf "%a" Chopchop_run.pp_result r in
  checkb (Printf.sprintf "%S reports no samples" line) true
    (contains line "lat no samples")

let test_baseline_runner () =
  let open Repro_experiments in
  let r =
    Baseline_run.run
      { (Baseline_run.default Baseline_run.Bftsmart) with
        n_servers = 4; rate = 500.; duration = 20.; warmup = 5.; cooldown = 3. }
  in
  checkb
    (Printf.sprintf "bft-smart-style delivers offered 500 (%.0f)" r.Baseline_run.throughput)
    true
    (r.Baseline_run.throughput > 350. && r.Baseline_run.throughput < 600.);
  checkb "latency sub-5s" true (Repro_trace.Trace.Hist.mean r.Baseline_run.latency < 5.)

let test_app_calibration () =
  let open Repro_experiments in
  let cal = App_model.calibrate () in
  checki "three apps" 3 (List.length cal);
  List.iter
    (fun c ->
      checkb (c.App_model.app ^ " measured cost positive") true
        (c.App_model.measured_op_ns > 0.);
      checkb (c.App_model.app ^ " capacity positive") true (c.App_model.capacity > 0.))
    cal;
  let find n = List.find (fun c -> c.App_model.app = n) cal in
  checkb "auction (1 core) slower than payments (16 cores)" true
    ((find "Auction").App_model.capacity < (find "Payments").App_model.capacity)

(* Packet loss on the client<->broker path: reliable UDP recovers, and
   stragglers (missed reduction windows) still get through via their
   fallback signatures (§5.1, §4.2). *)
let test_lossy_network () =
  let d =
    D.create { D.default_config with underlay = D.Pbft; net_loss = 0.25 }
  in
  let clients =
    List.init 4 (fun _ -> D.add_client d ())
  in
  List.iter Client.signup clients;
  D.run d ~until:20.0;
  List.iteri
    (fun i c ->
      for k = 0 to 1 do
        Client.broadcast c (Printf.sprintf "lossy-%d-%d" i k)
      done)
    clients;
  D.run d ~until:150.0;
  let completed = List.fold_left (fun a c -> a + Client.completed c) 0 clients in
  checki "all broadcasts completed despite 25% loss" 8 completed;
  checki "all delivered exactly once" 8
    (Server.delivered_messages (D.servers d).(0));
  let retrans =
    Repro_trace.Trace.Sink.counter (Repro_sim.Engine.trace (D.engine d))
      ~cat:"rudp" ~name:"retransmissions"
  in
  checkb "the transport actually retransmitted" true
    (Repro_trace.Trace.Counter.value retrans > 0)

let test_future_pk_offload_model () =
  let open Repro_experiments in
  List.iter
    (fun r ->
      checkb "offload raises the capacity ceiling" true
        (r.Future.offloaded_capacity > r.Future.baseline_capacity))
    (Future.pk_offload ~servers:[ 8; 64 ])

(* The capacity model's machine rates are the §3.2 anchors it was built
   from, and its NIC bounds are the hand arithmetic over the wire sizes. *)
let close what expect got =
  checkb (Printf.sprintf "%s: %.9g = %.9g" what got expect) true
    (Float.abs (got -. expect) <= 1e-9 *. expect)

let test_ceiling_anchors () =
  let open Repro_experiments in
  close "classic machine rate" 16.2 Ceiling.classic_auth_rate;
  close "classic anchor" Repro_sim.Cost.classic_batch_rate
    Ceiling.classic_auth_rate;
  close "distilled machine rate" 457.1 Ceiling.distilled_auth_rate;
  close "distilled anchor" Repro_sim.Cost.distilled_batch_rate
    Ceiling.distilled_auth_rate

let test_ceiling_nic_bounds () =
  let open Repro_experiments in
  let module Wire = Repro_chopchop.Wire in
  (* 257 M ids pack into 28 bits: an 8 B entry is 11.5 B on the wire, and
     a 5 Gb/s server NIC takes 5e9 / 8 / 11.5 of them per second. *)
  close "entry bytes" 11.5
    (Wire.distilled_entry_bytes ~clients:257_000_000 ~msg_bytes:8);
  close "server ingress" 54_347_826.086956522
    (Ceiling.server_ingress ~ingress_bps:Repro_sim.Net.server_default_ingress_bps
       ~clients:257_000_000 ~msg_bytes:8);
  (* broker-cores at quick scale: 1,024 all-straggler entries of 1 M ids
     (20 bits) are 192 + 8 + 1024 x 10.5 + 1024 x 72 = 84,680 B, sent to
     4 servers behind a 55 Mb/s NIC. *)
  checki "all-straggler batch bytes" 84_680
    (Wire.distilled_batch_bytes ~clients:1_000_000 ~count:1024 ~msg_bytes:8
       ~stragglers:1024);
  close "broker egress" (55e6 /. 8. /. (84_680. *. 4. /. 1024.))
    (Ceiling.broker_egress ~egress_bps:55e6 ~n_servers:4 ~clients:1_000_000
       ~count:1024 ~msg_bytes:8 ~stragglers:1024);
  (* A fully distilled 65,536 batch of 257 M ids: 200 + 753,664 B, sent
     to 16 servers by a 3.125 Gb/s load broker. *)
  close "distilled egress" (3.125e9 /. 8. /. (753_864. *. 16. /. 65_536.))
    (Ceiling.broker_egress ~egress_bps:Repro_sim.Net.server_default_egress_bps
       ~n_servers:16 ~clients:257_000_000 ~count:65_536 ~msg_bytes:8
       ~stragglers:0)

let test_ceiling_check () =
  let open Repro_experiments in
  let fails ~delivered ~floor =
    match Ceiling.check ~what:"t" ~delivered ~bound:1000. ~floor with
    | () -> false
    | exception Failure _ -> true
  in
  checkb "1.06x the bound fails" true (fails ~delivered:1060. ~floor:0.);
  checkb "1.04x the bound passes" false (fails ~delivered:1040. ~floor:0.);
  checkb "below the floor fails" true (fails ~delivered:490. ~floor:0.5);
  checkb "at the floor passes" false (fails ~delivered:500. ~floor:0.5);
  checkb "no floor, far below passes" false (fails ~delivered:1. ~floor:0.)

let () =
  Alcotest.run "integration"
    [ ("underlays",
       [ Alcotest.test_case "chopchop over sequencer" `Quick (run_underlay D.Sequencer);
         Alcotest.test_case "chopchop over pbft" `Quick (run_underlay D.Pbft);
         Alcotest.test_case "chopchop over hotstuff" `Slow (run_underlay D.Hotstuff) ]);
      ("apps",
       [ Alcotest.test_case "payments replicated" `Quick test_payments_replicated ]);
      ("faults",
       [ Alcotest.test_case "crash under load" `Quick test_crash_under_load;
         Alcotest.test_case "lossy network" `Quick test_lossy_network ]);
      ("runners",
       [ Alcotest.test_case "chopchop runner coherent" `Slow test_runner_coherent;
         Alcotest.test_case "empty latency window" `Slow test_runner_empty_window;
         Alcotest.test_case "delivery order independent of lane backlog" `Slow
           test_order_independent_of_lane_backlog;
         Alcotest.test_case "baseline runner" `Slow test_baseline_runner;
         Alcotest.test_case "app calibration" `Quick test_app_calibration;
         Alcotest.test_case "pk-offload capacity model" `Quick test_future_pk_offload_model;
         Alcotest.test_case "ceiling machine rates are the anchors" `Quick
           test_ceiling_anchors;
         Alcotest.test_case "ceiling NIC bounds by hand" `Quick test_ceiling_nic_bounds;
         Alcotest.test_case "ceiling check" `Quick test_ceiling_check ]) ]
