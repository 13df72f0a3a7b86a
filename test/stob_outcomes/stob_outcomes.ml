(* Pins the ordering layer's simulated outcome.  For each underlay it
   replays two test_stob schedules (benign; a follower crashed at 0.3 s)
   and prints, per replica, the payloads delivered and a digest of the
   delivery log, plus the engine's dispatched-event count.  It then runs
   the standalone BFT-SMaRt and HotStuff baselines at a CI-sized point
   and prints their throughput and latency summary.  The dune rule diffs
   the output against stob_outcomes.expected: a refactor of lib/stob must
   leave it byte-identical. *)

open Repro_sim
module Trace = Repro_trace.Trace
module Stob = Repro_stob.Stob

let schedule (name, underlay) ~label ~seed ~crash ~horizon =
  let n = 4 in
  let sink = Trace.Sink.null () in
  let engine = Engine.create ~seed ~trace:sink () in
  let net = Net.create engine () in
  let regions = Array.of_list (Region.server_regions_for n) in
  let logs = Array.make n [] in
  let replicas =
    Array.init n (fun i ->
        Stob.create underlay ~engine ~self:i ~n
          ~send:(fun ~dst ~bytes m -> Net.send net ~src:i ~dst ~bytes m)
          ~deliver:(fun p -> logs.(i) <- p :: logs.(i))
          ~payload_bytes:String.length ())
  in
  Array.iteri
    (fun i r -> Net.add_node net ~id:i ~region:regions.(i) ~handler:(Stob.receive r) ())
    replicas;
  for k = 0 to 29 do
    Engine.schedule engine ~delay:(0.1 +. (0.02 *. float_of_int k)) (fun () ->
        Stob.broadcast replicas.(k mod n) ("p" ^ string_of_int k))
  done;
  List.iter
    (fun i -> Engine.schedule engine ~delay:0.3 (fun () -> Stob.crash replicas.(i)))
    crash;
  Engine.run ~until:horizon engine;
  Printf.printf "%s %s events=%d\n" name label
    (Trace.Counter.value (Trace.Sink.counter sink ~cat:"sim" ~name:"steps"));
  for i = 0 to n - 1 do
    let log = List.rev logs.(i) in
    Printf.printf "  replica %d delivered=%d log=%s\n" i (Stob.delivered_count replicas.(i))
      (Digest.to_hex (Digest.string (String.concat "," log)))
  done

let baseline label proto =
  let module B = Repro_experiments.Baseline_run in
  let r =
    B.run
      { (B.default proto) with
        n_servers = 4; rate = 1000.; duration = 10.; warmup = 2.; cooldown = 2. }
  in
  let h = r.B.latency in
  let module H = Trace.Hist in
  Printf.printf "baseline %s throughput=%h latency n=%d mean=%h min=%h max=%h p50=%h p99=%h\n"
    label r.B.throughput (H.count h) (H.mean h) (H.min h) (H.max h)
    (H.percentile h 0.5) (H.percentile h 0.99)

let () =
  List.iter
    (fun name ->
      schedule name ~label:"benign" ~seed:1L ~crash:[] ~horizon:60.;
      schedule name ~label:"crash-follower" ~seed:2L ~crash:[ 2 ] ~horizon:90.)
    [ ("sequencer", Stob.Sequencer); ("pbft", Stob.Pbft); ("hotstuff", Stob.Hotstuff) ];
  baseline "bft-smart" Repro_experiments.Baseline_run.Bftsmart;
  baseline "hotstuff" Repro_experiments.Baseline_run.Hotstuff_base
