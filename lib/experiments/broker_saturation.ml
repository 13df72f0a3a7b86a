(* Broker saturation (§5.1, §6.3): "add brokers (or cores) until the
   network is the limit", measured two ways on one harness.

   - broker-cores: a single broker with K worker lanes faces an offered
     load far above its single-core budget, behind a deliberately small
     NIC.  Few lanes leave it CPU-bound — submissions queue behind
     signature verification and throughput grows with K; enough lanes
     shift the bottleneck to batch dissemination and throughput saturates
     at the NIC bound.
   - broker-scaleout (lib/fleet): N brokers, each behind the same small
     NIC, face an offered load ~30% above the fleet's aggregate network
     ceiling.  One broker saturates at its NIC bound; a fleet of N
     partitions the client population by seeded hash and carries ~N
     times that, end to end through the fleet layer (partitioned clients,
     one Rank directory, shared server-run ordering).

   Load is injected as raw signed [Proto.Submission]s straight into a
   broker (no client nodes): each uses a fresh dense identity at
   sequence 0, which is legitimate by definition and never deduplicated.
   With no clients to answer inclusions, every reduction times out and
   each batch ships classic (all stragglers) — the wire-heaviest, hence
   NIC-sharpest, operating point. *)

module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Schnorr = Repro_crypto.Schnorr
module Fleet = Repro_fleet.Fleet
module D = Repro_chopchop.Deployment
module Broker = Repro_chopchop.Broker
module Directory = Repro_chopchop.Directory
module Types = Repro_chopchop.Types
module Proto = Repro_chopchop.Proto
module Trace = Repro_trace.Trace

type params = {
  n_servers : int;
  dense_clients : int;
  duration : float;
  warmup : float;
  capacity : float; (* broker lane speed, fraction of a reference core *)
  egress_bps : float; (* per-broker NIC cap *)
  reduce_timeout : float;
  max_batch : int;
}

type point = {
  size : int; (* worker lanes (cores) or brokers (scale-out) *)
  offered : float; (* injected, msg/s *)
  throughput : float; (* delivered at server 0 in the window, msg/s *)
  nic_bound : float; (* one broker's egress ceiling at the classic footprint *)
}

(* Egress ceiling of one broker at the classic (all-straggler) wire
   footprint: with no clients answering inclusions, every batch ships with
   all its entries as stragglers, once per server link. *)
let nic_bound p =
  Ceiling.broker_egress ~egress_bps:p.egress_bps ~n_servers:p.n_servers
    ~clients:p.dense_clients ~count:p.max_batch ~msg_bytes:8
    ~stragglers:p.max_batch

let deployment p =
  { D.default_config with
    n_servers = p.n_servers; underlay = D.Sequencer;
    dense_clients = p.dense_clients }

(* One saturation run: add [brokers] brokers of [lanes] lanes each
   (regions cycle through the broker regions), inject [offered] msg/s,
   each identity sent to the broker [route d added] names, and count what
   server 0 delivers inside the measurement window. *)
let run_point ~p ~config ~brokers ~lanes ~offered ~flush_period ~route =
  let d = D.create config in
  let engine = D.engine d in
  let regions = Array.of_list Region.broker_regions in
  let added =
    Array.init brokers (fun b ->
        D.add_broker d
          ~region:regions.(b mod Array.length regions)
          ~flush_period ~reduce_timeout:p.reduce_timeout
          ~max_batch:p.max_batch ~cores:lanes ~capacity:p.capacity
          ~egress_bps:p.egress_bps ())
  in
  let route = route d added in
  let w =
    Repro_sim.Stats.Window.create engine ~warmup:p.warmup ~cooldown:0.
      ~duration:p.duration
  in
  D.server_deliver_hook d (fun srv del ->
      match del with
      | Proto.Ops ops -> if srv = 0 then Repro_sim.Stats.Window.record w (Array.length ops)
      | Proto.Bulk _ -> ());
  let period = 0.02 in
  let per_tick = int_of_float (offered *. period) in
  let next_id = ref 0 in
  Engine.every engine ~period ~until:p.duration (fun () ->
      for _ = 1 to per_tick do
        let id = !next_id in
        incr next_id;
        let kp = Directory.dense_keypair (D.directory d) id in
        let msg = Printf.sprintf "%08d" id in
        let tsig =
          Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg)
        in
        Broker.receive_client (D.broker d (route id))
          (Proto.Submission
             { id; seq = 0; msg; tsig; evidence = None;
               ctx = Trace.Ctx.make ~root:id })
      done);
  (* Let in-flight batches drain so late deliveries inside the window are
     not cut off mid-pipeline. *)
  D.run d ~until:(p.duration +. 5.);
  Repro_sim.Stats.Window.rate w

(* The shape both sweeps exist to show: more lanes or brokers, more
   delivered throughput. *)
let rec monotone ~id ~unit = function
  | a :: (b :: _ as rest) ->
    if b.throughput < a.throughput *. 0.98 then
      failwith
        (Printf.sprintf "%s: throughput fell %d -> %d %s (%.0f -> %.0f)" id
           a.size b.size unit a.throughput b.throughput);
    monotone ~id ~unit rest
  | _ -> ()

(* --- broker-cores: worker lanes until the NIC binds ----------------------- *)

let cores_params = function
  | Figures.Quick ->
    { n_servers = 4; dense_clients = 1_000_000; duration = 8.; warmup = 2.5;
      capacity = 0.05; egress_bps = 55e6; reduce_timeout = 0.05;
      max_batch = 1024 }
  | Figures.Full ->
    { n_servers = 8; dense_clients = 1_000_000; duration = 12.; warmup = 3.;
      capacity = 0.05; egress_bps = 110e6; reduce_timeout = 0.05;
      max_batch = 1024 }

(* Harness budget: never inject above this, msg/s. *)
let rate_cap = 40_000.

let cores_point p cores =
  (* Measure each configuration at its own saturation point (as the
     throughput-latency methodology of Fig. 7 does): inject ~30% above
     the lesser of the CPU and NIC ceilings.  A fixed huge rate would
     only grow unbounded queues and push completions past the window. *)
  let cpu = Ceiling.broker_cpu ~cores ~capacity:p.capacity ~max_batch:p.max_batch in
  let offered = Float.min rate_cap (1.3 *. Float.min cpu (nic_bound p)) in
  let throughput =
    run_point ~p ~config:(deployment p) ~brokers:1 ~lanes:cores ~offered
      (* Flush when roughly a full batch has accumulated. *)
      ~flush_period:(float_of_int p.max_batch /. offered)
      ~route:(fun _ added _ -> added.(0))
  in
  { size = cores; offered; throughput; nic_bound = nic_bound p }

let cores_sweep p =
  let points = List.map (cores_point p) [ 1; 4; 16; 32 ] in
  monotone ~id:"broker-cores" ~unit:"cores" points;
  (match points with
   | [ one; _; _; last ] ->
     if last.throughput < 2. *. one.throughput then
       failwith "broker-cores: no scaling from 1 to 32 lanes";
     (* At 32 lanes the CPU ceiling clears the NIC ceiling: the run must
        actually be network-limited, not stuck far below both. *)
     Ceiling.check ~what:"broker-cores: 32 lanes (bound: NIC)"
       ~delivered:last.throughput ~bound:last.nic_bound ~floor:0.5
   | _ -> assert false);
  points

let print_cores fmt scale =
  Format.fprintf fmt
    "@.=== broker scalability — worker lanes until the NIC binds ===@.";
  let p = cores_params scale in
  let points = cores_sweep p in
  List.iter
    (fun pt ->
      Format.fprintf fmt
        "  %2d cores: %8.0f msg/s delivered (offered %.0f, cpu bound %.0f, nic bound %.0f)@."
        pt.size pt.throughput pt.offered
        (min
           (Ceiling.broker_cpu ~cores:pt.size ~capacity:p.capacity
              ~max_batch:p.max_batch)
           pt.offered)
        pt.nic_bound)
    points;
  let first = List.hd points and last = List.hd (List.rev points) in
  Format.fprintf fmt
    "  -> %.1fx from 1 to %d lanes; saturation at %.0f%% of the NIC bound@."
    (last.throughput /. first.throughput)
    last.size
    (100. *. last.throughput /. last.nic_bound)

(* --- broker-scaleout: fleet size until the network is the limit ----------- *)

let scaleout_params = function
  | Figures.Quick ->
    { n_servers = 4; dense_clients = 1_000_000; duration = 6.; warmup = 2.;
      capacity = 0.05; egress_bps = 25e6; reduce_timeout = 0.05;
      max_batch = 1024 }
  | Figures.Full ->
    { n_servers = 8; dense_clients = 2_000_000; duration = 10.; warmup = 3.;
      capacity = 0.05; egress_bps = 25e6; reduce_timeout = 0.05;
      max_batch = 1024 }

(* Per-broker worker lanes: enough that each broker is NIC-bound. *)
let scaleout_lanes = 32

let scaleout_point p n =
  (* Saturate each configuration at its own ceiling (the Fig. 7
     methodology): ~30% above the fleet's aggregate NIC bound. *)
  let per_broker = nic_bound p in
  let offered = 1.3 *. float_of_int n *. per_broker in
  let throughput =
    run_point ~p
      ~config:{ (deployment p) with n_brokers = 0; fleet = Some Fleet.Hash }
      ~brokers:n ~lanes:scaleout_lanes ~offered
      ~flush_period:(float_of_int p.max_batch /. (1.3 *. per_broker))
      (* Route by the fleet's own partitioning — exactly where a real
         client homed on this identity would submit. *)
      ~route:(fun d _ ->
        let fl = Option.get (D.fleet d) in
        fun id -> Fleet.home fl ~key:id ())
  in
  { size = n; offered; throughput; nic_bound = per_broker }

let scaleout_sweep p =
  let points = List.map (scaleout_point p) [ 1; 2; 4; 8 ] in
  monotone ~id:"broker-scaleout" ~unit:"brokers" points;
  (* Every point stays under the fleet's aggregate NIC bound; 2 brokers
     must clear one broker's bound and 4 must reach 2.5x it. *)
  List.iter
    (fun pt ->
      let floor = match pt.size with 2 -> 1. /. 2. | 4 -> 2.5 /. 4. | _ -> 0. in
      Ceiling.check
        ~what:(Printf.sprintf "broker-scaleout: %d brokers (bound: %d NICs)"
                 pt.size pt.size)
        ~delivered:pt.throughput
        ~bound:(float_of_int pt.size *. pt.nic_bound) ~floor)
    points;
  points

(* Gated bench metric: 4-broker aggregate delivered throughput over the
   single-broker NIC ceiling.  The denominator is analytic, so only the
   4-broker point runs. *)
let speedup_4x () =
  let p = scaleout_params Figures.Quick in
  (scaleout_point p 4).throughput /. nic_bound p

let print_scaleout fmt scale =
  Format.fprintf fmt
    "@.=== broker scale-out — fleet size until the network is the limit ===@.";
  let points = scaleout_sweep (scaleout_params scale) in
  List.iter
    (fun pt ->
      Format.fprintf fmt
        "  %2d brokers: %8.0f msg/s delivered (offered %.0f, 1-broker nic \
         bound %.0f, speedup %.2fx)@."
        pt.size pt.throughput pt.offered pt.nic_bound
        (pt.throughput /. pt.nic_bound))
    points;
  let first = List.hd points and last = List.hd (List.rev points) in
  Format.fprintf fmt
    "  -> %.1fx from 1 to %d brokers; the single-broker NIC bound is not the \
     system's limit@."
    (last.throughput /. first.throughput)
    last.size
