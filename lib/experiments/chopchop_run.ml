module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Stats = Repro_sim.Stats
module Hist = Repro_trace.Trace.Hist
module Cpu = Repro_sim.Cpu
module D = Repro_chopchop.Deployment
module Wire = Repro_chopchop.Wire
module Server = Repro_chopchop.Server
module Client = Repro_chopchop.Client
module Load_broker = Repro_workload.Load_broker

type params = {
  n_servers : int;
  cores : int; (* worker lanes per server/broker CPU *)
  underlay : D.underlay;
  rate : float;
  batch_count : int;
  msg_bytes : int;
  distill_fraction : float;
  n_load_brokers : int;
  n_brokers : int; (* fleet size: 0 keeps the paper roster, no lib/fleet *)
  measure_clients : int;
  duration : float;
  warmup : float;
  cooldown : float;
  crash : (float * int list) option;
  dense_clients : int;
  seed : int64;
  flush_period : float;
  reduce_timeout : float;
  witness_margin : int option; (* None: the paper's per-size default *)
  store : bool; (* per-server durable storage model (lib/store) *)
  checkpoint_every : int; (* batches between checkpoints when [store] *)
  trace : Repro_trace.Trace.Sink.t;
  metrics : Repro_metrics.Metrics.t option;
  on_delivery : (int -> Repro_chopchop.Proto.delivery -> unit) option;
  profile : bool; (* attach the engine profiler (lib/prof) for this run *)
}

let default =
  { n_servers = 64; cores = Repro_sim.Cost.vcpus; underlay = D.Pbft;
    rate = 1_000_000.; batch_count = 65_536;
    msg_bytes = 8; distill_fraction = 1.0; n_load_brokers = 2; n_brokers = 0;
    measure_clients = 8;
    duration = 20.; warmup = 6.; cooldown = 4.;
    crash = None; dense_clients = 257_000_000; seed = 42L;
    flush_period = 1.0; reduce_timeout = 1.0; witness_margin = None;
    store = false; checkpoint_every = 64;
    trace = Repro_trace.Trace.Sink.null (); metrics = None;
    on_delivery = None; profile = false }

type result = {
  offered : float;
  throughput : float;
  latency : Hist.t; (* end-to-end, measurement clients, in the window *)
  input_rate_bps : float;
  network_rate_bps : float;
  goodput_bps : float;
  server_cpu : float;
  broker_cpu_busy_s : float; (* CPU seconds charged across all brokers *)
  stored_bytes_max : int;
  delivered_messages : int; (* total at server 0, whole run *)
  decisions : int; (* batches delivered at server 0, whole run *)
  wal_bytes : int; (* WAL appended at server 0; 0 when store is off *)
  prof : Repro_prof.Prof.report option; (* present iff [profile] was set *)
}

let useful_bytes_per_msg ~clients ~msg_bytes =
  Wire.distilled_entry_bytes ~clients ~msg_bytes

let run p =
  let base = D.paper_config ~n_servers:p.n_servers ~underlay:p.underlay in
  let cfg =
    { base with
      cores = p.cores;
      n_brokers = (if p.n_brokers > 0 then p.n_brokers else base.n_brokers);
      fleet =
        (if p.n_brokers > 0 then Some Repro_fleet.Fleet.Hash else base.fleet);
      dense_clients = p.dense_clients;
      max_batch = p.batch_count;
      seed = p.seed;
      flush_period = p.flush_period;
      reduce_timeout = p.reduce_timeout;
      witness_margin = Option.value p.witness_margin ~default:base.witness_margin;
      store_enabled = p.store;
      checkpoint_every = p.checkpoint_every;
      trace = p.trace }
  in
  let d = D.create cfg in
  let engine = D.engine d in
  (* Profiling is write-only observation (lib/prof): attaching it changes
     no event, no RNG draw, no delivery — proven bit-identical by
     test_prof. *)
  let prof = if p.profile then Some (Repro_prof.Prof.attach engine) else None in
  (* Load brokers at OVH, splitting the offered rate evenly.  Each one
     must ship every batch to all servers, so its egress NIC bounds how
     much load it can generate: provision enough of them (the paper uses
     up to 64 OVH machines). *)
  let batches_per_s = p.rate /. float_of_int p.batch_count in
  let one_load_broker =
    (* With 30% headroom on its NIC. *)
    Ceiling.broker_egress
      ~egress_bps:(0.7 *. Repro_sim.Net.server_default_egress_bps)
      ~n_servers:p.n_servers ~clients:p.dense_clients ~count:p.batch_count
      ~msg_bytes:p.msg_bytes
      ~stragglers:
        (int_of_float
           (ceil ((1. -. p.distill_fraction) *. float_of_int p.batch_count)))
  in
  let needed = int_of_float (ceil (p.rate /. one_load_broker)) in
  let n_load_brokers = max p.n_load_brokers (max 1 needed) in
  let lb_regions = Array.of_list Region.load_broker_regions in
  let loads =
    List.init n_load_brokers (fun i ->
        let lb_cfg =
          (* Few ranges per load broker: replaying a range with a higher
             round tag is fresh traffic, and a compact id space keeps the
             directory's lazy prefix sums small. *)
          { (Load_broker.default_config
               ~first_id:(i * 4 * p.batch_count)) with
            rate = batches_per_s /. float_of_int n_load_brokers;
            batch_count = p.batch_count;
            msg_bytes = p.msg_bytes;
            distill_fraction = p.distill_fraction;
            ranges = 4 }
        in
        Load_broker.create ~deployment:d
          ~region:lb_regions.(i mod Array.length lb_regions)
          ~config:lb_cfg ())
  in
  (* Measurement clients broadcasting back-to-back small messages through
     the real (distilling) brokers. *)
  (* One measurement window: server-0 deliveries for throughput, client
     latencies for the latency row. *)
  let w = Stats.Window.create engine ~warmup:p.warmup ~cooldown:p.cooldown ~duration:p.duration in
  (* Measure identities sit at the top of the id space, far from the load
     ranges.  Clients pump back-to-back: a new message as soon as the
     previous one completes would need a completion callback per message;
     the client queue does it — keep a couple of messages in flight
     locally. *)
  let clients =
    List.init p.measure_clients (fun i ->
        D.add_client d ~identity:(p.dense_clients - 1 - i)
          ~on_delivered:(fun _ ~latency -> Stats.Window.latency w latency)
          ())
  in
  let k_pump = Some (Engine.kind engine "exp.pump") in
  (* A server delivers a client's message only if it differs from that
     client's previous one, so each payload is the client's own send
     counter: its last [msg_bytes] decimal digits, zero-padded. *)
  let payload n =
    let s = Printf.sprintf "%0*d" p.msg_bytes n in
    String.sub s (String.length s - p.msg_bytes) p.msg_bytes
  in
  let rec pump c n () =
    if Engine.now engine < p.duration then begin
      let n =
        if Client.pending c < 2 then begin
          Client.broadcast c (payload n);
          n + 1
        end
        else n
      in
      Engine.schedule ?kind:k_pump engine ~delay:0.5 (pump c n)
    end
  in
  List.iter
    (fun c -> Engine.schedule ?kind:k_pump engine ~delay:0.2 (pump c 0))
    clients;
  D.server_deliver_hook d (fun srv del ->
      if srv = 0 then Stats.Window.record w (Repro_chopchop.Proto.delivery_count del);
      match p.on_delivery with Some f -> f srv del | None -> ());
  (* Crash schedule. *)
  (match p.crash with
   | Some (time, victims) ->
     Engine.schedule engine ~delay:time (fun () ->
         List.iter (fun i -> D.crash_server d i) victims)
   | None -> ());
  (* Ingress byte sampling at the window boundaries (surviving servers). *)
  let alive i =
    match p.crash with Some (_, vs) -> not (List.mem i vs) | None -> true
  in
  let servers_alive = List.filter alive (List.init p.n_servers Fun.id) in
  let ingress_at_start = Array.make p.n_servers 0 in
  Engine.schedule engine ~delay:p.warmup (fun () ->
      List.iter (fun i -> ingress_at_start.(i) <- D.server_ingress_bytes d i) servers_alive);
  let ingress_at_end = Array.make p.n_servers 0 in
  let stored_max = ref 0 in
  (* Honest windowed server CPU: mark per-lane executed work at warmup,
     read the utilization over [warmup, duration - cooldown]. *)
  let cpu_marks = Array.make p.n_servers None in
  Engine.schedule engine ~delay:p.warmup (fun () ->
      List.iter
        (fun i -> cpu_marks.(i) <- Some (Cpu.mark (D.server_cpu d i)))
        servers_alive);
  let cpu_at_end = Array.make p.n_servers 0. in
  Engine.schedule engine ~delay:(p.duration -. p.cooldown) (fun () ->
      List.iter
        (fun i ->
          match cpu_marks.(i) with
          | Some since ->
            cpu_at_end.(i) <- Cpu.utilization (D.server_cpu d i) ~since
          | None -> ())
        servers_alive;
      List.iter (fun i -> ingress_at_end.(i) <- D.server_ingress_bytes d i) servers_alive);
  let k_sampler = Engine.kind engine "exp.sampler" in
  Engine.every ~kind:k_sampler engine ~period:1.0 ~until:p.duration (fun () ->
      Array.iter
        (fun sv -> stored_max := max !stored_max (Server.stored_bytes sv))
        (D.servers d));
  (* Time-series sampling: probes over every node role, ticked on the sim
     clock so two same-seed runs produce bit-identical series. *)
  (match p.metrics with
   | None -> ()
   | Some m ->
     let module M = Repro_metrics.Metrics in
     let module Trace = Repro_trace.Trace in
     let sink = (D.config d).D.trace in
     if Trace.enabled sink then M.mirror m ~sink ~actor:9999;
     let n_alive () = float_of_int (List.length servers_alive) in
     M.rate_probe m "throughput.ops" ~labels:[ ("role", "server") ] (fun () ->
         float_of_int (Server.delivered_messages (D.servers d).(0)));
     let net_bytes = Trace.Sink.counter sink ~cat:"net" ~name:"bytes" in
     M.rate_probe m "net.bytes_per_s" ~labels:[ ("role", "wan") ] (fun () ->
         float_of_int (Trace.Counter.value net_bytes));
     (* Utilization probes are windowed over the sampling interval: each
        probe re-marks its CPUs, so a sample reports the busy fraction
        since the previous sample, not a lifetime average. *)
     let probe_marks =
       Array.init p.n_servers (fun i -> Cpu.mark (D.server_cpu d i))
     in
     M.probe m "cpu.util" ~labels:[ ("role", "server") ] (fun () ->
         List.fold_left
           (fun acc i ->
             let cpu = D.server_cpu d i in
             let u = Cpu.utilization cpu ~since:probe_marks.(i) in
             probe_marks.(i) <- Cpu.mark cpu;
             acc +. u)
           0. servers_alive
         /. n_alive ());
     (* Per-lane series for server 0: lane imbalance (a serial hot lane
        next to idle ones) is invisible in the machine-wide average. *)
     let cpu0 = D.server_cpu d 0 in
     for lane = 0 to Cpu.cores cpu0 - 1 do
       let lane_mark = ref (Cpu.mark cpu0) in
       M.probe m "cpu.lane_util"
         ~labels:[ ("role", "server"); ("lane", string_of_int lane) ]
         (fun () ->
           let u = Cpu.lane_utilization cpu0 ~since:!lane_mark lane in
           lane_mark := Cpu.mark cpu0;
           u);
       M.probe m "cpu.lane_backlog_s"
         ~labels:[ ("role", "server"); ("lane", string_of_int lane) ]
         (fun () -> Cpu.lane_backlog cpu0 lane)
     done;
     let broker_marks =
       Array.init (D.n_brokers d) (fun i -> Cpu.mark (D.broker_cpu d i))
     in
     M.probe m "cpu.util" ~labels:[ ("role", "broker") ] (fun () ->
         let acc = ref 0. in
         for i = 0 to D.n_brokers d - 1 do
           (* Brokers added after probe registration (none today) would
              need re-initialised marks; guard on the snapshot length. *)
           if i < Array.length broker_marks then begin
             let cpu = D.broker_cpu d i in
             acc := !acc +. Cpu.utilization cpu ~since:broker_marks.(i);
             broker_marks.(i) <- Cpu.mark cpu
           end
         done;
         !acc /. float_of_int (max 1 (Array.length broker_marks)));
     (* The same backlog sites the doctor ranks, one series each. *)
     List.iter (fun (site, f) -> M.probe m site (fun () -> f d)) D.backlog_sites;
     (* Ring-sink drops as a live series, so a truncated trace is visible
        in the metrics themselves. *)
     M.probe m "trace.dropped" ~labels:[ ("role", "trace") ] (fun () ->
         float_of_int (Trace.Sink.dropped sink));
     (* The engine queue's all-time high-water mark: pressure between
        samples is invisible to a periodic gauge; the envelope is not. *)
     M.probe m "engine.max_queue_depth" ~labels:[ ("role", "engine") ]
       (fun () -> float_of_int (Engine.max_pending engine));
     if p.store then begin
       M.rate_probe m "wal.bytes_per_s" ~labels:[ ("role", "server") ]
         (fun () -> float_of_int (D.server_wal_bytes d 0));
       M.probe m "snapshot.bytes" ~labels:[ ("role", "server") ] (fun () ->
           float_of_int (D.server_snapshot_bytes d 0))
     end;
     (* ~inclusive:false: a sample landing exactly on [duration] would
        read the post-run world (load stopped, queues drained) into the
        last row of the series. *)
     Engine.every ~kind:k_sampler ~inclusive:false engine ~period:(M.period m)
       ~until:p.duration (fun () -> M.sample m ~now:(Engine.now engine)));
  (* Start the load. *)
  List.iteri
    (fun i lb ->
      let phase =
        float_of_int i /. float_of_int n_load_brokers
        /. Float.max batches_per_s 1.
        *. float_of_int n_load_brokers
      in
      Load_broker.start lb ~until:p.duration ~phase ())
    loads;
  D.run d ~until:(p.duration +. 15.);
  let span = Stats.Window.span w in
  let net_rate =
    let sum =
      List.fold_left
        (fun acc i -> acc + (ingress_at_end.(i) - ingress_at_start.(i)))
        0 servers_alive
    in
    float_of_int sum /. float_of_int (List.length servers_alive) /. span
  in
  let per_msg = useful_bytes_per_msg ~clients:p.dense_clients ~msg_bytes:p.msg_bytes in
  let throughput = Stats.Window.rate w in
  let cpu =
    let sum = List.fold_left (fun acc i -> acc +. cpu_at_end.(i)) 0. servers_alive in
    sum /. float_of_int (List.length servers_alive)
  in
  let broker_cpu_busy_s =
    let acc = ref 0. in
    for i = 0 to D.n_brokers d - 1 do
      acc := !acc +. Cpu.busy_seconds (D.broker_cpu d i)
    done;
    !acc
  in
  { offered = p.rate;
    throughput;
    latency = Stats.Window.latencies w;
    input_rate_bps = p.rate *. per_msg;
    network_rate_bps = net_rate;
    goodput_bps = throughput *. per_msg;
    server_cpu = cpu;
    broker_cpu_busy_s;
    stored_bytes_max = !stored_max;
    delivered_messages = Server.delivered_messages (D.servers d).(0);
    decisions = Server.delivery_counter (D.servers d).(0);
    wal_bytes = D.server_wal_bytes d 0;
    prof =
      Option.map
        (fun pr ->
          let r = Repro_prof.Prof.report pr in
          Repro_prof.Prof.detach pr;
          r)
        prof }

let pp_latency fmt h =
  if Hist.count h = 0 then Format.pp_print_string fmt "no samples"
  else Format.fprintf fmt "%.2f±%.2f s" (Hist.mean h) (Hist.stddev h)

let pp_result fmt r =
  Format.fprintf fmt
    "offered %.3g op/s -> %.3g op/s, lat %a, in %.3g B/s, net %.3g B/s, good %.3g B/s, cpu %.1f%%"
    r.offered r.throughput pp_latency r.latency r.input_rate_bps
    r.network_rate_bps r.goodput_bps (100. *. r.server_cpu)
