(* The three workloads: seeded inputs, timed set-up, timed run, and the
   correctness check and simulated outcome of one run.  The system is
   driven only through its public modules (Deployment, Broker, Client,
   Load_broker, Fleet, Engine). *)

module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Net = Repro_sim.Net
module D = Repro_chopchop.Deployment
module Broker = Repro_chopchop.Broker
module Client = Repro_chopchop.Client
module Server = Repro_chopchop.Server
module Proto = Repro_chopchop.Proto
module Wire = Repro_chopchop.Wire
module Fleet = Repro_fleet.Fleet
module Load_broker = Repro_workload.Load_broker
module Trace = Repro_trace.Trace
module Summary = Repro_sim.Stats.Summary
module Clock = Repro_prof.Prof.Clock

type name = Dense_pbft64 | Classic_fleet | Distill_clients

let all = [ Dense_pbft64; Classic_fleet; Distill_clients ]

let to_string = function
  | Dense_pbft64 -> "dense-pbft64"
  | Classic_fleet -> "classic-fleet"
  | Distill_clients -> "distill-clients"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* [Small] shrinks every workload to a fraction of a second, for tests. *)
type size = Full | Small

(* --- parameters ---------------------------------------------------------- *)

(* dense-pbft64: Fig. 7's largest system under open-loop dense load. *)
type dense = {
  d_servers : int;
  d_batch : int; (* messages per load-broker batch *)
  d_rate : float; (* offered load, msg/s *)
  d_load_s : float; (* simulated seconds of injection *)
  d_clients : int; (* closed-loop measurement clients *)
  d_client_msgs : int;
  d_horizon : float; (* simulated end of the run, drain included *)
}

(* classic-fleet: the §6.3 broker fleet at its all-straggler endpoint. *)
type fleet = {
  f_servers : int;
  f_brokers : int;
  f_batch : int;
  f_dense_clients : int;
  f_capacity : float; (* broker lane speed, fraction of a reference core *)
  f_egress_bps : float; (* per-broker NIC cap *)
  f_period : float; (* injection tick *)
  f_ticks : int;
  f_horizon : float;
}

(* distill-clients: real closed-loop clients on the distilled path. *)
type distill = {
  c_servers : int;
  c_clients : int;
  c_client_msgs : int;
  c_horizon : float;
}

let dense_params = function
  | Full ->
    { d_servers = 64; d_batch = 4096; d_rate = 100_000.; d_load_s = 6.;
      d_clients = 4; d_client_msgs = 3; d_horizon = 15. }
  | Small ->
    { d_servers = 8; d_batch = 512; d_rate = 5_000.; d_load_s = 1.;
      d_clients = 2; d_client_msgs = 1; d_horizon = 8. }

let fleet_params = function
  | Full ->
    { f_servers = 4; f_brokers = 2; f_batch = 1024; f_dense_clients = 1_000_000;
      f_capacity = 0.05; f_egress_bps = 25e6; f_period = 0.02; f_ticks = 12;
      f_horizon = 6. }
  | Small ->
    { f_servers = 4; f_brokers = 2; f_batch = 64; f_dense_clients = 100_000;
      f_capacity = 0.05; f_egress_bps = 25e6; f_period = 0.02; f_ticks = 2;
      f_horizon = 4. }

let distill_params = function
  | Full -> { c_servers = 4; c_clients = 1000; c_client_msgs = 6; c_horizon = 22. }
  | Small -> { c_servers = 4; c_clients = 8; c_client_msgs = 2; c_horizon = 10. }

(* Egress ceiling of one fleet broker at the classic (all-straggler) wire
   footprint; the fleet is offered 1.3x its brokers' aggregate bound. *)
let fleet_nic_bound p =
  let batch_bytes =
    Wire.distilled_batch_bytes ~clients:p.f_dense_clients ~count:p.f_batch
      ~msg_bytes:8 ~stragglers:p.f_batch
  in
  p.f_egress_bps /. 8.
  /. (float_of_int (batch_bytes * p.f_servers) /. float_of_int p.f_batch)

let fleet_per_tick p =
  int_of_float (1.3 *. float_of_int p.f_brokers *. fleet_nic_bound p *. p.f_period)

(* --- seeded inputs -------------------------------------------------------- *)

type inputs = {
  workload : name;
  size : size;
  deployment_seed : int64;
  first_id : int; (* base of the workload's dense identities *)
  phases : float array; (* dense-pbft64: load-broker start offsets, in
                           units of one batch interval *)
  payloads : string array array; (* per closed-loop client, in order *)
  submissions : Gen.submission array; (* classic-fleet's pre-signed load *)
}

let inputs workload size ~seed =
  let st = Gen.rng seed in
  let deployment_seed = Int64.of_int (Random.State.bits st) in
  let base =
    { workload; size; deployment_seed; first_id = 0; phases = [||];
      payloads = [||]; submissions = [||] }
  in
  match workload with
  | Dense_pbft64 ->
    let p = dense_params size in
    { base with
      (* One per load broker; the offered rate needs far fewer than 64. *)
      phases = Array.init 64 (fun i -> float_of_int i +. Random.State.float st 1.);
      payloads = Gen.payloads st ~clients:p.d_clients ~per_client:p.d_client_msgs }
  | Classic_fleet ->
    let p = fleet_params size in
    let first_id = Random.State.int st (p.f_dense_clients / 2) in
    { base with
      first_id;
      submissions =
        Gen.signed_submissions st ~first_id
          ~count:(p.f_ticks * fleet_per_tick p) }
  | Distill_clients ->
    let p = distill_params size in
    { base with
      first_id = Random.State.int st 1_000_000;
      payloads = Gen.payloads st ~clients:p.c_clients ~per_client:p.c_client_msgs }

(* --- set-up ----------------------------------------------------------------- *)

type env = {
  inputs : inputs;
  d : D.t;
  horizon : float;
  clients : int;
  digests : Check.digest array; (* per server *)
  mutable log0 : (float * Proto.delivery) list; (* server 0, newest first *)
  client_latencies : Summary.t;
  mutable injected_at : float array; (* classic-fleet: per submission *)
  mutable submitted : unit -> int;
  mutable start : unit -> unit; (* schedules the load at time 0 *)
  mutable load_brokers : Load_broker.t list;
  mutable client_heap_words : float; (* live words the clients added *)
}

let make_env inputs d ~horizon ~clients =
  let n = (D.config d).D.n_servers in
  let env =
    { inputs; d; horizon; clients;
      digests = Array.init n (fun _ -> Check.digest ());
      log0 = []; client_latencies = Summary.create (); injected_at = [||];
      submitted = (fun () -> 0); start = ignore; load_brokers = [];
      client_heap_words = 0. }
  in
  let engine = D.engine d in
  D.server_deliver_hook d (fun i del ->
      Check.add env.digests.(i) del;
      if i = 0 then env.log0 <- (Engine.now engine, del) :: env.log0);
  env

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* Closed-loop clients: client [i] broadcasts [payloads.(i)] in order,
   keeping at most two messages pending (one in flight, one queued); each
   delivery releases the next.  [measure_heap] brackets the additions with
   full collections. *)
let add_closed_loop_clients env ~identity ~measure_heap =
  let d = env.d in
  let engine = D.engine d in
  let payloads = env.inputs.payloads in
  let n = Array.length payloads in
  let next = Array.make n 0 in
  let clients = Array.make n None in
  let send i =
    match clients.(i) with
    | Some c when next.(i) < Array.length payloads.(i) ->
      Client.broadcast c payloads.(i).(next.(i));
      next.(i) <- next.(i) + 1
    | _ -> ()
  in
  let before = if measure_heap then live_words () else 0. in
  for i = 0 to n - 1 do
    clients.(i) <-
      Some
        (D.add_client d ~identity:(identity i)
           ~on_delivered:(fun _ ~latency ->
             Summary.add env.client_latencies latency;
             send i)
           ())
  done;
  if measure_heap then env.client_heap_words <- live_words () -. before;
  let k_inject = Engine.kind engine Ledger.inject_kind in
  fun () ->
    for i = 0 to n - 1 do
      Engine.schedule ~kind:k_inject engine ~delay:0. (fun () ->
          send i;
          send i)
    done

let setup_dense inputs ~measure_heap =
  let p = dense_params inputs.size in
  let base = D.paper_config ~n_servers:p.d_servers ~underlay:D.Pbft in
  let d =
    D.create
      { base with seed = inputs.deployment_seed; store_enabled = true }
  in
  let env = make_env inputs d ~horizon:p.d_horizon ~clients:p.d_clients in
  (* Enough load brokers that their NICs carry the offered rate (the
     paper uses up to 64 OVH machines), each cycling over its own four
     dense ranges. *)
  let batches_per_s = p.d_rate /. float_of_int p.d_batch in
  let batch_bytes =
    Wire.distilled_batch_bytes ~clients:base.D.dense_clients ~count:p.d_batch
      ~msg_bytes:8 ~stragglers:0
  in
  let needed =
    ceil
      (batches_per_s *. float_of_int (batch_bytes * 8 * p.d_servers)
       /. (Net.server_default_egress_bps *. 0.7))
  in
  let n_lb = max 2 (int_of_float needed) in
  let regions = Array.of_list Region.load_broker_regions in
  let lbs =
    List.init n_lb (fun i ->
        Load_broker.create ~deployment:d
          ~region:regions.(i mod Array.length regions)
          ~config:
            { (Load_broker.default_config ~first_id:(i * 4 * p.d_batch)) with
              rate = batches_per_s /. float_of_int n_lb;
              batch_count = p.d_batch;
              ranges = 4 }
          ())
  in
  (* Measurement identities sit at the top of the id space. *)
  let start_clients =
    add_closed_loop_clients env ~measure_heap
      ~identity:(fun i -> base.D.dense_clients - 1 - i)
  in
  env.load_brokers <- lbs;
  env.submitted <-
    (fun () ->
      List.fold_left (fun acc lb -> acc + Load_broker.submitted lb) 0 lbs
      * p.d_batch
      + (p.d_clients * p.d_client_msgs));
  env.start <-
    (fun () ->
      start_clients ();
      List.iteri
        (fun i lb ->
          Load_broker.start lb ~until:p.d_load_s
            ~phase:(inputs.phases.(i) /. batches_per_s)
            ())
        lbs);
  env

let setup_fleet inputs =
  let p = fleet_params inputs.size in
  let d =
    D.create
      { D.default_config with
        n_servers = p.f_servers; n_brokers = 0; underlay = D.Sequencer;
        dense_clients = p.f_dense_clients; fleet = Some Fleet.Hash;
        seed = inputs.deployment_seed;
        (* [default_config] is one value, so its sink (and the counters
           registered on it) would be shared by every deployment built
           from it in this process. *)
        trace = Trace.Sink.null () }
  in
  let env = make_env inputs d ~horizon:p.f_horizon ~clients:0 in
  let per_broker = fleet_nic_bound p in
  let regions = Array.of_list Region.broker_regions in
  for b = 0 to p.f_brokers - 1 do
    ignore
      (D.add_broker d
         ~region:regions.(b mod Array.length regions)
         ~flush_period:(float_of_int p.f_batch /. (1.3 *. per_broker))
         ~reduce_timeout:0.05 ~max_batch:p.f_batch ~cores:32
         ~capacity:p.f_capacity ~egress_bps:p.f_egress_bps ())
  done;
  let subs = inputs.submissions in
  env.injected_at <- Array.make (Array.length subs) nan;
  env.submitted <- (fun () -> Array.length subs);
  env.start <-
    (fun () ->
      let engine = D.engine d in
      let fl = Option.get (D.fleet d) in
      let k_inject = Engine.kind engine Ledger.inject_kind in
      let per_tick = fleet_per_tick p in
      (* Open loop: a fixed batch of submissions every tick, each into
         its identity's home broker; nobody answers the inclusions, so
         every batch ships classic. *)
      let rec tick k () =
        let now = Engine.now engine in
        for j = k * per_tick to ((k + 1) * per_tick) - 1 do
          let s = subs.(j) in
          env.injected_at.(j) <- now;
          Broker.receive_client
            (D.broker d (Fleet.home fl ~key:s.Gen.s_id ()))
            (Proto.Submission
               { id = s.s_id; seq = 0; msg = s.s_msg; tsig = s.s_sig;
                 evidence = None; ctx = Trace.Ctx.make ~root:s.s_id })
        done;
        if k + 1 < p.f_ticks then
          Engine.schedule ~kind:k_inject engine ~delay:p.f_period (tick (k + 1))
      in
      Engine.schedule ~kind:k_inject engine ~delay:p.f_period (tick 0));
  env

let setup_distill inputs ~measure_heap =
  let p = distill_params inputs.size in
  let base = D.paper_config ~n_servers:p.c_servers ~underlay:D.Pbft in
  let d = D.create { base with seed = inputs.deployment_seed } in
  let env = make_env inputs d ~horizon:p.c_horizon ~clients:p.c_clients in
  env.start <-
    add_closed_loop_clients env ~measure_heap
      ~identity:(fun i -> inputs.first_id + i);
  env.submitted <- (fun () -> p.c_clients * p.c_client_msgs);
  env

(* Timed from [Deployment.create] to the last component added. *)
let setup ?(measure_heap = false) inputs =
  let t0 = Clock.now () in
  let env =
    match inputs.workload with
    | Dense_pbft64 -> setup_dense inputs ~measure_heap
    | Classic_fleet -> setup_fleet inputs
    | Distill_clients -> setup_distill inputs ~measure_heap
  in
  (env, Clock.now () -. t0)

(* --- run ------------------------------------------------------------------- *)

let counter env cat name =
  let sink = (D.config env.d).D.trace in
  match
    List.find_opt (fun (c, n, _) -> c = cat && n = name) (Trace.Sink.counters sink)
  with
  | Some (_, _, v) -> v
  | None -> 0

type outcome = {
  tput_ops : float; (* delivered at server 0 per simulated second *)
  lat_p50_s : float;
  lat_p99_s : float;
  decisions : int; (* batches delivered at server 0 *)
  sim_events : int;
  net_msgs : int;
}

type result = {
  env : env;
  wall_s : float;
  submitted : int;
  delivered_min : int; (* fewest messages delivered by any server *)
  agree : bool;
  duplicates : int;
  outcome : outcome;
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_collections : int;
  top_heap_words : int;
}

let correct r =
  r.agree && r.duplicates = 0 && r.delivered_min = r.submitted && r.submitted > 0

(* Classic-fleet latency: injection to delivery at server 0. *)
let fleet_latencies env =
  let first = env.inputs.first_id in
  let lats = Summary.create () in
  List.iter
    (fun (t, del) ->
      match del with
      | Proto.Ops ops ->
        Array.iter (fun (id, _) -> Summary.add lats (t -. env.injected_at.(id - first))) ops
      | Proto.Bulk _ -> ())
    env.log0;
  lats

let outcome env =
  let sv0 = (D.servers env.d).(0) in
  let lats =
    match env.inputs.workload with
    | Classic_fleet -> fleet_latencies env
    | Dense_pbft64 | Distill_clients -> env.client_latencies
  in
  let last = match env.log0 with (t, _) :: _ -> t | [] -> 1. in
  { tput_ops = float_of_int (Server.delivered_messages sv0) /. last;
    lat_p50_s = Summary.percentile lats 0.5;
    lat_p99_s = Summary.percentile lats 0.99;
    decisions = Server.delivery_counter sv0;
    sim_events = counter env "sim" "steps";
    net_msgs = counter env "net" "msgs" }

(* [before_run] runs between set-up and the timed region (the traced run
   attaches its observer there). *)
let run ?(before_run = ignore) env =
  env.start ();
  before_run env;
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  D.run env.d ~until:env.horizon;
  let wall_s = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () in
  let delivered_min =
    Array.fold_left (fun acc dg -> min acc dg.Check.count) max_int env.digests
  in
  { env;
    wall_s;
    submitted = env.submitted ();
    delivered_min;
    agree = Check.agree env.digests;
    duplicates = Check.duplicates (List.rev_map snd env.log0);
    outcome = outcome env;
    gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words }
