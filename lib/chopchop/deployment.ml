module Engine = Repro_sim.Engine
module Net = Repro_sim.Net
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Region = Repro_sim.Region
module Multisig = Repro_crypto.Multisig
module Store = Repro_store.Store
module Disk = Repro_store.Disk
module Fleet = Repro_fleet.Fleet
module Rudp = Repro_sim.Rudp
module Int_table = Repro_sim.Int_table
module Stob = Repro_stob.Stob

type underlay = Stob.underlay = Sequencer | Pbft | Hotstuff

type config = {
  n_servers : int;
  spare_servers : int; (* idle machine slots that can [join_server] later *)
  n_brokers : int;
  cores : int; (* worker lanes per server/broker CPU *)
  underlay : underlay;
  dense_clients : int;
  flush_period : float;
  reduce_timeout : float;
  witness_margin : int;
  max_batch : int;
  net_loss : float;
  seed : int64;
  stob_batch_timeout : float; (* PBFT leader batching window *)
  fleet : Fleet.mode option;
      (* lib/fleet scale-out: home clients on brokers by seeded hash
         (None = classic deployment) *)
  store_enabled : bool; (* per-server durable state (lib/store) *)
  checkpoint_every : int; (* snapshot every k deliveries (when enabled) *)
  trace : Repro_trace.Trace.Sink.t;
}

let default_config =
  { n_servers = 4; spare_servers = 0; n_brokers = 2; cores = Cost.vcpus;
    underlay = Sequencer; dense_clients = 0;
    flush_period = 0.2; reduce_timeout = 0.2;
    witness_margin = 1; max_batch = 65_536; net_loss = 0.; seed = 42L;
    stob_batch_timeout = 0.05; fleet = None;
    store_enabled = false; checkpoint_every = 64;
    trace = Repro_trace.Trace.Sink.null () }

let margin_for_size n =
  if n <= 8 then 0 else if n <= 16 then 1 else if n <= 32 then 2 else 4

let paper_config ~n_servers ~underlay =
  { n_servers; spare_servers = 0; n_brokers = 6; cores = Cost.vcpus; underlay;
    dense_clients = 257_000_000;
    flush_period = 1.0; reduce_timeout = 1.0;
    witness_margin = margin_for_size n_servers; max_batch = 65_536;
    net_loss = 0.; seed = 42L; stob_batch_timeout = 0.1;
    fleet = None;
    store_enabled = false; checkpoint_every = 1024;
    trace = Repro_trace.Trace.Sink.null () }

type msg =
  | C2b_udp of Proto.client_to_broker Rudp.packet
  | B2c_udp of Proto.broker_to_client Rudp.packet
  | B2s of Proto.broker_to_server
  | S2b of Proto.server_to_broker
  | S2s of Proto.server_to_server
  | Stob of Stob_item.t Stob.msg

type broker_slot = {
  br : Broker.t;
  br_node : int;
  br_cpu : Cpu.t;
}

type t = {
  cfg : config;
  capacity : int; (* n_servers + spare_servers machine slots *)
  membership : Membership.t; (* deployment-level routing view *)
  engine : Engine.t;
  net : msg Net.t;
  directory : Directory.t;
      (* owns the dense population; every server holds a replica of it *)
  mutable servers : Server.t array;
  server_cpus : Cpu.t array;
  server_pks : Multisig.public_key array;
  certs : Certs.checker; (* every certificate check, against [server_pks] *)
  stores : (Proto.checkpoint, Proto.wal_record) Store.t option array;
  mutable stobs : Stob_item.t Stob.t array;
  mutable brokers : broker_slot array;
  (* The tables read on every client packet are keyed by int (node ids,
     client ids, packed node pairs).  Iterating one never orders events:
     see {!recover_broker} and {!node_of_client}. *)
  broker_of_node : int Int_table.t; (* broker node -> broker id *)
  client_nodes : int Int_table.t; (* client id -> node *)
  clients_by_node : Client.t Int_table.t;
  mutable next_node : int;
  mutable next_client_region : int;
  mutable deliver_hook : int -> Proto.delivery -> unit;
  (* lib/fleet scale-out (None/unused in a classic deployment). *)
  fleet : Fleet.t option;
  client_home : (int, int) Hashtbl.t; (* client node -> home broker *)
  links : link Int_table.t; (* {!link_key} of (broker node, client node) *)
}

(* One client node's reliable-UDP link to one broker node (§5.1), built
   on first use: each direction's sender, and its receiver at the far end.
   ACKs ride the data direction's union member back. *)
and link = {
  up : Proto.client_to_broker Rudp.sender; (* at the client *)
  up_recv : Proto.client_to_broker Rudp.receiver; (* at the broker *)
  down : Proto.broker_to_client Rudp.sender; (* at the broker *)
  down_recv : Proto.broker_to_client Rudp.receiver; (* at the client *)
}

(* One int for a (broker node, client node) pair: node ids are dense
   from 0, far below 2^31, so the two halves never overlap.  A tuple key
   would be allocated, hashed and compared generically on every packet.
   Every caller passes node ids the deployment made; a client's sign-up
   nonce is checked against them first (see [send_anon]). *)
let link_key ~client_node ~broker_node = (broker_node lsl 31) lor client_node

let link t ~client_node ~broker_node =
  let key = link_key ~client_node ~broker_node in
  match Int_table.find t.links key with
  | l -> l
  | exception Not_found ->
    let lossy ~src ~dst bytes m = Net.send_lossy t.net ~src ~dst ~bytes m in
    let to_broker = lossy ~src:client_node ~dst:broker_node in
    let to_client = lossy ~src:broker_node ~dst:client_node in
    let broker = t.brokers.(Int_table.find t.broker_of_node broker_node).br in
    let l =
      { up =
          Rudp.sender ~engine:t.engine ~transmit:(fun pkt ->
              to_broker (Rudp.packet_bytes pkt) (C2b_udp pkt));
        up_recv =
          Rudp.receiver ~deliver:(Broker.receive_client broker)
            ~send_ack:(fun seq -> to_client Rudp.ack_wire (C2b_udp (Rudp.Ack { seq })));
        down =
          Rudp.sender ~engine:t.engine ~transmit:(fun pkt ->
              to_client (Rudp.packet_bytes pkt) (B2c_udp pkt));
        down_recv =
          Rudp.receiver
            ~deliver:(fun m ->
              (match m with
               | Proto.Signup_response { id; _ } ->
                 Int_table.replace t.client_nodes id client_node
               | Proto.Inclusion _ | Proto.Deliver_cert _ -> ());
              match Int_table.find t.clients_by_node client_node with
              | c -> Client.receive c m
              | exception Not_found -> ())
            ~send_ack:(fun seq -> to_broker Rudp.ack_wire (B2c_udp (Rudp.Ack { seq }))) }
    in
    Int_table.add t.links key l;
    l

let engine t = t.engine
let config t = t.cfg
let directory t = t.directory
let certs t = t.certs
let servers t = t.servers
let broker t i = t.brokers.(i).br
let n_brokers t = Array.length t.brokers
let broker_node_id t i = t.brokers.(i).br_node
let broker_cpu t i = t.brokers.(i).br_cpu
let server_cpu t i = t.server_cpus.(i)

let run t ~until = Engine.run ~until t.engine

let server_ingress_bytes t i = Net.bytes_received t.net i

let server_cpu_backlog t i = Cpu.backlog t.server_cpus.(i)

let server_deliver_hook t hook = t.deliver_hook <- hook

(* --- brokers -------------------------------------------------------------- *)

let install_broker t ~region ~flush_period ~reduce_timeout ~max_batch ?cores
    ?capacity ?ingress_bps ?egress_bps () =
  let broker_id = Array.length t.brokers in
  let node = t.next_node in
  t.next_node <- node + 1;
  let cores = Option.value cores ~default:t.cfg.cores in
  (* Broker rows sit at 1000+id in the trace (see Broker.tr_actor); the
     cpu's job_done instants share that actor so the no-send-before-
     completion invariant can be checked per broker. *)
  let cpu =
    Cpu.create t.engine ~cores ?capacity ~actor:(1000 + broker_id)
      ~kind:"cpu.broker" ()
  in
  let cfg_b =
    { Broker.broker_id; n_servers = t.cfg.n_servers;
      clients = max t.cfg.dense_clients 1024;
      flush_period; reduce_timeout;
      witness_margin = t.cfg.witness_margin; max_batch }
  in
  Option.iter (fun fl -> ignore (Fleet.register fl)) t.fleet;
  (* Every broker, in a fleet or not, reads any server's directory: all
     correct servers hold the same one (signups flow through the STOB);
     use server 0's. *)
  let b =
    Broker.create ~engine:t.engine ~cpu ~config:cfg_b
      ~directory:(Server.directory t.servers.(0))
      ~membership:t.membership
      ~certs:t.certs
      ~send_server:(fun ~dst ~bytes m -> Net.send t.net ~src:node ~dst ~bytes (B2s m))
      ~send_client:(fun ~client ~bytes m ->
        match Int_table.find t.client_nodes client with
        | dst -> Rudp.send (link t ~client_node:dst ~broker_node:node).down ~bytes m
        | exception Not_found -> ())
      ~send_anon:(fun ~nonce ~bytes m ->
        (* Sign-up responses route by nonce = the client's node id.  The
           nonce comes from the client unchecked: one that is not a client
           node would name no link, or, packed by {!link_key}, another
           pair's, so its response is dropped. *)
        if Int_table.mem t.clients_by_node nonce then
          Rudp.send (link t ~client_node:nonce ~broker_node:node).down ~bytes m)
      ~stob_signup:(fun item ->
        (* Brokers are clients of the STOB: relay sign-ups via an *active*
           server (the hinted slot may be a spare or have left). *)
        match item with
        | Stob_item.Signup { card; nonce; _ } ->
          let dst =
            Option.value ~default:0
              (Membership.next_active t.membership ~from:(broker_id mod t.capacity)
                 ~skip:None)
          in
          Net.send t.net ~src:node ~dst ~bytes:(Stob_item.wire_bytes item)
            (B2s (Proto.Relay_signup { card; nonce }))
        | Stob_item.Batch_ref _ | Stob_item.Reconfigure _ -> ())
      ()
  in
  Net.add_node t.net ~id:node ~region ?ingress_bps ?egress_bps
    ~kind:"net.broker"
    ~handler:(fun ~src m ->
      match m with
      | C2b_udp (Rudp.Data _ as pkt) ->
        Rudp.receiver_on_data (link t ~client_node:src ~broker_node:node).up_recv pkt
      | B2c_udp (Rudp.Ack { seq }) ->
        Rudp.sender_on_ack (link t ~client_node:src ~broker_node:node).down seq
      | S2b m -> Broker.receive_server b ~src m
      | C2b_udp (Rudp.Ack _) | B2c_udp (Rudp.Data _)
      | B2s _ | S2s _ | Stob _ -> ())
    ();
  Int_table.replace t.broker_of_node node broker_id;
  t.brokers <-
    Array.append t.brokers
      [| { br = b; br_node = node; br_cpu = cpu } |];
  Broker.start b;
  broker_id

(* --- construction ----------------------------------------------------------- *)

(* One server instance wired into slot [slot]'s pre-existing network node,
   CPU, store and STOB handle.  Used both at construction time and by
   {!replace_server} to install a fresh identity in a vacated slot. *)
let build_server t ~slot ~ms_sk ~directory ~membership ~stob =
  Server.create ~engine:t.engine ~cpu:t.server_cpus.(slot)
    ~config:{ Server.self = slot; n = t.capacity;
              clients = max t.cfg.dense_clients 1024 }
    ?store:t.stores.(slot) ~checkpoint_every:t.cfg.checkpoint_every
    ~stob_cursor:(fun () -> Stob.cursor stob)
    ~stob_resume:(fun cursor -> Stob.resume_at stob ~cursor)
    ~membership
    ~set_server_pk:(fun j pk -> t.server_pks.(j) <- pk)
    ~on_self_leave:(fun () ->
      Net.disconnect t.net slot;
      Stob.crash t.stobs.(slot))
    ~directory ~ms_sk
    ~certs:t.certs
    ~send_broker:(fun ~broker ~bytes m ->
      if broker < Array.length t.brokers then
        Net.send t.net ~src:slot ~dst:t.brokers.(broker).br_node ~bytes (S2b m))
    ~send_server:(fun ~dst ~bytes m ->
      Net.send t.net ~src:slot ~dst ~bytes (S2s m))
    ~stob_broadcast:(Stob.broadcast stob)
    ~deliver_app:(fun d -> t.deliver_hook slot d)
    ()

let create cfg =
  (* A disabled sink holds no events, only counters: give every
     deployment its own, so deployments built from one config value do
     not share a counter table. *)
  let cfg =
    if Repro_trace.Trace.Sink.enabled cfg.trace then cfg
    else { cfg with trace = Repro_trace.Trace.Sink.null () }
  in
  let engine = Engine.create ~seed:cfg.seed ~trace:cfg.trace () in
  let net = Net.create engine ~loss:cfg.net_loss () in
  let n = cfg.n_servers in
  let capacity = n + max 0 cfg.spare_servers in
  let server_regions = Array.of_list (Region.server_regions_for capacity) in
  let server_cpus =
    Array.init capacity (fun i ->
        Cpu.create engine ~cores:cfg.cores ~actor:i ~kind:"cpu.server" ())
  in
  let server_identities =
    Array.init capacity (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "server-%d" i))
  in
  let server_pks = Array.map snd server_identities in
  (* One simulated NVMe device + store per server when durability is on;
     writes are fire-and-forget, so enabling the store never perturbs a
     crash-free run (asserted by test_store's same-seed equivalence). *)
  let stores =
    Array.init capacity (fun _ ->
        if cfg.store_enabled then
          Some (Store.create ~disk:(Disk.create engine ()) ())
        else None)
  in
  let t =
    { cfg; capacity;
      membership = Membership.create ~capacity ~initial:n;
      engine; net;
      directory = Directory.create ~dense_count:cfg.dense_clients ();
      servers = [||]; server_cpus; server_pks;
      certs = Certs.checker ~capacity ~server_ms_pk:(Array.get server_pks);
      stores; stobs = [||];
      brokers = [||];
      broker_of_node = Int_table.create 16;
      client_nodes = Int_table.create 1024;
      clients_by_node = Int_table.create 1024;
      next_node = capacity;
      next_client_region = 0;
      deliver_hook = (fun _ _ -> ());
      fleet =
        (match cfg.fleet with
         | Some Fleet.Hash -> Some (Fleet.create ~seed:cfg.seed ())
         | None -> None);
      client_home = Hashtbl.create 256;
      links = Int_table.create 64 }
  in
  (* Server network nodes dispatch into the instances through [t]: a slot
     whose instance {!replace_server} swapped keeps its node and STOB
     replica.  Nothing is delivered before the engine runs. *)
  for i = 0 to capacity - 1 do
    Net.add_node net ~id:i ~region:server_regions.(i) ~kind:"net.server"
      ~handler:(fun ~src m ->
        match m with
        | B2s m ->
          (match Int_table.find t.broker_of_node src with
           | b -> Server.receive_broker t.servers.(i) ~src_broker:b m
           | exception Not_found -> ())
        | S2s m -> Server.receive_server t.servers.(i) ~src m
        | Stob m -> Stob.receive t.stobs.(i) ~src m
        | C2b_udp _ | B2c_udp _ | S2b _ -> ())
      ()
  done;
  (* Completion-gate the ordering node's outgoing proposal serialization
     on the server's own CPU (the protocol logic itself stays free).  The
     configured batching window is the PBFT leader's; HotStuff keeps its
     own and the sequencer does not batch. *)
  let batch_timeout =
    if cfg.underlay = Pbft then Some cfg.stob_batch_timeout else None
  in
  t.stobs <-
    Array.init capacity (fun i ->
        Stob.create cfg.underlay ~engine ~self:i ~n:capacity ~cpu:server_cpus.(i)
          ~send:(fun ~dst ~bytes m -> Net.send net ~src:i ~dst ~bytes (Stob m))
          ~deliver:(fun item -> Server.on_stob_deliver t.servers.(i) item)
          ~payload_bytes:Stob_item.wire_bytes ?batch_timeout ());
  t.servers <-
    Array.init capacity (fun i ->
        let sv =
          build_server t ~slot:i ~ms_sk:(fst server_identities.(i))
            ~directory:(Directory.replica t.directory)
            ~membership:(Membership.create ~capacity ~initial:n) ~stob:t.stobs.(i)
        in
        Server.start sv;
        sv);
  (* Spare slots idle (crashed + disconnected) until an ordered Join. *)
  for i = n to capacity - 1 do
    Server.crash t.servers.(i);
    Stob.crash t.stobs.(i);
    Net.disconnect t.net i
  done;
  (* Standard brokers, one per continent (§6.2). *)
  let broker_regions = Array.of_list Region.broker_regions in
  for b = 0 to cfg.n_brokers - 1 do
    ignore
      (install_broker t
         ~region:broker_regions.(b mod Array.length broker_regions)
         ~flush_period:cfg.flush_period ~reduce_timeout:cfg.reduce_timeout
         ~max_batch:cfg.max_batch ())
  done;
  t

let add_broker t ~region ?flush_period ?reduce_timeout ?max_batch ?cores
    ?capacity ?ingress_bps ?egress_bps () =
  install_broker t ~region
    ~flush_period:(Option.value flush_period ~default:t.cfg.flush_period)
    ~reduce_timeout:(Option.value reduce_timeout ~default:t.cfg.reduce_timeout)
    ~max_batch:(Option.value max_batch ~default:t.cfg.max_batch)
    ?cores ?capacity ?ingress_bps ?egress_bps ()

(* --- clients ------------------------------------------------------------- *)

let client_region_cycle = Array.of_list Region.client_regions

(* Region round-robin per deployment, not per process: a global cursor
   would make the region assignment — and therefore the trace — depend on
   how many deployments ran earlier in the process. *)
let pick_client_region t region =
  match region with
  | Some r -> r
  | None ->
    let r = client_region_cycle.(t.next_client_region mod Array.length client_region_cycle) in
    t.next_client_region <- t.next_client_region + 1;
    r

(* Broker preference order for a client at [node]/[region], including the
   fleet homing side effects. *)
let client_broker_order t ~node ~region ~identity =
  match t.fleet with
  | Some fl when Fleet.size fl > 0 ->
    (* Fleet partitioning: deterministic home broker plus the ordered
       failover walk.  Dense identities key by id (stable across
       runs); anonymous clients key by their node id. *)
    let key = match identity with Some id -> id | None -> node in
    let order = Fleet.assignment fl ~key () in
    let home = List.hd order in
    Fleet.note_client fl home;
    Hashtbl.replace t.client_home node home;
    order
  | _ ->
    (* Nearest broker first, then the rest. *)
    let all = List.init (Array.length t.brokers) Fun.id in
    List.sort
      (fun a b ->
        Float.compare
          (Region.latency region (Net.node_region t.net t.brokers.(a).br_node))
          (Region.latency region (Net.node_region t.net t.brokers.(b).br_node)))
      all

let add_client t ?region ?identity ?on_delivered ?brokers () =
  let region = pick_client_region t region in
  let node = t.next_node in
  t.next_node <- node + 1;
  let broker_list =
    match brokers with
    | Some bs -> bs
    | None -> client_broker_order t ~node ~region ~identity
  in
  let keypair =
    match identity with
    | Some id -> Directory.dense_keypair t.directory id
    | None -> Types.keypair_of_seed (Printf.sprintf "client-node-%d" node)
  in
  let cfg_c =
    { Client.brokers = broker_list; clients = max t.cfg.dense_clients 1024 }
  in
  let c =
    Client.create ~engine:t.engine ~config:cfg_c ~keypair
      ~membership:t.membership
      ~certs:t.certs
      ~send_broker:(fun ~broker ~bytes m ->
        Rudp.send (link t ~client_node:node ~broker_node:t.brokers.(broker).br_node).up
          ~bytes m)
      ?on_delivered ~nonce:node ()
  in
  (* t3.small-class NIC (its traffic is tiny anyway, §6.2) and the
     reliable-UDP data/ack demultiplexer. *)
  Net.add_node t.net ~id:node ~region ~ingress_bps:5e9 ~egress_bps:5e9
    ~kind:"net.client" ~handler:(fun ~src m ->
      match m with
      | B2c_udp (Rudp.Data _ as pkt) ->
        Rudp.receiver_on_data (link t ~client_node:node ~broker_node:src).down_recv pkt
      | C2b_udp (Rudp.Ack { seq }) ->
        Rudp.sender_on_ack (link t ~client_node:node ~broker_node:src).up seq
      | C2b_udp (Rudp.Data _) | B2c_udp (Rudp.Ack _)
      | B2s _ | S2b _ | S2s _ | Stob _ -> ())
    ();
  Int_table.replace t.clients_by_node node c;
  (match identity with
   | Some id ->
     Int_table.replace t.client_nodes id node;
     Client.force_identity c id
   | None -> ());
  c

let crash_server t i =
  Server.crash t.servers.(i);
  Stob.crash t.stobs.(i);
  Net.disconnect t.net i

let recover_server t i =
  Net.reconnect t.net i;
  Stob.recover t.stobs.(i);
  Server.recover t.servers.(i)

let restart_server t i =
  (* Cold restart: reconnect and resume the STOB underlay, then rebuild the
     chopchop layer from its durable state (WAL replay + peer state
     transfer).  Requires [store_enabled]. *)
  Net.reconnect t.net i;
  Stob.recover t.stobs.(i);
  Server.cold_restart t.servers.(i)

(* --- dynamic membership (ordered reconfiguration) ------------------------ *)

let membership t = t.membership
let capacity t = t.capacity
let server_epoch t i = Server.epoch t.servers.(i)

(* First active slot other than [avoid]: the server through which an
   orchestrated Reconfigure command enters the STOB.  It must itself be a
   live member (a Sequencer underlay forwards via node 0, so slot 0 is
   never removed — see DESIGN.md). *)
let anchor t ~avoid =
  Option.value ~default:0
    (Membership.next_active t.membership ~from:0 ~skip:(Some avoid))

let join_server t i =
  (* Bring a spare slot online: reconnect its node, order the Join through
     a live member, and bootstrap the joiner through cold-restart state
     transfer.  It starts witnessing only once caught up and active. *)
  Net.reconnect t.net i;
  Stob.recover t.stobs.(i);
  ignore (Membership.apply t.membership (Membership.Join i));
  Server.broadcast_reconfigure t.servers.(anchor t ~avoid:i)
    (Membership.Join i) ~ms_pk:(Some t.server_pks.(i));
  Server.cold_restart t.servers.(i)

let leave_server t i =
  (* Order the departure; the leaver tears itself down when the command
     reaches it in the total order (Server.on_self_leave). *)
  ignore (Membership.apply t.membership (Membership.Leave i));
  Server.broadcast_reconfigure t.servers.(anchor t ~avoid:i)
    (Membership.Leave i) ~ms_pk:None

let replace_server t i =
  (* The old identity is gone for good: crash it, install a fresh instance
     with a new keypair and an empty store in the same slot, roll the
     committee via an ordered Replace, and bootstrap the newcomer through
     state transfer. *)
  Server.crash t.servers.(i);
  Stob.crash t.stobs.(i);
  Net.disconnect t.net i;
  let gen = Membership.generation t.membership i + 1 in
  ignore (Membership.apply t.membership (Membership.Replace (i, gen)));
  let ms_sk, ms_pk =
    Multisig.keygen_deterministic
      ~seed:(Printf.sprintf "server-%d-gen-%d" i gen)
  in
  t.server_pks.(i) <- ms_pk;
  if t.cfg.store_enabled then
    t.stores.(i) <- Some (Store.create ~disk:(Disk.create t.engine ()) ());
  let membership =
    Membership.create ~capacity:t.capacity ~initial:t.cfg.n_servers
  in
  (* The directory is shared infrastructure (dense prefix + explicit
     cards); the newcomer re-learns explicit entries through WAL replay
     against the same object. *)
  let directory = Server.directory t.servers.(i) in
  let sv =
    build_server t ~slot:i ~ms_sk ~directory ~membership ~stob:t.stobs.(i)
  in
  t.servers.(i) <- sv;
  Server.start sv;
  Server.broadcast_reconfigure t.servers.(anchor t ~avoid:i)
    (Membership.Replace (i, gen)) ~ms_pk:(Some ms_pk);
  Net.reconnect t.net i;
  Stob.recover t.stobs.(i);
  Server.cold_restart sv

(* --- raw traffic injection (adversarial workload drivers) ----------------- *)

(* A bare network presence that can push arbitrary client->broker messages
   through the usual reliable-UDP channel: the substrate for spam and
   sybil load in lib/workload.  Returns the send function. *)
let add_injector t ?region () =
  let region = pick_client_region t region in
  let node = t.next_node in
  t.next_node <- node + 1;
  (* Only ACKs are taken in: data a broker sends back goes unacknowledged. *)
  Net.add_node t.net ~id:node ~region ~ingress_bps:5e9 ~egress_bps:5e9
    ~kind:"net.client" ~handler:(fun ~src m ->
      match m with
      | C2b_udp (Rudp.Ack { seq }) ->
        Rudp.sender_on_ack (link t ~client_node:node ~broker_node:src).up seq
      | _ -> ())
    ();
  fun ~broker ~bytes m ->
    Rudp.send (link t ~client_node:node ~broker_node:t.brokers.(broker).br_node).up
      ~bytes m

(* --- durable-state introspection (metrics probes, bench gate) ----------- *)

let with_store t i ~default f =
  match t.stores.(i) with Some s -> f s | None -> default

let server_wal_bytes t i = with_store t i ~default:0 Store.wal_bytes_total
let server_wal_records t i = with_store t i ~default:0 Store.wal_records_total
let server_checkpoints t i = with_store t i ~default:0 Store.checkpoints

let server_snapshot_bytes t i =
  with_store t i ~default:0 Store.last_checkpoint_bytes

let server_disk_backlog t i =
  with_store t i ~default:0. (fun s -> Disk.backlog (Store.disk s))

let server_catching_up t i = Server.catching_up t.servers.(i)

(* --- backlog sites (doctor diagnosis, sampler series) ------------------- *)

let max_over n f =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let v = f i in
    if v > !acc then acc := v
  done;
  !acc

(* Servers are the configured roster; brokers are counted live, so fleets
   grown past the config ({!add_broker}) are covered in full. *)
let over_brokers f t = max_over (n_brokers t) (fun i -> f t i)
let over_servers f t = max_over t.cfg.n_servers (fun i -> f t i)

let backlog_sites =
  [ ("broker.pool",
     over_brokers (fun t i -> float_of_int (Broker.pool_depth (broker t i))));
    ("broker.batches_in_flight",
     over_brokers (fun t i ->
         float_of_int (Broker.batches_in_flight (broker t i))));
    ("broker.cpu_backlog_s", over_brokers (fun t i -> Cpu.backlog (broker_cpu t i)));
    ("server.order_queue",
     over_servers (fun t i ->
         float_of_int (Server.order_queue_depth t.servers.(i))));
    ("server.cpu_backlog_s", over_servers server_cpu_backlog);
    ("server.disk_backlog_s", over_servers server_disk_backlog);
    ("engine.queue", fun t -> float_of_int (Engine.pending t.engine)) ]

let set_server_app t i ~snapshot ~restore =
  Server.set_app_hooks t.servers.(i) ~snapshot ~restore

let crash_broker t i =
  Broker.crash t.brokers.(i).br;
  Net.disconnect t.net t.brokers.(i).br_node

let recover_broker t i =
  Net.reconnect t.net t.brokers.(i).br_node;
  Broker.recover t.brokers.(i).br;
  (* Fleet rebalance: the clients homed on the recovered broker (only a
     fleet homes clients) point their rotation at the head of the
     preference list again, with their backoff forgotten.  Each rehome
     sets only its own client's fields, so the order is immaterial. *)
  Int_table.iter
    (fun node c ->
      if Hashtbl.find_opt t.client_home node = Some i then Client.rehome c)
    t.clients_by_node

(* --- fleet introspection (lib/fleet) ------------------------------------- *)

let fleet t = t.fleet

let fleet_hottest t =
  match t.fleet with Some fl -> Fleet.hottest fl | None -> None

(* A client sits at one node, so at most one binding matches and the
   fold order is immaterial. *)
let node_of_client t c =
  Int_table.fold
    (fun node c' acc -> if c' == c then Some node else acc)
    t.clients_by_node None

let crash_client t c =
  Client.crash c;
  match node_of_client t c with
  | Some node -> Net.disconnect t.net node
  | None -> ()

(* Network fault passthroughs (lib/chaos): node ids are servers
   [0, n_servers), then {!broker_node_id}, then {!node_of_client}. *)

let partition t groups = Net.partition t.net groups
let heal t = Net.heal t.net
let partition_groups t = Net.partition_groups t.net
let server_connected t i = Net.is_connected t.net i
let partitioned t = Net.partitioned t.net
let set_link_loss t ~src ~dst p = Net.set_link_loss t.net ~src ~dst p

let degrade_link t ~src ~dst ~extra_latency =
  Net.degrade_link t.net ~src ~dst ~extra_latency
