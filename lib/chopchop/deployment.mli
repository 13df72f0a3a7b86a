(** Deployment assembly: a full Chop Chop system on the simulator.

    Builds the paper's §6.2 topology — servers balanced across the 14 AWS
    regions, brokers one per continent, clients near their brokers, load
    brokers at OVH — wires every component's callbacks into the network
    model, and instantiates the chosen underlying Atomic Broadcast on the
    servers.  Experiments and tests drive the system exclusively through
    this module. *)

type underlay = Repro_stob.Stob.underlay = Sequencer | Pbft | Hotstuff

type config = {
  n_servers : int;
  spare_servers : int;
      (* extra provisioned-but-inactive server slots, available to
         {!join_server} (node ids [n_servers, n_servers+spare_servers)) *)
  n_brokers : int;
  cores : int;
      (* worker lanes per server/broker CPU (default {!Repro_sim.Cost.vcpus},
         the c6i.8xlarge's 32) *)
  underlay : underlay;
  dense_clients : int; (* pre-provisioned identities (load experiments) *)
  flush_period : float;
  reduce_timeout : float;
  witness_margin : int;
  max_batch : int;
  net_loss : float;
  seed : int64;
  stob_batch_timeout : float; (* PBFT leader batching window *)
  fleet : Repro_fleet.Fleet.mode option;
      (* lib/fleet scale-out: home clients on brokers by seeded hash
         instead of nearest-first; every broker still reads the one Rank
         directory.  [None] (the default) is the classic deployment *)
  store_enabled : bool;
      (* attach a per-server simulated disk + WAL/checkpoint store
         (lib/store); required for {!restart_server} *)
  checkpoint_every : int;
      (* deliveries between application/state snapshots (when enabled) *)
  trace : Repro_trace.Trace.Sink.t;
      (* observability sink shared by every component (default: null) *)
}

val default_config : config
(** 4 servers, 2 brokers, sequencer underlay — the unit-test topology. *)

val margin_for_size : int -> int
(** The paper's witness margin m for a system of [n] servers (0/1/2/4
    up to 8/16/32/64 servers, §6.2): brokers ask f+1+m servers. *)

val paper_config : n_servers:int -> underlay:underlay -> config
(** The §6.2 setup: 6 brokers, witness margin {!margin_for_size},
    65,536-message batches, 257 M dense clients. *)

type t

val create : config -> t

val engine : t -> Repro_sim.Engine.t
(** The deployment's engine.  Its trace sink ({!Repro_sim.Engine.trace})
    is the only counter registry: e.g. [rudp.retransmissions] and
    [rudp.gave_up] count the client<->broker reliable-UDP links (§5.1). *)

val config : t -> config

val directory : t -> Directory.t
(** Owner of the deployment's dense population: servers hold replicas of
    it, and every broker reads server 0's replica. *)

val certs : t -> Certs.checker
(** The one certificate checker that every client, broker and server of
    the deployment checks certificates through. *)

val servers : t -> Server.t array
val broker : t -> int -> Broker.t
val n_brokers : t -> int

val run : t -> until:float -> unit

val add_client :
  t ->
  ?region:Repro_sim.Region.t ->
  ?identity:Types.client_id ->
  ?on_delivered:(Types.message -> latency:float -> unit) ->
  ?brokers:int list ->
  unit ->
  Client.t
(** A fresh client node.  With [identity] the sign-up is skipped (dense,
    pre-provisioned ids); otherwise call {!Client.signup}. *)

val add_broker :
  t ->
  region:Repro_sim.Region.t ->
  ?flush_period:float ->
  ?reduce_timeout:float ->
  ?max_batch:int ->
  ?cores:int ->
  ?capacity:float ->
  ?ingress_bps:float ->
  ?egress_bps:float ->
  unit ->
  int
(** Register an additional broker (load brokers at OVH); returns its
    broker id, usable with {!broker} and in client broker lists.
    [cores]/[capacity] override this broker's CPU (default: the
    deployment's [cores] at full speed); [ingress_bps]/[egress_bps] cap
    its NIC — the knobs of the broker-scalability experiment. *)

val crash_server : t -> int -> unit
(** Crash-stop a server: its Chop Chop layer, its STOB instance, and its
    network interfaces (Fig. 11a). *)

val recover_server : t -> int -> unit
(** {e Warm} recovery (the Fig. 11a experiment): NIC, STOB instance and
    Chop Chop layer come back with their in-memory state intact.  STOB
    slots missed while down are not replayed, so the recovered server is
    a correct prefix but may not catch up.  See {!restart_server} for a
    recovery that does. *)

val restart_server : t -> int -> unit
(** {e Cold} restart from durable state: the server's in-memory state is
    wiped, its checkpoint + WAL replay from the simulated disk, and the
    missed suffix is state-transferred from live peers until the server
    is caught up and live again.
    @raise Invalid_argument unless [store_enabled]. *)

(** {2 Dynamic membership}

    Ordered reconfiguration: each change enters the server-run STOB as a
    {!Stob_item.Reconfigure} command through a live anchor server, so every
    replica rolls its directory, committee and quorum thresholds forward at
    the same delivery rank.  Requires [spare_servers] > 0 for joins. *)

val membership : t -> Membership.t
(** The orchestrator's view of the roster (servers converge to it as the
    ordered commands deliver). *)

val capacity : t -> int
(** Total provisioned server slots, [n_servers + spare_servers]. *)

val server_epoch : t -> int -> int
(** Membership epoch at server [i] (ordered changes it has applied). *)

val join_server : t -> int -> unit
(** Bring slot [i] (a spare, or a previously departed slot) online:
    reconnects its node, orders the [Join], and bootstraps the joiner via
    cold-restart state transfer.  It witnesses only once caught up. *)

val leave_server : t -> int -> unit
(** Order slot [i]'s departure; the leaver tears itself down when the
    command reaches it in the total order.  Never remove slot 0 under the
    sequencer underlay (it is the sequencing node). *)

val replace_server : t -> int -> unit
(** Replace slot [i] with a fresh identity: new multisig keypair, empty
    store, bumped generation.  The newcomer bootstraps through state
    transfer like a join. *)

val add_injector :
  t ->
  ?region:Repro_sim.Region.t ->
  unit ->
  broker:int ->
  bytes:int ->
  Proto.client_to_broker ->
  unit
(** A bare network node that can push arbitrary client->broker messages
    through the usual reliable-UDP channel — the substrate for spam and
    sybil load (lib/workload).  Returns the send function. *)

val crash_broker : t -> int -> unit
(** Crash-stop a broker (by broker id): its state machine and NIC.
    Clients waiting on it time out and fail over (§4.4.2); any other
    broker resolves their identifiers. *)

val recover_broker : t -> int -> unit
(** Un-crash a broker: it resumes batching from its surviving state.  In
    a fleet deployment its clients rehome (rotation reset to the head of
    the preference list). *)

(** {2 Broker fleet (lib/fleet)}

    Populated only when [config.fleet] is set; every probe degrades to
    the neutral value in a classic deployment. *)

val fleet : t -> Repro_fleet.Fleet.t option

val fleet_hottest : t -> (int * int) option
(** [(broker, clients)] of the most loaded partition. *)

val crash_client : t -> Client.t -> unit
(** Crash-stop a client and its network node. *)

val node_of_client : t -> Client.t -> int option
(** The client's network node id (for per-link fault injection). *)

(** {2 Network fault injection}

    Passthroughs to {!Repro_sim.Net} used by [lib/chaos].  Node ids:
    servers occupy [0, n_servers), brokers are found with
    {!broker_node_id}, clients with {!node_of_client}. *)

val partition : t -> int list list -> unit
val heal : t -> unit

val partitioned : t -> bool

(** Active network partition as sorted explicit groups ([None] when the
    network is whole); see {!Repro_sim.Net.partition_groups}.  The
    doctor's view of the cut. *)
val partition_groups : t -> int list list option

(** NIC up/down for server [i] ([Net.is_connected]); false while crashed. *)
val server_connected : t -> int -> bool
val set_link_loss : t -> src:int -> dst:int -> float -> unit
val degrade_link : t -> src:int -> dst:int -> extra_latency:float -> unit

val server_deliver_hook : t -> (int -> Proto.delivery -> unit) -> unit
(** Observe application deliveries: [hook server_index delivery].
    Replaces (not chains) the previous hook. *)

val server_ingress_bytes : t -> int -> int

val server_cpu : t -> int -> Repro_sim.Cpu.t
(** Server [i]'s lane scheduler (per-lane utilization/backlog probes). *)

val broker_cpu : t -> int -> Repro_sim.Cpu.t
(** Broker [i]'s lane scheduler. *)

val broker_node_id : t -> int -> int

(** {2 Durable state (lib/store)}

    Introspection over each server's disk and store; all return the
    neutral value when [store_enabled] is false. *)

val server_wal_bytes : t -> int -> int
(** Cumulative WAL bytes ever appended by server [i]. *)

val server_wal_records : t -> int -> int
val server_checkpoints : t -> int -> int
val server_snapshot_bytes : t -> int -> int

val server_catching_up : t -> int -> bool
(** True while server [i] is between {!restart_server} and live. *)

val backlog_sites : (string * (t -> float)) list
(** Every queue a slow or stalled run backs up in, by site name, each
    the maximum over its nodes: broker pool and batches in flight, broker
    and server CPU backlog (seconds), server order queue, server disk
    backlog (seconds), and the engine's pending events.  The doctor ranks
    them and the run sampler records each as a series. *)

val set_server_app :
  t -> int -> snapshot:(unit -> string) -> restore:(string option -> unit) -> unit
(** Register the application snapshot/restore hooks checkpointing uses
    (see {!Server.set_app_hooks}). *)
