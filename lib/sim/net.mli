(** Point-to-point network model.

    Messages are OCaml values; their {e wire size} is supplied by the
    sender (protocol modules compute it with the paper's encoding
    constants, see {!Repro_chopchop.Wire}).  Delivery time of a message of
    [b] bytes from node [s] to node [d] is

    {v egress-queueing(s) + b/egress_bps(s) + latency(region s, region d)
      + ingress-queueing(d) + b/ingress_bps(d) v}

    i.e. both NICs are modelled as serialising queues, which is what makes
    servers bandwidth-bottleneck at high load (Fig. 9).  Per-node byte
    counters expose the "network rate" series of Fig. 9.

    The ['msg] parameter is the deployment's message union type; protocol
    state machines never see this module directly — they are handed
    [send] callbacks (dependency inversion keeps {!Repro_stob} and
    {!Repro_chopchop} independent of each other's wire formats).

    Node ids are small dense ints, so the node table is an array indexed
    by id: a send finds both ends without hashing.  Each node's NIC
    queues keep their next free instants in an all-float record, which
    stores them unboxed, so a send writes them without allocating. *)

type 'msg t

val create : Engine.t -> ?loss:float -> unit -> 'msg t
(** [loss] is the probability a {e lossy} send is dropped (default 0);
    reliable sends never drop.  Chop Chop's client↔broker traffic is UDP
    with an in-house retransmission layer (§5.1): we model it as a lossy
    channel, and the client/broker state machines carry the
    retransmission logic. *)

val add_node :
  'msg t ->
  id:int ->
  region:Region.t ->
  ?ingress_bps:float ->
  ?egress_bps:float ->
  ?kind:string ->
  handler:(src:int -> 'msg -> unit) ->
  unit ->
  unit
(** Register a node.  Default speeds are the {e effective} WAN goodput of
    a server (5 Gb/s down / 3.125 Gb/s up): the c6i.8xlarge NIC is
    12.5 Gb/s, AWS upload is half of that (§6.4), and sustained long-haul
    TCP recovers only a fraction — calibrated against Fig. 9's peak
    measured server ingress of ~0.5 GB/s.

    [kind] names the {!Engine.kind} bucket that the profiler attributes
    this node's delivery events to (arrival enqueue and handler dispatch
    both count as work done for the destination); omitted nodes land in
    the ["other"] bucket.

    Ids need not be contiguous, but the table is as long as the largest
    id, so they should be small.  Sending from or to an id no node was
    added at raises [Invalid_argument "Net: unknown node <id>"].
    @raise Invalid_argument on a duplicate or negative id. *)

val send : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Reliable delivery (TCP-like). *)

val send_lossy : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Subject to the network's loss probability (UDP-like). *)

val multicast : 'msg t -> src:int -> dsts:int list -> bytes:int -> 'msg -> unit
(** Send the same message to many destinations (each serialised separately
    on the egress NIC, as distinct unicasts would be). *)

val disconnect : 'msg t -> int -> unit
(** Crash a node: all traffic to and from it is silently dropped from now
    on (used by the failure experiments, Fig. 11a). *)

val reconnect : 'msg t -> int -> unit
(** Undo {!disconnect}: the node's NIC comes back up.  Messages dropped
    while it was down are gone; whether the node catches up is the
    protocol's problem (crash-recovery scenarios, lib/chaos). *)

val is_connected : 'msg t -> int -> bool

(** {2 Scheduled fault injection}

    The knobs behind [lib/chaos]'s network events.  They extend the single
    uniform [loss] probability with partitions, per-link asymmetric loss
    and per-link latency degradation.  All of them are cheap to leave
    unused: the fault-free send path performs one extra boolean load. *)

val partition : 'msg t -> int list list -> unit
(** [partition t groups] splits the network: nodes in different groups
    cannot exchange any traffic (reliable or lossy); packets crossing the
    cut consume sender egress bandwidth and vanish.  Nodes not listed in
    any group implicitly belong to group 0 (so a minority can be isolated
    by listing only it as a second group).  A new call replaces the
    previous partition. *)

val heal : 'msg t -> unit
(** Remove the partition.  In-flight messages are unaffected; traffic sent
    across the former cut while it existed is lost for good. *)

val partitioned : 'msg t -> bool

val partition_groups : 'msg t -> int list list option
(** The active partition, reconstructed as sorted explicit groups (group
    ids ascending, node ids ascending within each).  Nodes never listed in
    the {!partition} call belong to the implicit group 0 and are not
    repeated here.  [None] when the network is whole — the doctor's view
    of the cut. *)

val set_link_loss : 'msg t -> src:int -> dst:int -> float -> unit
(** Directed per-link loss probability for {e lossy} sends, composed
    independently with the uniform [loss] knob ([p = 1-(1-u)(1-l)]).
    Asymmetric by construction: set (a,b) without (b,a) to degrade one
    direction only.  A value [<= 0] clears the override. *)

val degrade_link : 'msg t -> src:int -> dst:int -> extra_latency:float -> unit
(** Directed extra propagation latency on {e all} traffic (reliable and
    lossy) over the link — a congested or rerouted WAN path.  A value
    [<= 0] clears the override. *)

val bytes_sent : 'msg t -> int -> int
val bytes_received : 'msg t -> int -> int
(** Cumulative NIC counters (payload bytes). *)

val node_region : 'msg t -> int -> Region.t

val server_default_ingress_bps : float
val server_default_egress_bps : float
