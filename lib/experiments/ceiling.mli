(** Closed-form throughput ceilings: the "network limit" the paper's
    title names, and the CPU budgets in front of it.

    Every bound is computed here once, from a run's parameters and the
    {!Repro_sim.Cost} anchors (§3.2), the {!Repro_chopchop.Wire} sizes
    and the NIC rates.  Runners size their offered rates from these
    bounds and check their measured points against them with {!check}. *)

val classic_auth_rate : float
(** Classic 65,536-message batches one machine authenticates per second,
    from the cost model's lanes: the §3.2 anchor, 16.2. *)

val distilled_auth_rate : float
(** Fully distilled batches one machine authenticates per second: the
    §3.2 anchor, 457.1. *)

val witness_cpu : n_servers:int -> distill_fraction:float -> float
(** Witness-CPU ceiling, op/s, of an [n_servers] system on 65,536-message
    batches of which [distill_fraction] is distilled: each batch costs
    its f+1+m witnesses one authentication (per §3.2 anchor, by share)
    and every server a delivery pass. *)

val witness_cpu_offloaded : n_servers:int -> float
(** {!witness_cpu} for fully distilled batches with public-key
    aggregation moved to the brokers (§8): a witness pays only the one
    pairing, spread over its lanes. *)

val server_ingress : ingress_bps:float -> clients:int -> msg_bytes:int -> float
(** Server NIC ceiling, op/s: [ingress_bps] over the distilled entry
    (bit-packed id plus payload) of a [clients]-id system. *)

val broker_egress :
  egress_bps:float -> n_servers:int -> clients:int -> count:int ->
  msg_bytes:int -> stragglers:int -> float
(** Egress ceiling, op/s, of one broker (or load broker) behind
    [egress_bps] that ships every batch of [count] entries, [stragglers]
    of them with explicit signatures, to each of [n_servers] servers. *)

val broker_cpu : cores:int -> capacity:float -> max_batch:int -> float
(** CPU ceiling, msg/s, of a broker with [cores] lanes of [capacity]
    reference cores each at [max_batch] messages per batch: one batched
    signature check per message plus five serial pairings per batch. *)

val check : what:string -> delivered:float -> bound:float -> floor:float -> unit
(** Fails ([Failure], message prefixed by [what]) if [delivered] exceeds
    1.05 × [bound], which is a model bug, or lands below [floor] ×
    [bound], a point meant to saturate that did not.  [floor = 0.] checks
    only the ceiling. *)
