(** Load brokers (§6.2).

    "Load brokers are unique to Chop Chop.  [...] submitting batches of
    pre-generated messages directly to the servers.  Free from
    interactions with clients and expensive cryptography, a load broker
    puts on the servers a load equivalent to that of tens of brokers
    working at full capacity."

    A load broker registers a broker node at an OVH region and injects
    pre-forged dense batches ({!Repro_chopchop.Batch.forge_dense}) at a
    configured rate, cycling over a set of distinct identity ranges with a
    rising round tag — the stand-in for the paper's 13 TB of pre-generated
    batch files.  The witness round, STOB submission and completion
    tracking reuse the real broker pipeline unchanged
    ({!Repro_chopchop.Broker.submit_prebuilt}).

    When matching total resources (Fig. 10b) each load broker's [rate] is
    capped at ~1 batch/s — a real broker's design-target distillation
    throughput (§5.1), bounded by its 1 s collection window — so load
    brokers are not unfairly cheap. *)

type t

type config = {
  rate : float; (* batches per second *)
  batch_count : int; (* messages per batch (65,536) *)
  msg_bytes : int;
  distill_fraction : float; (* 1.0 = fully distilled; 0.0 = classic batch *)
  ranges : int; (* distinct dense id ranges to cycle over *)
  first_id : int; (* base of this load broker's id space *)
}

val default_config : first_id:int -> config
(** 1 batch/s of 65,536 fully distilled 8-byte messages over 16 ranges. *)

val create :
  deployment:Repro_chopchop.Deployment.t ->
  region:Repro_sim.Region.t ->
  config:config ->
  unit ->
  t
(** Registers the broker node; call {!start} to begin injecting. *)

val start : t -> ?until:float -> ?phase:float -> unit -> unit
(** [phase] delays the first injection — staggering many load brokers so
    their batches do not arrive in synchronised bursts. *)

val submitted : t -> int
(** Batches injected so far. *)

val completed : t -> int
val completed_messages : t -> int

val latencies : t -> Repro_trace.Trace.Hist.t
(** Submission-to-completion latency of completed batches.  Note this
    excludes the distillation window a real client additionally waits
    (collection + reduction, ~2 s at the paper's timeouts): end-to-end
    client latency is measured on real measurement clients instead. *)

val broker_id : t -> int
