(** Broker saturation sweeps (§5.1, §6.3): "add brokers (or cores) until
    the network is the limit", on one injection harness.

    Raw signed submissions are injected straight into the brokers at ~30%
    above each configuration's own ceiling, behind a deliberately small
    per-broker NIC, and server 0's delivered throughput is measured over
    a fixed window.  Each sweep fails loudly when its shape does not
    hold. *)

val print_cores : Format.formatter -> Figures.scale -> unit
(** One broker with K = 1, 4, 16, 32 worker lanes: few lanes leave it
    CPU-bound, enough lanes saturate it at the NIC bound.  Fails if
    throughput is not monotone in lanes, does not scale from 1 to 32
    lanes, or lands above or far below the NIC bound. *)

val print_scaleout : Format.formatter -> Figures.scale -> unit
(** N = 1, 2, 4, 8 brokers under the fleet's seeded-hash partitioning,
    each identity submitting to its home broker.  Fails if delivered
    throughput is not monotone in fleet size, exceeds the aggregate NIC
    bound, if 2 brokers do not clear the single-broker NIC bound, or if
    4 brokers land below 2.5x that bound. *)

val speedup_4x : unit -> float
(** 4-broker aggregate delivered throughput over the single-broker NIC
    ceiling, at quick scale — the gated bench metric. *)
