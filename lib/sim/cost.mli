(** Calibrated CPU cost model.

    All costs are expressed in {e single-core seconds of one reference
    core} (a vCPU of the AWS c6i.8xlarge every server, broker and load
    client runs on in §6.2).  {!Cpu} schedules these durations over a
    node's worker lanes, so a cost's wall-clock impact depends on its job
    class: divisible (parallel) work finishes [cores] times faster on a
    full machine, serial work does not.  The two anchor points come
    straight from the paper's microbenchmark (§3.2):

    - classic batch authentication: 16.2 batches/s {e per machine} of
      65,536 Ed25519 signatures, batch-verified ⇒ ~1.98 core-seconds per
      batch;
    - distilled batch authentication: 457.1 batches/s per machine, i.e.
      aggregation of 65,536 BLS12-381 public keys plus one
      multi-signature verification ⇒ ~70 core-milliseconds per batch.

    Both anchor workloads parallelize perfectly, so scheduling them over
    32 lanes recovers the paper's machine rates exactly.  Remaining
    constants are standard single-core figures for the named primitives.
    Clients run on t3.small (1 core, ~1.5x slower); their costs carry a
    separate factor.  The actual OCaml execution time of the
    simulation-grade crypto never leaks into results. *)

val vcpus : int
(** Parallelism of the reference server (32) — the default lane count a
    server or broker {!Cpu} is created with. *)

val classic_batch_rate : float
(** §3.2 anchor: classic batches of {!anchor_batch} authenticated per
    second per machine (16.2). *)

val distilled_batch_rate : float
(** §3.2 anchor: fully distilled batches of {!anchor_batch}
    authenticated per second per machine (457.1). *)

val anchor_batch : float
(** Messages per anchor batch (65,536). *)

(* Server-side, single-core seconds. *)

val ed25519_batch_verify : int -> float
(** Cost of batch-verifying [n] individual signatures (divisible). *)

val ed25519_verify : float
(** One isolated verification (no batching amortization). *)

val bls_aggregate_pks : int -> float
(** Aggregating [n] public keys (divisible). *)

val bls_verify : float
(** One multi-signature verification against an aggregate key — a
    pairing, inherently serial. *)

val bls_aggregate_sigs : int -> float
(** Aggregating [n] multi-signature shares (brokers do this). *)

val hash_per_byte : float
(** Cryptographic hashing (blake3-class). *)

val merkle_build : leaves:int -> leaf_bytes:int -> float
(** Building a Merkle tree over a batch. *)

val ceil_log2 : int -> int
(** Smallest [k] with [2^k >= n]; 0 for [n <= 1].  Integer-exact at
    powers of two, unlike float [log]/[ceil]. *)

val merkle_verify_proof : leaves:int -> float

val dedup_per_message : float
(** Sequence-number check + last-message comparison per payload (§5.2,
    identifier-sorted parallel deduplication). *)

val serialize_per_byte : float
(** Serialization / memory traffic per byte handled. *)

(* Durable storage (lib/store's per-node disk model).  Device-side
   timings — not core-seconds, not scheduled over lanes. *)

val disk_fsync_s : float
(** Latency of one fsync'd append (datacenter NVMe, ~120 us). *)

val disk_write_bps : float
(** Sustained sequential write bandwidth (bytes/s). *)

val disk_read_bps : float
(** Sequential read bandwidth — recovery replay streams at this rate. *)

(* Client-side (t3.small: 1 core, slower clock). *)

val client_multisig_sign : float
