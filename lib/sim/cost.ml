let vcpus = 32

(* Anchors from §3.2 of the paper, measured on c6i.8xlarge (32 vCPU).
   The paper reports machine rates; multiplying by the vCPU count turns
   them into single-core seconds, which is what Cpu lanes consume.  Both
   anchor workloads (batch verification, pk aggregation) are
   embarrassingly parallel, so at 32 lanes the machine rates are
   recovered exactly. *)
let classic_batch_rate = 16.2
(* 65,536 Ed25519 sigs, batch verified: 16.2 batches/s/machine. *)

let distilled_batch_rate = 457.1
(* 65,536 pk aggregation + 1 BLS verify: 457.1 batches/s/machine. *)

let classic_batch_s = float_of_int vcpus /. classic_batch_rate
let distilled_batch_s = float_of_int vcpus /. distilled_batch_rate

let anchor_batch = 65_536.

let bls_verify = 0.0032
(* One pairing-based verification, ~3.2 ms on one core.  Inherently
   serial — a small constant share of the distilled anchor so that
   per-key aggregation dominates, as in the paper. *)

let ed25519_batch_verify n = float_of_int n *. classic_batch_s /. anchor_batch

let bls_aggregate_pks n =
  float_of_int n *. (distilled_batch_s -. bls_verify) /. anchor_batch

let bls_aggregate_sigs n = float_of_int n *. 3.2e-7
(* Field additions (uncompressed point additions) — cheaper than pk
   aggregation, which involves deserialization of directory entries. *)

let ed25519_verify = 70e-6
(* ~70 us single-core Ed25519 verification without batching. *)

let hash_per_byte = 0.4e-9
(* blake3-class, ~2.5 GB/s/core. *)

let merkle_build ~leaves ~leaf_bytes =
  (* Hash every leaf plus the internal nodes (~2x leaf count of 64 B
     compressions). *)
  let leaf_cost = float_of_int (leaves * leaf_bytes) *. hash_per_byte in
  let node_cost = float_of_int (2 * leaves * 64) *. hash_per_byte in
  leaf_cost +. node_cost

let ceil_log2 n =
  if n <= 1 then 0
  else begin
    let k = ref 0 and p = ref 1 in
    while !p < n do
      (* [p] saturates at the int width before overflowing for any
         representable [n]. *)
      p := !p * 2;
      incr k
    done;
    !k
  end

let merkle_verify_proof ~leaves =
  let depth = max 1 (ceil_log2 (max 2 leaves)) in
  float_of_int (depth * 64) *. hash_per_byte

let multisig_sign = 300e-6
(* BLS signing: one hash-to-curve plus one scalar multiplication. *)

let dedup_per_message = 64e-9
(* Sorted-range sequence check; parallelizes across id chunks (§5.2). *)

let serialize_per_byte = 1e-9
(* ~1 GB/s/core of serialization + memory traffic. *)

(* Simulated durable storage (lib/store): a datacenter NVMe device.  A
   write is one fsync'd append — fixed fsync latency plus streaming
   bandwidth; reads (recovery only) stream at a higher rate.  Disk
   timings are device-side, not core-side: no rescale. *)

let disk_fsync_s = 120e-6
let disk_write_bps = 1.2e9
let disk_read_bps = 2.4e9

(* t3.small: one core, ~1.5x slower than a c6i core. *)
let client_factor = 1.5

let client_multisig_sign = multisig_sign *. client_factor
