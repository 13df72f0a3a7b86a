module Cost = Repro_sim.Cost
module Wire = Repro_chopchop.Wire

(* Single-core batch costs pipelined over the machine's lanes (the serial
   pairing of batch k overlaps the aggregation of batch k+1). *)
let classic_auth_rate =
  float_of_int Cost.vcpus /. Cost.ed25519_batch_verify 65_536

let distilled_auth_rate =
  float_of_int Cost.vcpus
  /. (Cost.bls_aggregate_pks 65_536 +. Cost.bls_verify)

(* Machine-seconds every server spends on each ordered 65,536-message
   batch, witnessed or not: the delivery pass (dedup, serialisation, the
   reference's certificate check).  A fitted constant of this model. *)
let delivery_pass_s = 0.00031

(* Share of all batches one server witnesses: brokers ask f+1+m of n. *)
let witness_share n =
  let asked = ((n - 1) / 3) + 1 + Repro_chopchop.Deployment.margin_for_size n in
  float_of_int asked /. float_of_int n

let per_server_bound witness_s =
  Cost.anchor_batch /. (witness_s +. delivery_pass_s)

let witness_cpu ~n_servers ~distill_fraction =
  let share = witness_share n_servers in
  per_server_bound
    ((share *. (1. -. distill_fraction) /. Cost.classic_batch_rate)
    +. (share *. distill_fraction /. Cost.distilled_batch_rate))

let witness_cpu_offloaded ~n_servers =
  (* bls_verify is a single-core cost; spread it over the machine's lanes. *)
  per_server_bound
    (witness_share n_servers *. (Cost.bls_verify /. float_of_int Cost.vcpus))

let server_ingress ~ingress_bps ~clients ~msg_bytes =
  ingress_bps /. 8. /. Wire.distilled_entry_bytes ~clients ~msg_bytes

let broker_egress ~egress_bps ~n_servers ~clients ~count ~msg_bytes ~stragglers =
  let batch_bytes =
    Wire.distilled_batch_bytes ~clients ~count ~msg_bytes ~stragglers
  in
  let wire_per_msg =
    float_of_int (batch_bytes * n_servers) /. float_of_int count
  in
  egress_bps /. 8. /. wire_per_msg

(* Per message, one Ed25519 signature inside a batched verification (the
   Merkle build and serialisation are orders of magnitude below it); per
   batch, serial work that does not amortise over lanes: the reduce
   aggregate check, f+1 witness shards and the first completion shards
   are each one BLS pairing on a single lane. *)
let broker_cpu ~cores ~capacity ~max_batch =
  float_of_int cores *. capacity
  /. (Cost.ed25519_batch_verify 1
     +. (5. *. Cost.bls_verify /. float_of_int max_batch))

let check ~what ~delivered ~bound ~floor =
  if delivered > 1.05 *. bound then
    failwith
      (Printf.sprintf "%s: delivered %.4g, above 1.05x its bound %.4g" what
         delivered bound);
  if delivered < floor *. bound then
    failwith
      (Printf.sprintf "%s: delivered %.4g, below %.3gx its bound %.4g" what
         delivered floor bound)
