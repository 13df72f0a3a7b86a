type shard_result = { shards : int; per_shard : float; aggregate : float }

let shard_params scale =
  let n, rate, duration, warmup, cooldown =
    match scale with
    | Figures.Quick -> (4, 2e6, 12., 4., 3.)
    | Figures.Full -> (16, 8e6, 16., 5., 4.)
  in
  { Chopchop_run.default with
    n_servers = n; rate; duration; warmup; cooldown; measure_clients = 2 }

let sharding ~scale ~shards =
  List.map
    (fun k ->
      let results =
        List.init k (fun i ->
            Chopchop_run.run
              { (shard_params scale) with seed = Int64.of_int (1000 + i) })
      in
      let total =
        List.fold_left (fun a r -> a +. r.Chopchop_run.throughput) 0. results
      in
      { shards = k; per_shard = total /. float_of_int k; aggregate = total })
    shards

type offload_result = {
  servers : int;
  baseline_capacity : float;
  offloaded_capacity : float;
}

(* Offloading moves the per-key aggregation term from the witnessing
   servers to the (untrusted, horizontally scalable) brokers. *)
let pk_offload ~servers =
  List.map
    (fun n ->
      { servers = n;
        baseline_capacity = Ceiling.witness_cpu ~n_servers:n ~distill_fraction:1.;
        offloaded_capacity = Ceiling.witness_cpu_offloaded ~n_servers:n })
    servers

let print fmt scale =
  Format.fprintf fmt "@.=== §8 future work — sharding (independent instances) ===@.";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %d shard%s -> %10.3g op/s aggregate (%10.3g per shard)@."
        r.shards (if r.shards > 1 then "s" else " ") r.aggregate r.per_shard)
    (sharding ~scale ~shards:[ 1; 2; 4 ]);
  Format.fprintf fmt
    "@.=== §8 future work — public-key aggregation offload (capacity model) ===@.";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %2d servers: %10.3g op/s with server-side aggregation -> %10.3g op/s offloaded (%.1fx)@."
        r.servers r.baseline_capacity r.offloaded_capacity
        (r.offloaded_capacity /. r.baseline_capacity))
    (pk_offload ~servers:[ 8; 16; 32; 64 ])
