(** Generic Chop Chop experiment runner.

    Drives a {!Repro_chopchop.Deployment} with load brokers at a target
    input rate and a handful of real measurement clients (the paper
    separates load generation from latency measurement, §6.2), then
    reports the §6 metrics over the warmup/cooldown-trimmed window. *)

type params = {
  n_servers : int;
  cores : int; (* worker lanes per server/broker CPU (paper: 32) *)
  underlay : Repro_chopchop.Deployment.underlay;
  rate : float; (* offered load, messages per second *)
  batch_count : int;
  msg_bytes : int;
  distill_fraction : float;
  n_load_brokers : int;
  n_brokers : int;
      (* broker fleet size: 0 (default) keeps the paper's roster with the
         legacy nearest-first client routing; N > 0 deploys N brokers
         under the lib/fleet hash-partitioned client policy *)
  measure_clients : int;
  duration : float;
  warmup : float;
  cooldown : float;
  crash : (float * int list) option; (* (time, server indices) *)
  dense_clients : int; (* directory width (257 M in the paper) *)
  seed : int64;
  flush_period : float; (* broker collection window (1 s in the paper) *)
  reduce_timeout : float; (* distillation timeout (1 s in the paper) *)
  witness_margin : int option; (* None: paper default for the size *)
  store : bool;
      (* enable the per-server durable-storage model: WAL appends and
         periodic checkpoints on a simulated disk (lib/store); adds
         WAL/snapshot metrics probes when [metrics] is also set *)
  checkpoint_every : int; (* batches between checkpoints when [store] *)
  trace : Repro_trace.Trace.Sink.t;
      (* observability sink (default: null); its counters are the run's
         only counter registry *)
  metrics : Repro_metrics.Metrics.t option;
      (* when set, the run registers probes (throughput, CPU, net rate,
         trace drops, and every {!Repro_chopchop.Deployment.backlog_sites}
         queue) and ticks the registry's sampler on the sim clock *)
  on_delivery : (int -> Repro_chopchop.Proto.delivery -> unit) option;
      (* observer called on every server delivery (after the runner's own
         throughput accounting) — [Cell] uses it to drive application
         state machines without replacing the deployment's hook *)
  profile : bool;
      (* attach the engine self-profiler (lib/prof) for this run; the
         report lands in [result.prof].  Write-only observation: the sim
         output is bit-identical either way *)
}

val default : params
(** 64 servers, BFT-SMaRt-style underlay, 8 B messages, 65,536-message
    fully distilled batches, 20 s run with 6 s warmup / 4 s cooldown. *)

type result = {
  offered : float; (* op/s *)
  throughput : float; (* delivered op/s at server 0 over the window *)
  latency : Repro_trace.Trace.Hist.t;
      (* end-to-end seconds of measurement-client messages completing
         inside the window; may be empty *)
  input_rate_bps : float; (* useful bytes offered per second *)
  network_rate_bps : float; (* mean server NIC ingress over the window *)
  goodput_bps : float; (* useful bytes delivered per second *)
  server_cpu : float; (* mean server utilisation over the window *)
  broker_cpu_busy_s : float;
      (* single-core CPU seconds charged across all brokers (incl. load
         brokers), whole run — the broker-efficiency bench numerator *)
  stored_bytes_max : int; (* peak batch store across servers (GC pressure) *)
  delivered_messages : int; (* total messages at server 0, whole run *)
  decisions : int; (* batches delivered at server 0, whole run *)
  wal_bytes : int; (* WAL bytes appended at server 0; 0 when store is off *)
  prof : Repro_prof.Prof.report option; (* present iff [params.profile] *)
}

val run : params -> result

val pp_result : Format.formatter -> result -> unit
(** One line; the latency reads ["no samples"] when [latency] is empty. *)
