(** Standalone BFT-SMaRt- and HotStuff-style baselines (§6.1, §6.3).

    No mempool, no distillation: every client operation carries an 80 B
    header (8 B id, 8 B sequence number, 64 B signature) that the servers
    verify, and the ordering protocol itself moves the payload in batches
    of 400.  BFT-SMaRt runs consensus instances sequentially
    ([max_outstanding = 1]), which caps its WAN throughput near
    batch-size/RTT; HotStuff pipelines across its 3-chain. *)

type proto = Bftsmart | Hotstuff_base

type params = {
  proto : proto;
  n_servers : int;
  rate : float; (* offered op/s *)
  msg_bytes : int;
  duration : float;
  warmup : float;
  cooldown : float;
  seed : int64;
}

val default : proto -> params

type result = {
  offered : float;
  throughput : float;
  latency : Repro_trace.Trace.Hist.t; (* in the measurement window *)
}

val run : params -> result
