(** Narwhal-Bullshark experiment runner (§6.1).

    Spawns [n] server groups over the geo network and injects synthetic
    client transactions at the offered rate, optionally with the paper's
    message-authenticating modification ([authenticate = true] =
    Narwhal-Bullshark-sig) and extra workers per group (Fig. 10b). *)

type params = {
  n_servers : int;
  rate : float; (* offered op/s, split across groups *)
  msg_bytes : int;
  authenticate : bool;
  workers_per_group : int;
  duration : float;
  warmup : float;
  cooldown : float;
  seed : int64;
}

val default : authenticate:bool -> params

type result = {
  offered : float;
  throughput : float;
  latency : Repro_trace.Trace.Hist.t; (* in the measurement window *)
  network_rate_bps : float; (* mean group NIC ingress over the window *)
}

val run : params -> result
