(** The observed run and its one report.

    {!run} executes a Chop Chop run once with every observer attached: an
    in-memory trace sink (whose counters are the run's only counter
    registry), the metrics sampler and the engine profiler.  None of them
    changes the run: its result, latency breakdown and every counter but
    [sim.steps] (the sampler's own ticks) are bit-identical to a bare
    run's.

    {!to_json} is the one writer for what the run observed. *)

type t = {
  result : Chopchop_run.result;
  breakdown : Latency_breakdown.t;
  sink : Repro_trace.Trace.Sink.t;  (** events and counters *)
  metrics : Repro_metrics.Metrics.t;  (** sampled probe series *)
  profile : Repro_prof.Prof.report;
}

val run : Chopchop_run.params -> t
(** Runs [params] with its [trace], [metrics] and [profile] fields
    replaced by the observers above. *)

val to_json : ?wall:bool -> t -> Repro_metrics.Json.t
(** [{"deterministic": {...}, "wall": {...}}].  The [deterministic] half
    holds the run result, the latency breakdown, every sink counter (as
    [cat.name], exact integers), every probe series (one [[t, v]] point
    per tick) and the profile's deterministic fields; it is byte-identical
    across same-seed runs.  [wall] holds the profile's wall-time readings;
    [~wall:false] (default true) leaves it out. *)
