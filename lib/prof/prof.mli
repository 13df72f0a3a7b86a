(** Engine self-profiler.

    A write-only observer over {!Repro_sim.Engine} dispatch: per-kind
    event counts, handler self wall-time, GC minor-allocation deltas, and
    queue depth / dwell histograms.  Attaching it never schedules events,
    never reads the engine RNG, and never feeds a reading back into the
    simulation, so a same-seed run is bit-identical with profiling on or
    off (proved by [test/test_prof.ml]).

    Wall-time readings are machine-dependent; everything else (event and
    kind counters, queue/dwell histograms, max depth) is deterministic
    for a fixed seed.  Minor-word deltas are deterministic across runs of
    the same binary — the OCaml allocator is — but are reported
    separately from the gated counters because they track compiler
    version, not protocol behaviour. *)

module Clock : sig
  val now : unit -> float
  (** Monotonic wall clock, seconds ([Monotonic_clock.now] /1e9) — immune
      to NTP steps. *)
end

type t
(** A collector attached to one engine. *)

val attach : Repro_sim.Engine.t -> t
(** Install the profiler on the engine (replacing any previous one).
    Collection starts immediately. *)

val detach : t -> unit
(** Remove the profiler; the collected data remains readable. *)

(** {2 Reports} *)

type row = {
  r_kind : string;
  r_events : int;
  r_wall_s : float;
  r_minor_words : float;
}

type report = {
  p_events : int;
  p_wall_s : float;
  p_minor_words : float;
  p_rows : row list; (* per-kind, sorted by kind name *)
  p_depth : Repro_trace.Trace.Hist.t; (* queue depth at dispatch *)
  p_dwell : Repro_trace.Trace.Hist.t;
      (* sim-time dwell (scheduling -> execution); both histograms are the
         profiler's own, final once it is detached *)
  p_max_pending : int;
}

val report : t -> report

val attributed_share : report -> float
(** Fraction of handler wall-time attributed to named kinds (everything
    but the ["other"] bucket); 1.0 when no wall-time was recorded. *)

val deterministic_json : report -> Repro_metrics.Json.t
(** Event and kind counters, minor words, queue-depth and dwell
    histograms: identical across same-seed runs, so safe to embed in
    sweep cell files and to byte-compare in CI. *)

val wall_json : report -> Repro_metrics.Json.t
(** The machine-dependent half: handler wall-time, total and per kind,
    and the share attributed to named kinds. *)
