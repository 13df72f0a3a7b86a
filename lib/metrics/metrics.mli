(** Deterministic time series, sampled on the simulated clock.

    A registry of {e probes}: named, labelled callbacks read on every
    {!sample} tick into series that are {e aligned} by construction
    (every series has exactly one point per tick, at the same tick
    times).  Run-wide counters are not kept here: the run's
    {!Repro_trace.Trace.Sink} is the one counter registry.

    Nothing here reads a clock.  The caller drives {!sample} — in the
    simulator, from [Engine.every] — so with a fixed seed every series is
    bit-identical across runs.

    With {!mirror} installed, each tick also emits [C]-phase counter
    samples into a trace sink, so the same series render as counter
    tracks in [chrome://tracing] / Perfetto via [Chrome.to_string]. *)

module Trace = Repro_trace.Trace

type t

type labels = (string * string) list
(** Label sets are canonicalised (sorted by key), so
    [["a","1"; "b","2"]] and [["b","2"; "a","1"]] label a series alike. *)

val create : ?period:float -> unit -> t
(** [period] (default [0.5] s) is advisory: it is what the registry
    reports to whoever schedules {!sample} ticks. *)

val period : t -> float

val probe : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** Register a sampled series: on every {!sample} tick the callback is
    read and its value recorded. *)

val rate_probe : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** Like {!probe}, but the callback returns a {e cumulative} value and
    the recorded series is its per-second rate over the elapsed tick
    interval (first interval measured from time 0 and the value at
    registration). *)

val mirror : t -> sink:Trace.Sink.t -> actor:int -> unit
(** Also emit every probe sample as a [C]-phase counter event (category
    ["metrics"]) into [sink] at each tick. *)

val sample : t -> now:float -> unit
(** Record one tick at simulated time [now]: read every probe, append
    the aligned points, and mirror if installed. *)

val ticks : t -> int
val tick_times : t -> float array
(** Tick times, oldest first. *)

type series = {
  s_name : string;
  s_labels : labels;
  s_points : (float * float) array;  (** (tick time, value), oldest first *)
}

val series : t -> series list
(** All probe series in registration order; every [s_points] has length
    {!ticks} with identical time columns. *)

val label_string : string -> labels -> string
(** ["name{k=v,…}"], or just ["name"] for an empty label set. *)
