(** Deterministic time-series metrics, layered above {!Repro_trace.Trace}.

    A registry holds named, labelled instruments — integer counters
    (reusing [Trace.Counter]), settable float gauges, and log₂ histograms
    (reusing [Trace.Hist]) — plus {e probes}: callbacks sampled on every
    {!sample} tick to build time series that are {e aligned} by
    construction (every series has exactly one point per tick, at the
    same tick times).

    Nothing here reads a clock.  The caller drives {!sample} — in the
    simulator, from [Engine.every] — so with a fixed seed the snapshot
    and every series are bit-identical across runs, and metrics from two
    machines can be diffed numerically (the basis for the bench
    regression gate in {!Baseline}).

    With {!mirror} installed, each tick also emits [C]-phase counter
    samples into a trace sink, so the same series render as counter
    tracks in [chrome://tracing] / Perfetto via [Chrome.to_string]. *)

module Trace = Repro_trace.Trace

type t

type labels = (string * string) list
(** Label sets are canonicalised (sorted by key), so
    [["a","1"; "b","2"]] and [["b","2"; "a","1"]] name the same
    instrument, while any differing value names a distinct one. *)

val create : ?period:float -> unit -> t
(** [period] (default [0.5] s) is advisory: it is what the registry
    reports to whoever schedules {!sample} ticks. *)

val period : t -> float

(** {2 Instruments} — created on first use; the same [(name, labels)]
    always returns the same instrument. *)

val counter : t -> ?labels:labels -> string -> Trace.Counter.t
val histogram : t -> ?labels:labels -> string -> Trace.Hist.t

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

val gauge : t -> ?labels:labels -> string -> Gauge.t

(** {2 Probes and sampling} *)

val probe : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** Register a sampled series: on every {!sample} tick the callback is
    read and its value recorded (and stored into a like-named gauge, so
    the snapshot shows the last sample). *)

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
    the aligned points, update probe gauges, and mirror if installed. *)

val ticks : t -> int
val tick_times : t -> float array
(** Tick times, oldest first. *)

(** {2 Reading the registry} *)

type value =
  | V_counter of int
  | V_gauge of float
  | V_hist of Trace.Hist.summary

type entry = { m_name : string; m_labels : labels; m_value : value }

val snapshot : t -> entry list
(** Every instrument's current value, sorted by [(name, labels, kind)] —
    a pure value, so two same-seed runs compare with [=]. *)

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

(** {2 Export} *)

val pp_table : Format.formatter -> t -> unit
(** Human-readable end-of-run table: counters, gauges, histogram
    percentiles, and per-series min/mean/max. *)

val to_jsonl : t -> string
(** One JSON object per line: first every snapshot entry
    ([{"kind","name","labels",...}]), then every series
    ([{"kind":"series","points":[[t,v],…]}]). *)

val series_csv : t -> string
(** The aligned series as one CSV table: a [time] column plus one column
    per series (registration order), one row per tick. *)
