(** Paper-style per-phase latency decomposition from a trace.

    Joins the client, broker, and server trace events of each delivered
    measurement-client message into the five pipeline phases of §3:
    submission (client send → broker flush), distillation (flush →
    distilled-batch launch), witnessing (launch → witness certificate),
    ordering (witness → first server sees the reference ordered by the
    STOB), and delivery (ordered → client holds a delivery certificate).
    The phase boundaries telescope, so for every fully-decomposed message
    the phase durations sum exactly to its end-to-end latency. *)

type t

val phases : t -> (string * Repro_trace.Trace.Hist.t) list
(** Per-phase duration histograms, in pipeline order. *)

val e2e : t -> Repro_trace.Trace.Hist.t
(** End-to-end latency of the same decomposed messages. *)

val complete : t -> int
(** Delivered messages whose full chain was found in the trace. *)

val partial : t -> int
(** Delivered messages with a missing stage (e.g. delivered through a
    batch whose distillation predates the trace window). *)

val sum_of_phase_means : t -> float
(** Equals [Hist.mean (e2e t)] up to float rounding — the telescoping
    invariant the integration test checks. *)

val pp : Format.formatter -> t -> unit
(** Per-phase mean/p50/p99 table in milliseconds. *)

val capture :
  params:Chopchop_run.params -> unit -> Chopchop_run.result * t * Repro_trace.Trace.Sink.t
(** Run the experiment with a fresh in-memory sink and decompose its
    trace; returns the run result, the breakdown, and the sink (for
    export via {!Repro_trace.Chrome}). *)
