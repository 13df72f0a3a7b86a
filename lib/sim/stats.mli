(** Measurement helpers for the experiment harness.

    Mirrors the paper's methodology (§6.2 "Plots"): each data point is a
    mean over runs; warmup and cooldown are excluded from throughput
    cross-sections; latency is reported as a mean with standard
    deviation. *)

module Summary = Repro_trace.Trace.Hist
(** An alias of the repo's one histogram, {!Repro_trace.Trace.Hist},
    under its historical name. *)

module Window : sig
  type t

  (** One measurement window, [\[start + warmup, start + duration -
      cooldown\]] on the virtual clock ([start] is the engine time at
      {!create}).  It counts delivered operations for the throughput
      cross-section and keeps the latencies observed inside it. *)

  val create : Engine.t -> warmup:float -> cooldown:float -> duration:float -> t
  val record : t -> int -> unit
  (** Record [n] operations delivered now; ignored outside the window. *)

  val latency : t -> float -> unit
  (** Record a latency completing now; ignored outside the window. *)

  val latencies : t -> Repro_trace.Trace.Hist.t
  (** The latencies recorded inside the window. *)

  val span : t -> float
  val rate : t -> float
  (** Operations per second over the window ([span] seconds long). *)
end
