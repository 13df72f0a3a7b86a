(** Measurement helpers for the experiment harness.

    Mirrors the paper's methodology (§6.2 "Plots"): each data point is a
    mean over runs; warmup and cooldown are excluded from throughput
    cross-sections; latency is reported as a mean with standard
    deviation. *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile t 0.99]: nearest-rank (rounded index into the sorted
      samples); retains all samples in a flat float array (experiments
      record at most a few hundred thousand). *)
end

module Throughput : sig
  type t

  (** Counts delivered operations and reports the rate over the cross
      section [warmup, until]-cooldown. *)

  val create : Engine.t -> warmup:float -> cooldown:float -> duration:float -> t
  val record : t -> int -> unit
  (** Record [n] operations delivered now. *)

  val total_in_window : t -> int
  val rate : t -> float
  (** Operations per second over the measurement window. *)

  val window : t -> float * float
end
