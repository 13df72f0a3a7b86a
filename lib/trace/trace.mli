(** Deterministic observability: spans, counters and histograms keyed to
    {e simulated} time.

    The simulation engine replaces wall clocks with a virtual clock, so a
    trace taken with the same seed is bit-identical across runs — every
    latency claim in the experiment harness can be decomposed into
    per-phase events and re-derived exactly.  The subsystem is
    dependency-free and allocation-conscious: with the default null sink,
    instrumentation sites reduce to one load and one branch
    ({!enabled}), and counters are plain integer cells.

    Producers emit {!event}s into a per-run {!Sink.t} (a no-op, a growable
    buffer, or a fixed ring); consumers pair begin/end events into
    {!Span.t}s, fold durations into {!Hist} histograms, or export the raw
    stream as Chrome [trace_event] JSON via {!Chrome}. *)

type attr =
  | A_int of int
  | A_float of float
  | A_str of string
  | A_bool of bool

type phase =
  | B  (** span begin *)
  | E  (** span end *)
  | I  (** instant *)
  | C of float  (** counter sample *)

type event = {
  ev_time : float;  (** simulated seconds *)
  ev_actor : int;  (** emitting node / component instance *)
  ev_cat : string;  (** subsystem category, e.g. ["broker"] *)
  ev_name : string;  (** event name within the category *)
  ev_id : int;  (** correlation id (batch root hash, slot, …) *)
  ev_phase : phase;
  ev_attrs : (string * attr) list;
}

module Counter : sig
  type t

  val make : unit -> t
  (** A free-standing counter; {!Sink.counter} registers named ones. *)

  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

module Hist : sig
  (** The one latency histogram: fixed-size, log-linear (HDR-style).

      Each power of two from 2{^-31} to 2{^33} is split into 32 linear
      sub-buckets — 2,048 integer counters (16 KiB) in all — so adding a
      sample touches one array cell and a few scalar fields, with no
      allocation.  Zero and negative samples land in the first bucket,
      samples at or above 2{^33} in the last.  Count, sum, sum of
      squares, min and max are exact, so {!mean} and {!stddev} carry no
      bucketing error. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Exact (tracked outside the buckets); 0 when empty. *)

  val stddev : t -> float
  (** Population standard deviation [sqrt (E[x²] - E[x]²)] from the exact
      running sums, accumulated left to right in insertion order; 0 with
      fewer than two samples. *)

  val min : t -> float
  val max : t -> float
  (** Exact; 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t q]: the midpoint of the bucket holding rank
      [max 1 ⌈q·n⌉], clamped to \[{!min}, {!max}\].  Within the covered
      range it differs from the exact sample at that rank by at most 1/64
      of that sample.  0 when empty. *)
end

module Sink : sig
  type t

  val null : unit -> t
  (** Disabled sink: {!emit} is a no-op, {!enabled} is [false].  The
      default everywhere — tracing costs one branch per site. *)

  val memory : unit -> t
  (** Unbounded growable buffer (doubling array, no per-event boxing
      beyond the event itself). *)

  val ring : capacity:int -> t
  (** Fixed-capacity ring: once full, each emit overwrites the oldest
      event and bumps {!dropped}. *)

  val enabled : t -> bool
  val emit : t -> event -> unit
  val events : t -> event list
  (** Stored events, oldest first. *)

  val length : t -> int
  val dropped : t -> int
  val clear : t -> unit

  val counter : t -> cat:string -> name:string -> Counter.t
  (** The named counter, created on first use.  Counters accumulate even
      on a null sink (an integer add); they are read via {!counters}. *)

  val counters : t -> (string * string * int) list
  (** All registered counters as [(cat, name, value)], sorted. *)
end

val enabled : Sink.t -> bool
(** Guard for instrumentation sites: skip attribute construction when the
    sink is disabled. *)

val span_begin :
  ?attrs:(string * attr) list ->
  Sink.t -> now:float -> actor:int -> cat:string -> name:string -> id:int -> unit

val span_end :
  ?attrs:(string * attr) list ->
  Sink.t -> now:float -> actor:int -> cat:string -> name:string -> id:int -> unit

val instant :
  ?attrs:(string * attr) list ->
  Sink.t -> now:float -> actor:int -> cat:string -> name:string -> id:int -> unit

val count : Sink.t -> now:float -> actor:int -> cat:string -> name:string -> float -> unit

val key : string -> int
(** Stable non-negative correlation id for a string key (batch roots). *)

module Ctx : sig
  (** Dapper-style causal trace context carried inside wire messages: the
      correlation id of the root operation (for a broadcast, the
      client-message key) plus a hop counter bumped at each forwarding
      component.  Compact by construction — {!wire_bytes} charges 5 bytes
      (4-byte root id + 1-byte hop) to any message that carries one. *)

  type t = { root : int; hop : int }

  val make : root:int -> t
  (** A fresh context at hop 0, rooted at the given correlation id. *)

  val child : t -> t
  (** The same root, one hop further down the path. *)

  val root : t -> int
  val hop : t -> int

  val wire_bytes : int
end

val attr_int : (string * attr) list -> string -> int option

module Span : sig
  type t = {
    sp_cat : string;
    sp_name : string;
    sp_actor : int;
    sp_id : int;
    sp_begin : float;
    sp_end : float;
    sp_attrs : (string * attr) list;
  }

  val duration : t -> float

  val pair : event list -> t list
  (** Match [B]/[E] events by [(cat, name, actor, id)] (LIFO for nested
      re-entries of the same key), in event order.  Unmatched begins and
      ends are dropped; begin attributes are concatenated with end
      attributes. *)
end
