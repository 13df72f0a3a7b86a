(** Discrete-event simulation engine.

    A single virtual clock and a priority queue of callbacks.  Ties are
    broken by insertion order, so a run is fully deterministic given the
    seed.  The engine replaces the paper's tokio runtime: every protocol
    component is written as an event-driven state machine whose timers and
    message deliveries are engine events.

    The queue is a two-level calendar/ladder structure (near-future slot
    ring + far-future overflow) over one table of event rows, and it
    dispatches in (time, seq) order.  A row keeps its event's time, seq,
    scheduling time, kind and closure in flat arrays, so times are stored
    unboxed, and rows are recycled through a free list.  A future slot is
    an unsorted list of rows; only the cursor's slot and the overflow are
    binary heaps, each with its entries' time and seq in flat arrays of its
    own, so a sift compares unboxed numbers.  The table grows to the
    queue's deepest and is given back when the queue runs dry, so memory
    follows the queue's depth. *)

type t

val create : ?seed:int64 -> ?trace:Repro_trace.Trace.Sink.t -> unit -> t
(** Fresh engine with clock at 0.  [seed] (default 1) seeds {!rng};
    [trace] (default a null sink) receives instrumentation events from
    every component built on this engine. *)

val trace : t -> Repro_trace.Trace.Sink.t
(** The engine's trace sink; components reach instrumentation through it. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Rng.t
(** The engine's root generator; [Rng.split] it for per-node streams. *)

(** {2 Event kinds}

    Events carry an interned integer [kind] that attributes them to a
    named component for the profiler.  Tagging is free when profiling is
    off (the kind is just an int stored in the event record); untagged
    events land in the pre-registered kind 0, ["other"]. *)

val kind : t -> string -> int
(** Intern a kind name, returning its id (stable for the engine's
    lifetime; repeated calls with the same name return the same id). *)

val kind_name : t -> int -> string
(** Name for an interned kind id.  Raises [Invalid_argument] on an id
    never returned by {!kind}. *)

val kinds : t -> string array
(** All interned kind names, indexed by id ([kinds t).(0) = "other"]). *)

val schedule : ?kind:int -> t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now ([delay >= 0]). *)

val schedule_at : ?kind:int -> t -> time:float -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time (clamped to now).  For a
    time fixed in advance (a fault at 20 s); a model that computes a
    time per event uses {!schedule_stamp}. *)

type stamp = { mutable at : float }
(** A time handed to {!schedule_stamp}.  A float passed to a function of
    another module is boxed (two words on the minor heap); one written to
    this all-float record is stored in place.  The models that compute a
    completion or arrival time per event — {!Net}, {!Cpu} and the store's
    disk — each own one stamp and pass every such time through it. *)

val stamp : unit -> stamp

val schedule_stamp : ?kind:int -> t -> stamp -> (unit -> unit) -> unit
(** [schedule_at ~time:s.at], reading [s.at] at the call: the stamp can
    be written again for the next event. *)

type timer

val timer : ?kind:int -> t -> delay:float -> (unit -> unit) -> timer
(** A cancellable one-shot timer. *)

val cancel : timer -> unit
(** Cancel a pending timer: the callback (and everything its closure
    captures) is released immediately and the event no longer counts as
    {!pending}, though its queue slot is only reclaimed at the original
    deadline.  Cancelling an expired or already-cancelled timer is a
    no-op. *)

val every :
  ?kind:int ->
  ?inclusive:bool ->
  t ->
  period:float ->
  ?until:float ->
  (unit -> unit) ->
  unit
(** Periodic callback starting one period from now.  Boundary semantics
    at [until] are explicit: with [inclusive] (the default) a tick
    landing exactly at [until] still fires; [~inclusive:false] stops
    strictly before [until].  Either way the chain's final check event
    one period past the last fire is dispatched (and counted) like any
    other event. *)

val run : ?until:float -> t -> unit
(** Process events in time order until the queue is empty, or the clock
    would pass [until] (remaining events stay queued and the clock is set
    to [until]). *)

val step : t -> bool
(** Process a single event; [false] when the queue is empty.  A cancelled
    timer's dead slot is consumed silently (clock advances, nothing runs,
    no step is counted) but still returns [true]. *)

val pending : t -> int
(** Number of queued {e live} events (diagnostics): cancelled timers
    awaiting their slot are excluded. *)

val max_pending : t -> int
(** High-water mark of {!pending} over the whole run: the deepest the
    live event queue has ever been.  Queue pressure between metric
    samples is invisible to periodic probes; this is the envelope. *)

val pool_stats : t -> int * int
(** [(fresh, reused)] rows taken for scheduled events: rows that had never
    held an event since the table was last made vs recycled ones.  Per
    table, fresh rows are bounded by the queue's deepest; a new table is
    made each time the queue runs dry holding more than 1,024 rows.
    Deterministic for a fixed seed. *)

(** {2 Profiling}

    The profiler is a write-only observer around handler dispatch: it
    never schedules events, never reads the RNG, and never feeds back
    into the simulation, so a same-seed run is bit-identical with
    profiling on or off.  [lib/sim] deliberately has no dependency on
    [Unix]; the wall clock is injected by the caller ([Repro_prof.Prof]
    supplies a monotonic one). *)

type profiler = {
  prof_clock : unit -> float;
      (** Monotonic wall clock, seconds.  Called twice per event. *)
  prof_record :
    kind:int -> wall:float -> minor:float -> dwell:float -> depth:int -> unit;
      (** Called after each dispatched event: interned event [kind],
          handler self wall-time [wall] (s), minor-heap allocation
          [minor] (words), sim-time queue [dwell] (s, scheduling to
          execution), and live queue [depth] just after the pop. *)
}

val set_profiler : t -> profiler option -> unit
(** Install or remove the profiler (normally via [Repro_prof.Prof.attach]). *)
