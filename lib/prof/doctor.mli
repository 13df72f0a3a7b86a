(** Runtime health doctor.

    A delivery-progress watchdog over a {!Repro_chopchop.Deployment}: a
    periodic sim-time tick samples a caller-supplied progress counter,
    and when it stops advancing before the expected total is reached, the
    doctor assembles a structured {!diagnosis} from the deployment's
    existing probes — broker pool depth, server order-queue depth, CPU
    lane backlog, disk queue, partition state, and quorum/committee
    health under membership churn.

    The watchdog's ticks are ordinary engine events: they shift event
    sequence numbers but schedule nothing protocol-visible and never
    touch the RNG, so deliveries, invariants and verdicts are unchanged.
    (The {!Prof} profiler, by contrast, adds no events at all.) *)

type backlog = { b_site : string; b_value : float }

type diagnosis = {
  d_reason : string; (* "stall" | "incomplete" | "invariant" *)
  d_sim_time : float;
  d_progress : int;
  d_expected : int;
  d_last_progress_at : float;
  d_phase : string; (* one-line verdict: where delivery is stuck *)
  d_partition : int list list option;
  d_down_servers : int list;
  d_catching_up : int list;
  d_epoch : int;
  d_active_servers : int;
  d_quorum : int;
  d_backlogs : backlog list; (* deepest first *)
  d_hottest_broker : (int * int) option;
      (* (broker, clients homed) — present only when the deployment runs
         a lib/fleet partitioned broker roster *)
}

val diagnose :
  Repro_chopchop.Deployment.t ->
  progress:int ->
  expected:int ->
  last_progress_at:float ->
  reason:string ->
  diagnosis
(** Assemble a diagnosis right now, watchdog or not (post-mortem on an
    incomplete or invariant-violating run).  Phase precedence: active
    partition, then lost quorum (connected active servers < quorum),
    then the deepest non-empty backlog site, then idle. *)

type t

val watch :
  ?period:float ->
  ?stall_after:float ->
  ?until:float ->
  ?on_stall:(diagnosis -> unit) ->
  Repro_chopchop.Deployment.t ->
  progress:(unit -> int) ->
  expected:int ->
  unit ->
  t
(** Arm the watchdog: every [period] (default 5) sim-seconds, sample
    [progress ()]; if it has not advanced for [stall_after] (default 25)
    sim-seconds while still below [expected], record a stall diagnosis
    and call [on_stall] (once).  The tick stops at [until] if given. *)

val stalled : t -> diagnosis option
(** The stall diagnosis, if the watchdog fired. *)

val last_progress_at : t -> float
(** Sim time the progress counter last advanced (run-end post-mortems). *)

val pp : Format.formatter -> diagnosis -> unit
(** Markdown-ish human-readable rendering. *)

val to_json : diagnosis -> Repro_metrics.Json.t
