(** Arrival-process generators for realistic and adversarial load shapes.

    The paper evaluates under steady open-loop load (§6.2); these add
    heavy-tailed (Pareto) and time-of-day (diurnal) arrivals plus a
    generic driver, used by the flash-crowd chaos scenarios and the
    reconfiguration-under-load experiment. *)

type arrival =
  | Poisson of { rate : float }  (** memoryless, mean [rate] arrivals/s *)
  | Pareto of { rate : float; alpha : float }
      (** heavy-tailed inter-arrival gaps with mean [1/rate]; [alpha]
          close to 1 maximises burstiness (clamped to >= 1.05 where the
          mean exists) *)
  | Diurnal of { base : float; peak : float; period : float }
      (** sinusoidal rate swinging \[base, peak\] over [period] seconds *)

val describe : arrival -> string

val gap : arrival -> rng:Repro_sim.Rng.t -> float
(** One inter-arrival gap (for Diurnal: the peak-rate envelope gap,
    thinned by {!drive}). *)

val drive :
  ?kind:int ->
  engine:Repro_sim.Engine.t ->
  rng:Repro_sim.Rng.t ->
  arrival:arrival ->
  ?until:float ->
  fire:(unit -> unit) ->
  unit ->
  unit
(** Schedule [fire] once per arrival of the process, stopping after
    [until] (simulated seconds) if given.  Deterministic for a fixed rng
    state.  [kind] is an interned {!Repro_sim.Engine.kind} attributing the
    arrival events for the profiler. *)
