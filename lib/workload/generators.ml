(* Arrival-process generators for adversarial and realistic load shapes.

   The paper's evaluation drives Chop Chop with steady open-loop load
   (§6.2); real systems see heavy-tailed bursts and time-of-day swings.
   These generators produce inter-arrival gaps for a target process and a
   [drive] loop that schedules one [fire] per arrival on the simulator
   clock — the substrate for the flash-crowd and diurnal chaos scenarios
   and for the reconfiguration-under-load experiment. *)

module Engine = Repro_sim.Engine
module Rng = Repro_sim.Rng

type arrival =
  | Poisson of { rate : float }
      (* memoryless, the classic open-loop model: exp(1/rate) gaps *)
  | Pareto of { rate : float; alpha : float }
      (* heavy-tailed gaps with mean 1/rate; alpha <= ~1.5 gives the
         bursty, high-variance arrivals of flash-crowd traffic *)
  | Diurnal of { base : float; peak : float; period : float }
      (* sinusoidal rate swinging [base, peak] over [period] seconds,
         sampled by thinning against the peak *)

let describe = function
  | Poisson { rate } -> Printf.sprintf "poisson(%.1f/s)" rate
  | Pareto { rate; alpha } -> Printf.sprintf "pareto(%.1f/s, a=%.2f)" rate alpha
  | Diurnal { base; peak; period } ->
    Printf.sprintf "diurnal(%.1f..%.1f/s, T=%.0fs)" base peak period

(* Instantaneous rate at simulated time [now] (thinning envelope). *)
let rate_at arrival ~now =
  match arrival with
  | Poisson { rate } | Pareto { rate; _ } -> rate
  | Diurnal { base; peak; period } ->
    let mid = (base +. peak) /. 2. and amp = (peak -. base) /. 2. in
    mid +. (amp *. sin (2. *. Float.pi *. now /. period))

(* One inter-arrival gap.  For Pareto the scale is chosen so the mean gap
   is 1/rate: E[X] = xm * a/(a-1), hence xm = (a-1)/(a*rate).  Alpha is
   clamped away from 1 where the mean diverges. *)
let gap arrival ~rng =
  match arrival with
  | Poisson { rate } -> Rng.exponential rng ~mean:(1. /. rate)
  | Pareto { rate; alpha } ->
    let a = Float.max 1.05 alpha in
    let xm = (a -. 1.) /. (a *. rate) in
    let u = Float.max 1e-12 (1. -. Rng.float rng 1.) in
    xm /. (u ** (1. /. a))
  | Diurnal { peak; _ } ->
    (* Thinned Poisson at the peak rate; acceptance happens in [drive]. *)
    Rng.exponential rng ~mean:(1. /. Float.max 1e-9 peak)

(* Thinning acceptance for the arrival drawn by [gap]. *)
let accept arrival ~rng ~now =
  match arrival with
  | Poisson _ | Pareto _ -> true
  | Diurnal { peak; _ } ->
    Rng.float rng 1. < rate_at arrival ~now /. Float.max 1e-9 peak

(* Schedule [fire] once per arrival of the process until [until] (if
   given).  Deterministic for a fixed rng state and engine schedule. *)
let drive ?kind ~engine ~rng ~arrival ?until ~fire () =
  let stop now = match until with Some u -> now > u | None -> false in
  let rec arm () =
    let delay = gap arrival ~rng in
    Engine.schedule ?kind engine ~delay (fun () ->
        let now = Engine.now engine in
        if not (stop now) then begin
          if accept arrival ~rng ~now then fire ();
          arm ()
        end)
  in
  arm ()
