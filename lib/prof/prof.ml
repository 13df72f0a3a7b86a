module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Json = Repro_metrics.Json

module Clock = struct
  (* bechamel's monotonic clock: CLOCK_MONOTONIC nanoseconds as int64.
     Immune to NTP steps, unlike Unix.gettimeofday. *)
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
end

(* Per-kind accumulation bins.  Flat arrays indexed by the engine's
   interned kind ids; grown on demand (kind ids only ever increase). *)
type t = {
  engine : Engine.t;
  mutable n : int array; (* events dispatched *)
  mutable wall : float array; (* self wall-time, seconds *)
  mutable minor : float array; (* minor-heap words allocated *)
  depth : Trace.Hist.t; (* queue depth at dispatch *)
  dwell : Trace.Hist.t; (* sim-time scheduling-to-execution delay *)
  mutable events : int;
  mutable total_wall : float;
  mutable total_minor : float;
  mutable attached : bool;
}

let ensure t kind =
  let len = Array.length t.n in
  if kind >= len then begin
    let len' = max (2 * len) (kind + 1) in
    let grow a z =
      let b = Array.make len' z in
      Array.blit a 0 b 0 len;
      b
    in
    t.n <- grow t.n 0;
    t.wall <- grow t.wall 0.;
    t.minor <- grow t.minor 0.
  end

let attach engine =
  let t =
    { engine;
      n = Array.make 64 0;
      wall = Array.make 64 0.;
      minor = Array.make 64 0.;
      depth = Trace.Hist.create ();
      dwell = Trace.Hist.create ();
      events = 0; total_wall = 0.; total_minor = 0.;
      attached = true }
  in
  Engine.set_profiler engine
    (Some
       { Engine.prof_clock = Clock.now;
         prof_record =
           (fun ~kind ~wall ~minor ~dwell ~depth ->
             ensure t kind;
             t.n.(kind) <- t.n.(kind) + 1;
             t.wall.(kind) <- t.wall.(kind) +. wall;
             t.minor.(kind) <- t.minor.(kind) +. minor;
             t.events <- t.events + 1;
             t.total_wall <- t.total_wall +. wall;
             t.total_minor <- t.total_minor +. minor;
             Trace.Hist.add t.depth (float_of_int depth);
             Trace.Hist.add t.dwell dwell) });
  t

let detach t =
  if t.attached then begin
    Engine.set_profiler t.engine None;
    t.attached <- false
  end

(* --- reports -------------------------------------------------------------- *)

type row = {
  r_kind : string;
  r_events : int;
  r_wall_s : float;
  r_minor_words : float;
}

type report = {
  p_events : int; (* dispatched events observed *)
  p_wall_s : float; (* total self wall-time across handlers *)
  p_minor_words : float; (* total minor-heap allocation, words *)
  p_rows : row list; (* per-kind, sorted by kind name *)
  p_depth : Trace.Hist.t; (* queue depth at dispatch *)
  p_dwell : Trace.Hist.t; (* sim-time dwell (scheduling -> execution) *)
  p_max_pending : int; (* queue high-water mark *)
}

let report t =
  let names = Engine.kinds t.engine in
  let rows = ref [] in
  Array.iteri
    (fun kind name ->
      if kind < Array.length t.n && t.n.(kind) > 0 then
        rows :=
          { r_kind = name;
            r_events = t.n.(kind);
            r_wall_s = t.wall.(kind);
            r_minor_words = t.minor.(kind) }
          :: !rows)
    names;
  let rows = List.sort (fun a b -> compare a.r_kind b.r_kind) !rows in
  { p_events = t.events;
    p_wall_s = t.total_wall;
    p_minor_words = t.total_minor;
    p_rows = rows;
    p_depth = t.depth;
    p_dwell = t.dwell;
    p_max_pending = Engine.max_pending t.engine }

let attributed_share r =
  if r.p_wall_s <= 0. then 1.
  else
    let named =
      List.fold_left
        (fun acc row -> if row.r_kind = "other" then acc else acc +. row.r_wall_s)
        0. r.p_rows
    in
    named /. r.p_wall_s

(* --- rendering ------------------------------------------------------------ *)

let hist_json h =
  Json.Obj
    [ ("count", Json.Num (float_of_int (Trace.Hist.count h)));
      ("mean", Json.Num (Trace.Hist.mean h));
      ("max", Json.Num (Trace.Hist.max h));
      ("p50", Json.Num (Trace.Hist.percentile h 0.50));
      ("p99", Json.Num (Trace.Hist.percentile h 0.99)) ]

(* The report's two halves: [deterministic_json] is identical across
   same-seed runs (CI byte-compares it, sweep cells embed it);
   [wall_json] holds the machine-dependent readings. *)
let deterministic_json r =
  Json.Obj
    [ ("events", Json.Num (float_of_int r.p_events));
      ("minor_words", Json.Num r.p_minor_words);
      ("max_queue_depth", Json.Num (float_of_int r.p_max_pending));
      ("queue_depth", hist_json r.p_depth);
      ("dwell_s", hist_json r.p_dwell);
      ( "kinds",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [ ("kind", Json.Str row.r_kind);
                   ("events", Json.Num (float_of_int row.r_events));
                   ("minor_words", Json.Num row.r_minor_words) ])
             r.p_rows) ) ]

let wall_json r =
  Json.Obj
    [ ("wall_s", Json.Num r.p_wall_s);
      ("attributed_share", Json.Num (attributed_share r));
      ( "kinds",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [ ("kind", Json.Str row.r_kind); ("wall_s", Json.Num row.r_wall_s) ])
             r.p_rows) ) ]
