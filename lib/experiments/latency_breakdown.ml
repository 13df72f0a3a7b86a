(* Per-phase decomposition of the end-to-end latency of measurement-client
   messages, reconstructed purely from trace events (§6.2: the paper
   reports where a message's ~4 s of latency is spent).

   Every client "deliver" instant is joined through {!Causal_path.index}
   (the same join [chopchop trace --follow] prints for one message).  Its
   phase boundaries telescope, so the phase durations sum to exactly the
   end-to-end latency of every fully-decomposed message. *)

module Trace = Repro_trace.Trace

type t = {
  phases : (string * Trace.Hist.t) list; (* pipeline order *)
  e2e : Trace.Hist.t;
  complete : int; (* delivered messages with a full decomposition *)
  partial : int; (* delivered messages missing some stage *)
}

let of_index idx =
  let phases =
    List.map (fun n -> (n, Trace.Hist.create ())) Causal_path.phases
  in
  let e2e = Trace.Hist.create () in
  let complete = ref 0 and partial = ref 0 in
  List.iter
    (function
      | Some (p : Causal_path.t) ->
        List.iter2
          (fun (_, h) (hop : Causal_path.hop) ->
            Trace.Hist.add h (hop.h_finish -. hop.h_start))
          phases p.p_hops;
        Trace.Hist.add e2e (Causal_path.e2e p);
        incr complete
      | None -> incr partial)
    (Causal_path.deliveries idx);
  { phases; e2e; complete = !complete; partial = !partial }

let phases t = t.phases
let e2e t = t.e2e
let complete t = t.complete
let partial t = t.partial

let sum_of_phase_means t =
  List.fold_left (fun acc (_, h) -> acc +. Trace.Hist.mean h) 0. t.phases

let pp fmt t =
  let ms v = v *. 1e3 in
  Format.fprintf fmt "latency breakdown (%d messages decomposed, %d partial)@."
    t.complete t.partial;
  Format.fprintf fmt "  %-14s %10s %10s %10s@." "phase" "mean ms" "p50 ms"
    "p99 ms";
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "  %-14s %10.1f %10.1f %10.1f@." name
        (ms (Trace.Hist.mean h))
        (ms (Trace.Hist.percentile h 0.5))
        (ms (Trace.Hist.percentile h 0.99)))
    t.phases;
  Format.fprintf fmt "  %-14s %10.1f %10.1f %10.1f@." "end-to-end"
    (ms (Trace.Hist.mean t.e2e))
    (ms (Trace.Hist.percentile t.e2e 0.5))
    (ms (Trace.Hist.percentile t.e2e 0.99))

let capture ~params () =
  let sink = Trace.Sink.memory () in
  let result = Chopchop_run.run { params with Chopchop_run.trace = sink } in
  (result, of_index (Causal_path.index (Trace.Sink.events sink)), sink)
