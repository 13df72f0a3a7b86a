module Trace = Repro_trace.Trace
module Metrics = Repro_metrics.Metrics
module Prof = Repro_prof.Prof
module Json = Repro_metrics.Json
module R = Chopchop_run
module LB = Latency_breakdown

type t = {
  result : R.result;
  breakdown : LB.t;
  sink : Trace.Sink.t;
  metrics : Metrics.t;
  profile : Prof.report;
}

let run params =
  let metrics = Metrics.create () in
  let result, breakdown, sink =
    LB.capture ~params:{ params with R.metrics = Some metrics; profile = true } ()
  in
  { result; breakdown; sink; metrics; profile = Option.get result.R.prof }

let num x = Json.Num x
let int n = Json.Num (float_of_int n)

let result_json (r : R.result) =
  Json.Obj
    [ ("offered_ops", num r.offered);
      ("throughput_ops", num r.throughput);
      ("latency_mean_s", num (Trace.Hist.mean r.latency));
      ("latency_std_s", num (Trace.Hist.stddev r.latency));
      ("input_rate_bps", num r.input_rate_bps);
      ("network_rate_bps", num r.network_rate_bps);
      ("goodput_bps", num r.goodput_bps);
      ("server_cpu", num r.server_cpu);
      ("broker_cpu_busy_s", num r.broker_cpu_busy_s);
      ("stored_bytes_max", int r.stored_bytes_max);
      ("delivered_messages", int r.delivered_messages);
      ("decisions", int r.decisions);
      ("wal_bytes", int r.wal_bytes) ]

let hist_json h =
  let module H = Trace.Hist in
  Json.Obj
    [ ("count", int (H.count h));
      ("mean_s", num (H.mean h));
      ("min_s", num (H.min h));
      ("max_s", num (H.max h));
      ("p50_s", num (H.percentile h 0.50));
      ("p90_s", num (H.percentile h 0.90));
      ("p99_s", num (H.percentile h 0.99)) ]

let breakdown_json b =
  Json.Obj
    [ ("complete", int (LB.complete b));
      ("partial", int (LB.partial b));
      ( "phases",
        Json.Obj (List.map (fun (name, h) -> (name, hist_json h)) (LB.phases b)) );
      ("e2e", hist_json (LB.e2e b)) ]

let series_json (s : Metrics.series) =
  Json.Obj
    [ ("name", Json.Str s.s_name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels));
      ( "points",
        Json.List
          (Array.to_list s.s_points
          |> List.map (fun (t, v) -> Json.List [ num t; num v ])) ) ]

let to_json ?(wall = true) t =
  let det =
    Json.Obj
      [ ("result", result_json t.result);
        ("breakdown", breakdown_json t.breakdown);
        ( "counters",
          Json.Obj
            (List.map
               (fun (cat, name, v) -> (cat ^ "." ^ name, int v))
               (Trace.Sink.counters t.sink)) );
        ("series", Json.List (List.map series_json (Metrics.series t.metrics)));
        ("profile", Prof.deterministic_json t.profile) ]
  in
  Json.Obj
    (("deterministic", det)
    :: (if wall then [ ("wall", Prof.wall_json t.profile) ] else []))
