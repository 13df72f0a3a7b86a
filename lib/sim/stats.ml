module Hist = Repro_trace.Trace.Hist
module Summary = Hist

module Window = struct
  type t = {
    engine : Engine.t;
    win_start : float;
    win_end : float;
    mutable in_window : int;
    lat : Hist.t;
  }

  let create engine ~warmup ~cooldown ~duration =
    let start = Engine.now engine in
    { engine; win_start = start +. warmup; win_end = start +. duration -. cooldown;
      in_window = 0; lat = Hist.create () }

  let inside t =
    let now = Engine.now t.engine in
    now >= t.win_start && now <= t.win_end

  let record t n = if inside t then t.in_window <- t.in_window + n
  let latency t l = if inside t then Hist.add t.lat l
  let latencies t = t.lat

  let span t = t.win_end -. t.win_start

  let rate t =
    let span = span t in
    if span <= 0. then 0. else float_of_int t.in_window /. span
end
