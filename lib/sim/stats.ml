module Summary = struct
  type t = {
    (* Growable flat float array (unboxed): one word per sample, against
       the three the old cons list paid — latency recording sits on the
       delivery hot path. *)
    mutable buf : float array;
    mutable sorted : float array option; (* cache, invalidated by add *)
    mutable count : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { buf = [||]; sorted = None; count = 0; sum = 0.; sumsq = 0.;
      min = infinity; max = neg_infinity }

  let add t x =
    if t.count = Array.length t.buf then begin
      let bigger = Array.make (Stdlib.max 64 (2 * t.count)) 0. in
      Array.blit t.buf 0 bigger 0 t.count;
      t.buf <- bigger
    end;
    t.buf.(t.count) <- x;
    t.sorted <- None;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let stddev t =
    if t.count < 2 then 0.
    else begin
      let n = float_of_int t.count in
      let var = (t.sumsq /. n) -. ((t.sum /. n) ** 2.) in
      sqrt (Float.max 0. var)
    end

  let min t = if t.count = 0 then 0. else t.min
  let max t = if t.count = 0 then 0. else t.max

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Array.sub t.buf 0 t.count in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

  let percentile t q =
    if t.count = 0 then 0.
    else begin
      let a = sorted t in
      (* Nearest rank: round to the closest index rather than truncating
         toward the low sample (the old [int_of_float] bias). *)
      let idx = int_of_float (Float.round (q *. float_of_int (Array.length a - 1))) in
      a.(Stdlib.max 0 (Stdlib.min (Array.length a - 1) idx))
    end
end

module Throughput = struct
  type t = {
    engine : Engine.t;
    win_start : float;
    win_end : float;
    mutable in_window : int;
  }

  let create engine ~warmup ~cooldown ~duration =
    let start = Engine.now engine in
    { engine; win_start = start +. warmup; win_end = start +. duration -. cooldown; in_window = 0 }

  let record t n =
    let now = Engine.now t.engine in
    if now >= t.win_start && now <= t.win_end then t.in_window <- t.in_window + n

  let total_in_window t = t.in_window

  let rate t =
    let span = t.win_end -. t.win_start in
    if span <= 0. then 0. else float_of_int t.in_window /. span

  let window t = (t.win_start, t.win_end)
end
