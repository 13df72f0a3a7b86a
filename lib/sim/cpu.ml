module Trace = Repro_trace.Trace

type work = { serial : float; parallel : float }

let work ~serial ~parallel = { serial; parallel }
let serial c = { serial = c; parallel = 0. }
let parallel c = { serial = 0.; parallel = c }
let zero = { serial = 0.; parallel = 0. }
let add a b = { serial = a.serial +. b.serial; parallel = a.parallel +. b.parallel }
let total w = w.serial +. w.parallel

type mark = { m_time : float; m_exec : float array }

type t = {
  engine : Engine.t;
  capacity : float;
  n_cores : int;
  next_free : float array; (* per lane: when its queue drains *)
  busy : float array; (* per lane: charged seconds, incl. queued *)
  order : int array; (* lanes by (ready time, index) at the last waterfill *)
  ready : float array; (* scratch: per lane, max(now, next_free) *)
  m_boot : mark;
  actor : int option;
  kind : int option; (* Engine kind of job completions, built once *)
  stamp : Engine.stamp; (* a job's finish time on its way to the engine *)
  mutable jobs : int;
}

let create engine ?(cores = 1) ?(capacity = 1.0) ?actor ?kind () =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  if capacity <= 0. then invalid_arg "Cpu.create: capacity must be positive";
  let kind = Some (match kind with Some k -> Engine.kind engine k | None -> 0) in
  { engine; capacity; n_cores = cores;
    next_free = Array.make cores 0.; busy = Array.make cores 0.;
    order = Array.init cores Fun.id; ready = Array.make cores 0.;
    m_boot = { m_time = Engine.now engine; m_exec = Array.make cores 0. };
    actor; kind; stamp = Engine.stamp (); jobs = 0 }

let cores t = t.n_cores

(* Executed-by-now work on one lane.  Lane timelines never contain a gap
   in the future: chunks are appended with start = max(submit time, lane
   free time) and a serial tail after a parallel phase lands on a lane
   whose free time IS the parallel finish.  So everything between now and
   [next_free] is solid work, and subtracting it from the lifetime charge
   gives the executed part exactly. *)
let lane_executed t i =
  let now = Engine.now t.engine in
  t.busy.(i) -. Float.max 0. (t.next_free.(i) -. now)

let submit t ~work:w k =
  if w.serial < 0. || w.parallel < 0. then invalid_arg "Cpu.submit: negative cost";
  let now = Engine.now t.engine in
  let d_p = w.parallel /. t.capacity and d_s = w.serial /. t.capacity in
  (* Parallel phase: waterfill [d_p] lane-seconds so every participating
     lane finishes at the same level T — the earliest finish any split of
     divisible work can achieve. *)
  let finish_parallel =
    if d_p <= 0. then now
    else begin
      (* [Float.max now] for the clock's times, never NaN or -0. *)
      let ready = t.ready and order = t.order in
      for i = 0 to t.n_cores - 1 do
        let r = t.next_free.(i) in
        ready.(i) <- (if r > now then r else now)
      done;
      (* Restore the (ready time, index) order with one insertion pass: a
         job moves few lanes, so the last order is nearly sorted. *)
      for k = 1 to t.n_cores - 1 do
        let x = order.(k) in
        let rx = ready.(x) in
        let j = ref (k - 1) in
        while
          !j >= 0
          && (let y = order.(!j) in
              ready.(y) > rx || (ready.(y) = rx && y > x))
        do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- x
      done;
      (* The [k] earliest lanes share the work; stop when the level stays
         below the next lane's ready time. *)
      let k = ref 1 and prefix = ref ready.(order.(0)) in
      let tl = ref (d_p +. !prefix) in
      while !k < t.n_cores && !tl > ready.(order.(!k)) do
        prefix := !prefix +. ready.(order.(!k));
        incr k;
        tl := (d_p +. !prefix) /. float_of_int !k
      done;
      let tl = !tl in
      for i = 0 to t.n_cores - 1 do
        if ready.(i) < tl then begin
          t.busy.(i) <- t.busy.(i) +. (tl -. ready.(i));
          t.next_free.(i) <- tl
        end
      done;
      tl
    end
  in
  let finish =
    if d_s <= 0. then finish_parallel
    else begin
      let j =
        if d_p > 0. then begin
          (* Run the serial tail on a lane that executed the parallel
             phase (its free time equals the fill level): the tail starts
             immediately and the lane timeline stays gap-free. *)
          let j = ref 0 in
          for i = t.n_cores - 1 downto 0 do
            if t.next_free.(i) = finish_parallel then j := i
          done;
          !j
        end
        else begin
          let j = ref 0 in
          for i = 1 to t.n_cores - 1 do
            if t.next_free.(i) < t.next_free.(!j) then j := i
          done;
          !j
        end
      in
      let start = Float.max (Float.max now finish_parallel) t.next_free.(j) in
      let fin = start +. d_s in
      t.next_free.(j) <- fin;
      t.busy.(j) <- t.busy.(j) +. d_s;
      fin
    end
  in
  let job = t.jobs in
  t.jobs <- job + 1;
  t.stamp.at <- finish;
  Engine.schedule_stamp ?kind:t.kind t.engine t.stamp (fun () ->
      (match t.actor with
       | Some actor ->
         let s = Engine.trace t.engine in
         if Trace.enabled s then
           Trace.instant s ~now:(Engine.now t.engine) ~actor ~cat:"cpu"
             ~name:"job_done" ~id:job
             ~attrs:
               [ ("serial", Trace.A_float w.serial);
                 ("parallel", Trace.A_float w.parallel) ]
       | None -> ());
      k ())

let charge t ~work = submit t ~work (fun () -> ())

let busy_until t = Array.fold_left Float.max 0. t.next_free

let lane_backlog t i = Float.max 0. (t.next_free.(i) -. Engine.now t.engine)

let backlog t =
  let acc = ref 0. in
  for i = 0 to t.n_cores - 1 do
    acc := !acc +. lane_backlog t i
  done;
  !acc

let busy_seconds t = Array.fold_left ( +. ) 0. t.busy

let executed_seconds t =
  let acc = ref 0. in
  for i = 0 to t.n_cores - 1 do
    acc := !acc +. lane_executed t i
  done;
  !acc

let boot t = t.m_boot

let mark t =
  { m_time = Engine.now t.engine;
    m_exec = Array.init t.n_cores (lane_executed t) }

let lane_utilization t ~since i =
  let elapsed = Engine.now t.engine -. since.m_time in
  if elapsed <= 0. then 0.
  else Float.min 1. ((lane_executed t i -. since.m_exec.(i)) /. elapsed)

let utilization t ~since =
  let elapsed = Engine.now t.engine -. since.m_time in
  if elapsed <= 0. then 0.
  else begin
    let e = ref 0. in
    for i = 0 to t.n_cores - 1 do
      e := !e +. (lane_executed t i -. since.m_exec.(i))
    done;
    Float.min 1. (!e /. (float_of_int t.n_cores *. elapsed))
  end
