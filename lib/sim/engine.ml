(* The hot-loop event queue is a two-level calendar/ladder queue with
   pooled event records.

   Dispatch order is (time, seq): the calendar partitions events by time
   slot and keeps heap order inside a bucket with the same tie-break, so
   the bucketing never changes the order. *)

type event = {
  mutable ev_time : float;
  mutable ev_seq : int;
  mutable ev_kind : int;
  mutable ev_born : float;
  mutable ev_fn : unit -> unit;
  mutable ev_cancelled : bool;
  mutable ev_gen : int; (* bumped on release: invalidates stale timer handles *)
}

let noop () = ()

(* Distinguished record for empty array slots: never queued, never
   dispatched.  Vacated heap/pool slots are cleared to [nil] so
   dispatched and cancelled events — and everything their closures
   capture — become collectable immediately instead of lingering until
   the slot is overwritten. *)
let nil =
  { ev_time = 0.; ev_seq = -1; ev_kind = 0; ev_born = 0.; ev_fn = noop;
    ev_cancelled = false; ev_gen = 0 }

type profiler = {
  prof_clock : unit -> float;
  prof_record :
    kind:int -> wall:float -> minor:float -> dwell:float -> depth:int -> unit;
}

(* A binary min-heap ordered by (time, seq): the far-future overflow and
   each calendar bucket. *)
type bheap = { mutable bh_arr : event array; mutable bh_n : int }

let bheap_make cap = { bh_arr = Array.make cap nil; bh_n = 0 }

let before a b =
  a.ev_time < b.ev_time || (a.ev_time = b.ev_time && a.ev_seq < b.ev_seq)

let bh_push h ev =
  if h.bh_n = Array.length h.bh_arr then begin
    let bigger = Array.make (2 * max 1 h.bh_n) nil in
    Array.blit h.bh_arr 0 bigger 0 h.bh_n;
    h.bh_arr <- bigger
  end;
  let a = h.bh_arr in
  let i = ref h.bh_n in
  h.bh_n <- h.bh_n + 1;
  a.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before a.(!i) a.(parent) then begin
      let tmp = a.(parent) in
      a.(parent) <- a.(!i);
      a.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let bh_pop h =
  let a = h.bh_arr in
  let top = a.(0) in
  h.bh_n <- h.bh_n - 1;
  if h.bh_n > 0 then begin
    a.(0) <- a.(h.bh_n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.bh_n && before a.(l) a.(!smallest) then smallest := l;
      if r < h.bh_n && before a.(r) a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = a.(!smallest) in
        a.(!smallest) <- a.(!i);
        a.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  a.(h.bh_n) <- nil;
  top

(* Calendar geometry: [cal_buckets] consecutive time slots of [cal_width]
   seconds each, addressed by absolute slot number (never wrapped, so the
   cursor is monotone); everything past the ring's horizon waits in the
   overflow heap.  1024 x 1ms covers the sim's dense event horizon (network
   latencies, CPU costs); multi-second timers ride the overflow. *)
let cal_buckets = 1024
let cal_mask = cal_buckets - 1
let cal_width = 1e-3

let slot time = int_of_float (time /. cal_width)

type t = {
  overflow : bheap; (* far-future events, past the ring's horizon *)
  buckets : bheap array; (* near-future ring *)
  mutable cur_slot : int;
  mutable ring_n : int; (* events currently in the ring *)
  (* Event-record pool: released records are reused by the next
     [schedule] instead of allocating a fresh record + closure cell per
     event. *)
  mutable pool : event array;
  mutable pool_n : int;
  mutable pool_fresh : int; (* records allocated on the OCaml heap *)
  mutable pool_reused : int; (* records recycled from the pool *)
  mutable queued : int; (* events in the queue, cancelled included *)
  mutable cancelled : int; (* cancelled events still awaiting their slot *)
  mutable max_pending : int; (* high-water mark of *live* queued events *)
  mutable clock : float;
  mutable next_seq : int;
  rng : Rng.t;
  trace : Repro_trace.Trace.Sink.t;
  c_steps : Repro_trace.Trace.Counter.t;
  kind_ids : (string, int) Hashtbl.t;
  mutable kind_names : string array;
  mutable n_kinds : int;
  mutable profiler : profiler option;
}

type timer = { tm_eng : t; tm_ev : event; tm_gen : int }

let create ?(seed = 1L) ?(trace = Repro_trace.Trace.Sink.null ()) () =
  let kind_ids = Hashtbl.create 64 in
  Hashtbl.add kind_ids "other" 0;
  { overflow = bheap_make 256;
    buckets = Array.init cal_buckets (fun _ -> bheap_make 4);
    cur_slot = 0;
    ring_n = 0;
    pool = [||];
    pool_n = 0;
    pool_fresh = 0;
    pool_reused = 0;
    queued = 0;
    cancelled = 0;
    max_pending = 0;
    clock = 0.;
    next_seq = 0;
    rng = Rng.create seed;
    trace;
    c_steps = Repro_trace.Trace.Sink.counter trace ~cat:"sim" ~name:"steps";
    kind_ids;
    kind_names = Array.make 64 "other";
    n_kinds = 1;
    profiler = None }

let now t = t.clock
let rng t = t.rng
let pending t = t.queued - t.cancelled
let max_pending t = t.max_pending
let pool_stats t = (t.pool_fresh, t.pool_reused)
let trace t = t.trace

(* Event-kind interning.  Kinds label events for the (optional) profiler;
   they are plain ints on the hot path so tagging costs nothing when
   profiling is off.  Kind 0 is the pre-registered "other" bucket. *)

let kind t name =
  match Hashtbl.find_opt t.kind_ids name with
  | Some id -> id
  | None ->
    let id = t.n_kinds in
    if id = Array.length t.kind_names then begin
      let bigger = Array.make (2 * id) "other" in
      Array.blit t.kind_names 0 bigger 0 id;
      t.kind_names <- bigger
    end;
    t.kind_names.(id) <- name;
    t.n_kinds <- id + 1;
    Hashtbl.add t.kind_ids name id;
    id

let kind_name t id =
  if id < 0 || id >= t.n_kinds then invalid_arg "Engine.kind_name";
  t.kind_names.(id)

let kinds t = Array.sub t.kind_names 0 t.n_kinds

let set_profiler t p = t.profiler <- p

(* --- calendar maintenance -------------------------------------------------

   Invariant (between public operations): every queued event with
   slot in [cur_slot, cur_slot + cal_buckets) sits in the ring bucket
   [slot land cal_mask], everything else in the overflow heap.  Since the
   window spans exactly [cal_buckets] consecutive slots, each bucket holds
   events of a single slot, so the head of the cursor's bucket is the
   global (time, seq) minimum. *)

let migrate t =
  let horizon = t.cur_slot + cal_buckets in
  let o = t.overflow in
  while o.bh_n > 0 && slot o.bh_arr.(0).ev_time < horizon do
    let ev = bh_pop o in
    bh_push t.buckets.(slot ev.ev_time land cal_mask) ev;
    t.ring_n <- t.ring_n + 1
  done

let insert t ev =
  let s = slot ev.ev_time in
  if s < t.cur_slot then begin
    (* Backdated insert: [run ~until] can scan the cursor past [s] while
       clamping the clock to [until]; rewind by demoting the whole ring to
       the overflow, then re-establish the invariant around the new
       cursor.  Rare (only after a clamped [run]), and dispatch order is
       unaffected: order lives in (time, seq), the calendar only
       partitions. *)
    for i = 0 to cal_buckets - 1 do
      let b = t.buckets.(i) in
      while b.bh_n > 0 do
        bh_push t.overflow (bh_pop b)
      done
    done;
    t.ring_n <- 0;
    t.cur_slot <- s;
    migrate t
  end;
  if s < t.cur_slot + cal_buckets then begin
    bh_push t.buckets.(s land cal_mask) ev;
    t.ring_n <- t.ring_n + 1
  end
  else bh_push t.overflow ev;
  t.queued <- t.queued + 1;
  let live = t.queued - t.cancelled in
  if live > t.max_pending then t.max_pending <- live

(* Advance the cursor to the first non-empty bucket (or jump it to the
   overflow's minimum when the ring is empty) and peek the global
   minimum.  Cursor movement migrates overflow events entering the
   window, preserving the invariant. *)
let rec peek t =
  if t.ring_n = 0 then
    if t.overflow.bh_n = 0 then None
    else begin
      t.cur_slot <- slot t.overflow.bh_arr.(0).ev_time;
      migrate t;
      peek t
    end
  else begin
    let b = t.buckets.(t.cur_slot land cal_mask) in
    if b.bh_n > 0 then Some b.bh_arr.(0)
    else begin
      t.cur_slot <- t.cur_slot + 1;
      migrate t;
      peek t
    end
  end

let pop_min t =
  match peek t with
  | None -> None
  | Some _ ->
    t.ring_n <- t.ring_n - 1;
    Some (bh_pop t.buckets.(t.cur_slot land cal_mask))

(* --- event-record pool ---------------------------------------------------- *)

let alloc t ~time ~kind ~fn =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.pool_n > 0 then begin
    let n = t.pool_n - 1 in
    t.pool_n <- n;
    let ev = t.pool.(n) in
    t.pool.(n) <- nil;
    t.pool_reused <- t.pool_reused + 1;
    ev.ev_time <- time;
    ev.ev_seq <- seq;
    ev.ev_kind <- kind;
    ev.ev_born <- t.clock;
    ev.ev_fn <- fn;
    ev.ev_cancelled <- false;
    ev
  end
  else begin
    t.pool_fresh <- t.pool_fresh + 1;
    { ev_time = time; ev_seq = seq; ev_kind = kind; ev_born = t.clock;
      ev_fn = fn; ev_cancelled = false; ev_gen = 0 }
  end

(* Release drops the closure (collectable immediately), bumps the
   generation so stale timer handles can no longer cancel a recycled
   record, and returns the record to the pool. *)
let release t ev =
  ev.ev_fn <- noop;
  ev.ev_gen <- ev.ev_gen + 1;
  ev.ev_cancelled <- false;
  if t.pool_n = Array.length t.pool then begin
    let bigger = Array.make (max 256 (2 * t.pool_n)) nil in
    Array.blit t.pool 0 bigger 0 t.pool_n;
    t.pool <- bigger
  end;
  t.pool.(t.pool_n) <- ev;
  t.pool_n <- t.pool_n + 1

(* --- scheduling ------------------------------------------------------------ *)

let schedule_at ?(kind = 0) t ~time f =
  let time = if time < t.clock then t.clock else time in
  insert t (alloc t ~time ~kind ~fn:f)

let schedule ?kind t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?kind t ~time:(t.clock +. delay) f

let timer ?(kind = 0) t ~delay f =
  if delay < 0. then invalid_arg "Engine.timer: negative delay";
  let ev = alloc t ~time:(t.clock +. delay) ~kind ~fn:f in
  insert t ev;
  { tm_eng = t; tm_ev = ev; tm_gen = ev.ev_gen }

let cancel tm =
  let ev = tm.tm_ev in
  if ev.ev_gen = tm.tm_gen && not ev.ev_cancelled then begin
    (* The event stays queued until its deadline (consumed as a dead
       slot), but the closure is dropped now and the live-event count is
       corrected immediately. *)
    ev.ev_cancelled <- true;
    ev.ev_fn <- noop;
    tm.tm_eng.cancelled <- tm.tm_eng.cancelled + 1
  end

let rec every ?kind ?(inclusive = true) t ~period ?until f =
  schedule ?kind t ~delay:period (fun () ->
      match until with
      | Some stop when (if inclusive then t.clock > stop else t.clock >= stop)
        -> ()
      | _ ->
        f ();
        every ?kind ~inclusive t ~period ?until f)

let step t =
  match pop_min t with
  | None -> false
  | Some ev ->
    t.queued <- t.queued - 1;
    t.clock <- ev.ev_time;
    if ev.ev_cancelled then begin
      (* Dead slot of a cancelled timer: consume it silently.  The clock
         still advances and [step] still reports progress, but no step is
         counted — exactly the pre-rebuild behaviour of an emptied
         closure cell. *)
      t.cancelled <- t.cancelled - 1;
      release t ev;
      true
    end
    else begin
      (* Copy out, then release *before* dispatch: events the handler
         schedules reuse this record, keeping the pool at steady state. *)
      let f = ev.ev_fn in
      let kind = ev.ev_kind and born = ev.ev_born and time = ev.ev_time in
      release t ev;
      Repro_trace.Trace.Counter.incr t.c_steps;
      (match t.profiler with
       | None -> f ()
       | Some p ->
         (* Write-only observation: capture wall/GC deltas around the
            handler.  Nothing here touches the queue, the clock, or the
            RNG, so a profiled run is bit-identical to an unprofiled
            one. *)
         let depth = t.queued - t.cancelled in
         let w0 = p.prof_clock () in
         let m0 = Gc.minor_words () in
         f ();
         let m1 = Gc.minor_words () in
         let w1 = p.prof_clock () in
         p.prof_record ~kind ~wall:(w1 -. w0) ~minor:(m1 -. m0)
           ~dwell:(time -. born) ~depth);
      true
    end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    let continue = ref true in
    while !continue do
      match peek t with
      | None ->
        t.clock <- stop;
        continue := false
      | Some ev when ev.ev_time > stop ->
        t.clock <- stop;
        continue := false
      | Some _ -> ignore (step t)
    done
