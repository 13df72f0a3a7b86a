(* The hot-loop event queue is a two-level calendar/ladder queue over one
   table of event rows.

   Dispatch order is (time, seq): the calendar partitions events by time
   slot and keeps heap order inside a slot with the same tie-break, so the
   bucketing never changes the order.

   Layout: every queued event is a row of the table, its fields in flat
   arrays ([float array] for times, so they are stored unboxed).  Rows are
   recycled through a free list.  A future slot of the ring is an unsorted
   list of rows, linked through [r_next]; only the cursor's slot and the
   far-future overflow are heaps, and each keeps its entries' time and seq
   in its own flat arrays beside the row index, so a sift compares unboxed
   numbers and follows no pointer.  Memory thus follows the queue's depth,
   not the busiest slot each bucket has ever seen. *)

let noop () = ()

type profiler = {
  prof_clock : unit -> float;
  prof_record :
    kind:int -> wall:float -> minor:float -> dwell:float -> depth:int -> unit;
}

(* A binary min-heap of rows ordered by (time, seq): the cursor's slot and
   the overflow.  Entry [i] is row [h_row.(i)], with its time and seq
   copied to [h_time.(i)] and [h_seq.(i)]. *)
type heap = {
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_row : int array;
  mutable h_n : int;
}

let heap_make () = { h_time = [||]; h_seq = [||]; h_row = [||]; h_n = 0 }

(* Room for one more entry: its index, where the caller writes it before
   [heap_sift_up].  Entries are written in place, never passed as
   arguments, so no time is boxed on the way in. *)
let heap_reserve h =
  let n = h.h_n in
  if n = Array.length h.h_row then begin
    let cap = max 64 (2 * n) in
    let time = Array.make cap 0. and seq = Array.make cap 0 in
    let row = Array.make cap 0 in
    Array.blit h.h_time 0 time 0 n;
    Array.blit h.h_seq 0 seq 0 n;
    Array.blit h.h_row 0 row 0 n;
    h.h_time <- time;
    h.h_seq <- seq;
    h.h_row <- row
  end;
  n

(* Move entry [i] up to its place, moving parents down into its hole. *)
let heap_sift_up h i =
  let ta = h.h_time and sa = h.h_seq and ra = h.h_row in
  let time = ta.(i) and seq = sa.(i) and row = ra.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = ta.(p) in
    if time < pt || (time = pt && seq < sa.(p)) then begin
      ta.(!i) <- pt;
      sa.(!i) <- sa.(p);
      ra.(!i) <- ra.(p);
      i := p
    end
    else continue := false
  done;
  ta.(!i) <- time;
  sa.(!i) <- seq;
  ra.(!i) <- row

(* Move entry [i] down to its place among the first [h_n]. *)
let heap_sift_down h i =
  let ta = h.h_time and sa = h.h_seq and ra = h.h_row in
  let n = h.h_n in
  let time = ta.(i) and seq = sa.(i) and row = ra.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (ta.(r) < ta.(l) || (ta.(r) = ta.(l) && sa.(r) < sa.(l)))
        then r
        else l
      in
      let ct = ta.(c) in
      if ct < time || (ct = time && sa.(c) < seq) then begin
        ta.(!i) <- ct;
        sa.(!i) <- sa.(c);
        ra.(!i) <- ra.(c);
        i := c
      end
      else continue := false
    end
  done;
  ta.(!i) <- time;
  sa.(!i) <- seq;
  ra.(!i) <- row

(* Remove the minimum and return its row. *)
let heap_pop h =
  let row = h.h_row.(0) in
  let n = h.h_n - 1 in
  h.h_n <- n;
  if n > 0 then begin
    h.h_time.(0) <- h.h_time.(n);
    h.h_seq.(0) <- h.h_seq.(n);
    h.h_row.(0) <- h.h_row.(n);
    heap_sift_down h 0
  end;
  row

(* Calendar geometry: [cal_buckets] consecutive time slots of [cal_width]
   seconds each, addressed by absolute slot number (never wrapped, so the
   cursor is monotone); everything past the ring's horizon waits in the
   overflow heap.  1024 x 1ms covers the sim's dense event horizon (network
   latencies, CPU costs); multi-second timers ride the overflow. *)
let cal_buckets = 1024
let cal_mask = cal_buckets - 1
let cal_width = 1e-3

let slot time = int_of_float (time /. cal_width)

(* Rows a table may keep when the queue runs dry; a larger one, grown by a
   deeper queue, is given back then. *)
let table_keep = 1024

(* [r_seq] of a free row, and of a cancelled event's row. *)
let free_seq = -1
let cancelled_seq = -2

type t = {
  (* The row table.  A row's seq is its event's, or [free_seq] or
     [cancelled_seq]. *)
  mutable r_time : float array;
  mutable r_seq : int array;
  mutable r_born : float array; (* clock at scheduling: the profiler's dwell *)
  mutable r_kind : int array;
  mutable r_fn : (unit -> unit) array;
  mutable r_next : int array; (* next row of its slot list or the free list *)
  mutable free : int; (* head of the free list, -1 when empty *)
  mutable used : int; (* rows below it have held an event since made *)
  heads : int array; (* per ring bucket: first row of its slot list, or -1 *)
  cur : heap; (* the cursor's slot *)
  overflow : heap; (* far-future events, past the ring's horizon *)
  mutable cur_slot : int;
  mutable ring_n : int; (* rows in the slot lists *)
  mutable fresh : int; (* rows taken that had never held an event *)
  mutable reused : int; (* rows taken from the free list's recycled part *)
  mutable queued : int; (* events in the queue, cancelled included *)
  mutable cancelled : int; (* cancelled events still awaiting their slot *)
  mutable max_pending : int; (* high-water mark of *live* queued events *)
  mutable now : float; (* the clock: [now] reads it without allocating *)
  mutable next_seq : int;
  rng : Rng.t;
  trace : Repro_trace.Trace.Sink.t;
  c_steps : Repro_trace.Trace.Counter.t;
  kind_ids : (string, int) Hashtbl.t;
  mutable kind_names : string array;
  mutable n_kinds : int;
  mutable profiler : profiler option;
}

(* A timer names its row and the seq it was scheduled with: seqs are never
   reused, so a handle whose event has run or been recycled matches no
   row. *)
type timer = { tm_eng : t; tm_row : int; tm_seq : int }

let create ?(seed = 1L) ?(trace = Repro_trace.Trace.Sink.null ()) () =
  let kind_ids = Hashtbl.create 64 in
  Hashtbl.add kind_ids "other" 0;
  { r_time = [||];
    r_seq = [||];
    r_born = [||];
    r_kind = [||];
    r_fn = [||];
    r_next = [||];
    free = -1;
    used = 0;
    heads = Array.make cal_buckets (-1);
    cur = heap_make ();
    overflow = heap_make ();
    cur_slot = 0;
    ring_n = 0;
    fresh = 0;
    reused = 0;
    queued = 0;
    cancelled = 0;
    max_pending = 0;
    now = 0.;
    next_seq = 0;
    rng = Rng.create seed;
    trace;
    c_steps = Repro_trace.Trace.Sink.counter trace ~cat:"sim" ~name:"steps";
    kind_ids;
    kind_names = Array.make 64 "other";
    n_kinds = 1;
    profiler = None }

let now t = t.now
let rng t = t.rng
let pending t = t.queued - t.cancelled
let max_pending t = t.max_pending
let pool_stats t = (t.fresh, t.reused)
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

(* --- the row table --------------------------------------------------------- *)

(* Double the table; the new rows become the free list, in index order. *)
let grow t =
  let n = Array.length t.r_seq in
  let cap = max 64 (2 * n) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.r_time <- extend t.r_time 0.;
  t.r_seq <- extend t.r_seq free_seq;
  t.r_born <- extend t.r_born 0.;
  t.r_kind <- extend t.r_kind 0;
  t.r_fn <- extend t.r_fn noop;
  t.r_next <- extend t.r_next (-1);
  for r = n to cap - 2 do
    t.r_next.(r) <- r + 1
  done;
  t.free <- n

(* A row off the free list.  Recycled rows sit before the never-used ones,
   so a never-used row is taken only when every used one holds an event. *)
let take_row t =
  if t.free < 0 then grow t;
  let r = t.free in
  t.free <- t.r_next.(r);
  if r < t.used then t.reused <- t.reused + 1
  else begin
    t.used <- r + 1;
    t.fresh <- t.fresh + 1
  end;
  r

(* Free a dispatched row.  Its closure is dropped at once, so everything
   it captured becomes collectable. *)
let free_row t r =
  t.r_seq.(r) <- free_seq;
  t.r_fn.(r) <- noop;
  t.r_next.(r) <- t.free;
  t.free <- r

(* The queue has run dry: a table or heap grown past [table_keep] by a
   deeper queue is given back, so the engine holds what a fresh one does. *)
let heap_shrink_dry h =
  if Array.length h.h_row > table_keep then begin
    h.h_time <- [||];
    h.h_seq <- [||];
    h.h_row <- [||]
  end

let shrink_dry t =
  if Array.length t.r_seq > table_keep then begin
    t.r_time <- [||];
    t.r_seq <- [||];
    t.r_born <- [||];
    t.r_kind <- [||];
    t.r_fn <- [||];
    t.r_next <- [||];
    t.free <- -1;
    t.used <- 0
  end;
  heap_shrink_dry t.cur;
  heap_shrink_dry t.overflow

(* --- calendar maintenance -------------------------------------------------

   Invariant (between public operations): every queued row with slot
   [cur_slot] is in the heap [cur]; one with slot in
   (cur_slot, cur_slot + cal_buckets) is in the list of bucket
   [slot land cal_mask]; everything else is in the overflow heap.  Since
   the window spans exactly [cal_buckets] consecutive slots, each list
   holds rows of a single slot, and the head of [cur] is the global
   (time, seq) minimum whenever [cur] is not empty. *)

let heap_add t h r =
  let i = heap_reserve h in
  h.h_time.(i) <- t.r_time.(r);
  h.h_seq.(i) <- t.r_seq.(r);
  h.h_row.(i) <- r;
  h.h_n <- i + 1;
  heap_sift_up h i

let list_add t s r =
  let b = s land cal_mask in
  t.r_next.(r) <- t.heads.(b);
  t.heads.(b) <- r;
  t.ring_n <- t.ring_n + 1

(* Move the cursor to slot [s] ([cur] must be empty): overflow rows
   entering the window join their slot lists, then slot [s]'s list
   becomes the heap [cur]. *)
let advance_to t s =
  t.cur_slot <- s;
  let horizon = s + cal_buckets in
  let o = t.overflow in
  while o.h_n > 0 && slot o.h_time.(0) < horizon do
    let s = slot o.h_time.(0) in
    list_add t s (heap_pop o)
  done;
  let b = s land cal_mask in
  let r = ref t.heads.(b) in
  t.heads.(b) <- -1;
  let c = t.cur in
  while !r >= 0 do
    let i = heap_reserve c in
    c.h_time.(i) <- t.r_time.(!r);
    c.h_seq.(i) <- t.r_seq.(!r);
    c.h_row.(i) <- !r;
    c.h_n <- i + 1;
    t.ring_n <- t.ring_n - 1;
    r := t.r_next.(!r)
  done;
  for i = (c.h_n / 2) - 1 downto 0 do
    heap_sift_down c i
  done

(* Backdated insert: [run ~until] can scan the cursor past a slot while
   clamping the clock to [until]; rewind by demoting the whole ring to
   the overflow, then re-establish the invariant around the new cursor.
   Rare (only after a clamped [run]), and dispatch order is unaffected:
   order lives in (time, seq), the calendar only partitions. *)
let rewind t s =
  let c = t.cur in
  for i = 0 to c.h_n - 1 do
    heap_add t t.overflow c.h_row.(i)
  done;
  c.h_n <- 0;
  for b = 0 to cal_buckets - 1 do
    let r = ref t.heads.(b) in
    t.heads.(b) <- -1;
    while !r >= 0 do
      let next = t.r_next.(!r) in
      heap_add t t.overflow !r;
      r := next
    done
  done;
  t.ring_n <- 0;
  advance_to t s

let insert t time ~kind f =
  let s = slot time in
  if s < t.cur_slot then rewind t s;
  let r = take_row t in
  t.r_time.(r) <- time;
  t.r_seq.(r) <- t.next_seq;
  t.r_born.(r) <- t.now;
  t.r_kind.(r) <- kind;
  t.r_fn.(r) <- f;
  t.next_seq <- t.next_seq + 1;
  if s = t.cur_slot then heap_add t t.cur r
  else if s < t.cur_slot + cal_buckets then list_add t s r
  else heap_add t t.overflow r;
  t.queued <- t.queued + 1;
  let live = t.queued - t.cancelled in
  if live > t.max_pending then t.max_pending <- live;
  r

(* Advance the cursor to the next non-empty slot (or jump it to the
   overflow's minimum when the ring is empty); [false] when nothing is
   queued.  On [true] the global minimum heads [cur]. *)
let rec settle t =
  if t.cur.h_n > 0 then true
  else if t.ring_n > 0 then begin
    advance_to t (t.cur_slot + 1);
    settle t
  end
  else if t.overflow.h_n > 0 then begin
    advance_to t (slot t.overflow.h_time.(0));
    settle t
  end
  else false

(* --- scheduling ------------------------------------------------------------ *)

let schedule_at ?(kind = 0) t ~time f =
  if time < t.now then ignore (insert t t.now ~kind f)
  else ignore (insert t time ~kind f)

let schedule ?kind t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?kind t ~time:(t.now +. delay) f

let timer ?(kind = 0) t ~delay f =
  if delay < 0. then invalid_arg "Engine.timer: negative delay";
  let r = insert t (t.now +. delay) ~kind f in
  { tm_eng = t; tm_row = r; tm_seq = t.r_seq.(r) }

let cancel tm =
  let t = tm.tm_eng and r = tm.tm_row in
  if r < Array.length t.r_seq && t.r_seq.(r) = tm.tm_seq then begin
    (* The event stays queued until its deadline (consumed as a dead
       slot), but the closure is dropped now and the live-event count is
       corrected immediately.  A row that moves into a heap after this
       carries the marker as its seq, so its dead slot may come before
       same-time events: it runs nothing, so no order changes. *)
    t.r_seq.(r) <- cancelled_seq;
    t.r_fn.(r) <- noop;
    t.cancelled <- t.cancelled + 1
  end

let rec every ?kind ?(inclusive = true) t ~period ?until f =
  schedule ?kind t ~delay:period (fun () ->
      match until with
      | Some stop when
          (if inclusive then t.now > stop else t.now >= stop) ->
        ()
      | _ ->
        f ();
        every ?kind ~inclusive t ~period ?until f)

(* Dispatch the minimum; [settle t] must have returned [true]. *)
let dispatch t =
  let r = heap_pop t.cur in
  let dead = t.r_seq.(r) = cancelled_seq in
  let time = t.r_time.(r) and born = t.r_born.(r) in
  let kind = t.r_kind.(r) and f = t.r_fn.(r) in
  (* Free the row *before* dispatch: events the handler schedules reuse
     it. *)
  free_row t r;
  t.queued <- t.queued - 1;
  if t.queued = 0 then shrink_dry t;
  t.now <- time;
  if dead then
    (* Dead slot of a cancelled timer: consume it silently.  The clock
       still advances and [step] still reports progress, but no step is
       counted. *)
    t.cancelled <- t.cancelled - 1
  else begin
    Repro_trace.Trace.Counter.incr t.c_steps;
    match t.profiler with
    | None -> f ()
    | Some p ->
      (* Write-only observation: capture wall/GC deltas around the
         handler.  Nothing here touches the queue, the clock, or the RNG,
         so a profiled run is bit-identical to an unprofiled one. *)
      let depth = t.queued - t.cancelled in
      let w0 = p.prof_clock () in
      let m0 = Gc.minor_words () in
      f ();
      let m1 = Gc.minor_words () in
      let w1 = p.prof_clock () in
      p.prof_record ~kind ~wall:(w1 -. w0) ~minor:(m1 -. m0)
        ~dwell:(time -. born) ~depth
  end

let step t =
  settle t
  && begin
    dispatch t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    while settle t && t.cur.h_time.(0) <= stop do
      dispatch t
    done;
    t.now <- stop
