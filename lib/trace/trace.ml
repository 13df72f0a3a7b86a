type attr =
  | A_int of int
  | A_float of float
  | A_str of string
  | A_bool of bool

type phase = B | E | I | C of float

type event = {
  ev_time : float;
  ev_actor : int;
  ev_cat : string;
  ev_name : string;
  ev_id : int;
  ev_phase : phase;
  ev_attrs : (string * attr) list;
}

let dummy_event =
  { ev_time = 0.; ev_actor = 0; ev_cat = ""; ev_name = ""; ev_id = 0;
    ev_phase = I; ev_attrs = [] }

module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }
  let add t n = t.value <- t.value + n
  let incr t = t.value <- t.value + 1
  let value t = t.value
end

module Hist = struct
  (* Log-linear layout: octave [o] covers [2^(o-bias), 2^(o-bias+1)) and is
     cut into [sub] equal-width linear sub-buckets, so every bucket is at
     most 1/32 of its lower bound wide. *)
  let sub_bits = 5
  let sub = 1 lsl sub_bits
  let octaves = 64
  let bias = 31
  let n_buckets = octaves * sub
  let top = Float.ldexp 1.0 (octaves - bias) (* first value past the range *)

  (* An all-float record is stored flat, so updating its fields does not
     box: [add] allocates nothing. *)
  type sums = {
    mutable total : float;
    mutable total_sq : float;
    mutable lo : float;
    mutable hi : float;
  }

  type t = { counts : int array; mutable n : int; s : sums }

  let create () =
    { counts = Array.make n_buckets 0; n = 0;
      s = { total = 0.; total_sq = 0.; lo = infinity; hi = neg_infinity } }

  let index v =
    if not (v > 0.) then 0
    else if v >= top then n_buckets - 1
    else begin
      (* v = m * 2^e with m in [0.5, 1): octave e-1, linear slot of m. *)
      let m, e = Float.frexp v in
      let o = e - 1 + bias in
      if o < 0 then 0
      else (o lsl sub_bits) lor int_of_float ((m -. 0.5) *. float_of_int (2 * sub))
    end

  let midpoint i =
    let s = float_of_int (i land (sub - 1)) in
    Float.ldexp (1. +. ((s +. 0.5) /. float_of_int sub)) ((i lsr sub_bits) - bias)

  let add t v =
    let b = index v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    let s = t.s in
    s.total <- s.total +. v;
    s.total_sq <- s.total_sq +. (v *. v);
    if v < s.lo then s.lo <- v;
    if v > s.hi then s.hi <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.s.total /. float_of_int t.n

  let stddev t =
    if t.n < 2 then 0.
    else begin
      let n = float_of_int t.n in
      let var = (t.s.total_sq /. n) -. ((t.s.total /. n) ** 2.) in
      sqrt (Float.max 0. var)
    end

  let min t = if t.n = 0 then 0. else t.s.lo
  let max t = if t.n = 0 then 0. else t.s.hi

  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let i = ref 0 and acc = ref t.counts.(0) in
      while !acc < rank do
        incr i;
        acc := !acc + t.counts.(!i)
      done;
      (* Clamping to the observed range only moves the midpoint towards
         the ranked sample, which lies inside it. *)
      Float.min t.s.hi (Float.max t.s.lo (midpoint !i))
    end
end

module Sink = struct
  type t = {
    on : bool;
    capacity : int; (* 0: growable, unbounded *)
    mutable buf : event array;
    mutable len : int;
    mutable head : int; (* ring: index of the oldest stored event *)
    mutable dropped : int;
    counters : (string * string, Counter.t) Hashtbl.t;
  }

  let null () =
    { on = false; capacity = 0; buf = [||]; len = 0; head = 0; dropped = 0;
      counters = Hashtbl.create 8 }

  let memory () =
    { on = true; capacity = 0; buf = Array.make 1024 dummy_event;
      len = 0; head = 0; dropped = 0; counters = Hashtbl.create 16 }

  let ring ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Sink.ring: capacity must be positive";
    { on = true; capacity; buf = Array.make capacity dummy_event;
      len = 0; head = 0; dropped = 0; counters = Hashtbl.create 16 }

  let enabled t = t.on
  let length t = t.len
  let dropped t = t.dropped

  let emit t e =
    if t.on then
      if t.capacity = 0 then begin
        if t.len = Array.length t.buf then begin
          let bigger = Array.make (Stdlib.max 1024 (2 * t.len)) dummy_event in
          Array.blit t.buf 0 bigger 0 t.len;
          t.buf <- bigger
        end;
        t.buf.(t.len) <- e;
        t.len <- t.len + 1
      end
      else if t.len < t.capacity then begin
        t.buf.((t.head + t.len) mod t.capacity) <- e;
        t.len <- t.len + 1
      end
      else begin
        t.buf.(t.head) <- e;
        t.head <- (t.head + 1) mod t.capacity;
        t.dropped <- t.dropped + 1
      end

  let events t =
    let cap = Stdlib.max 1 (Array.length t.buf) in
    List.init t.len (fun i -> t.buf.((t.head + i) mod cap))

  let clear t =
    t.len <- 0;
    t.head <- 0;
    t.dropped <- 0

  let counter t ~cat ~name =
    match Hashtbl.find_opt t.counters (cat, name) with
    | Some c -> c
    | None ->
      let c = Counter.make () in
      Hashtbl.add t.counters (cat, name) c;
      c

  let counters t =
    Hashtbl.fold (fun (cat, name) c acc -> (cat, name, Counter.value c) :: acc)
      t.counters []
    |> List.sort compare
end

let enabled = Sink.enabled

let span_begin ?(attrs = []) sink ~now ~actor ~cat ~name ~id =
  if Sink.enabled sink then
    Sink.emit sink
      { ev_time = now; ev_actor = actor; ev_cat = cat; ev_name = name;
        ev_id = id; ev_phase = B; ev_attrs = attrs }

let span_end ?(attrs = []) sink ~now ~actor ~cat ~name ~id =
  if Sink.enabled sink then
    Sink.emit sink
      { ev_time = now; ev_actor = actor; ev_cat = cat; ev_name = name;
        ev_id = id; ev_phase = E; ev_attrs = attrs }

let instant ?(attrs = []) sink ~now ~actor ~cat ~name ~id =
  if Sink.enabled sink then
    Sink.emit sink
      { ev_time = now; ev_actor = actor; ev_cat = cat; ev_name = name;
        ev_id = id; ev_phase = I; ev_attrs = attrs }

let count sink ~now ~actor ~cat ~name v =
  if Sink.enabled sink then
    Sink.emit sink
      { ev_time = now; ev_actor = actor; ev_cat = cat; ev_name = name;
        ev_id = 0; ev_phase = C v; ev_attrs = [] }

let key s = Hashtbl.hash s land 0x3FFFFFFF

module Ctx = struct
  type t = { root : int; hop : int }

  let make ~root = { root; hop = 0 }
  let child t = { t with hop = t.hop + 1 }
  let root t = t.root
  let hop t = t.hop
  let wire_bytes = 5
end

let attr_int attrs name =
  match List.assoc_opt name attrs with
  | Some (A_int i) -> Some i
  | Some (A_float f) -> Some (int_of_float f)
  | _ -> None

module Span = struct
  type t = {
    sp_cat : string;
    sp_name : string;
    sp_actor : int;
    sp_id : int;
    sp_begin : float;
    sp_end : float;
    sp_attrs : (string * attr) list;
  }

  let duration s = s.sp_end -. s.sp_begin

  let pair events =
    let open_spans : (string * string * int * int, event list) Hashtbl.t =
      Hashtbl.create 64
    in
    let out = ref [] in
    List.iter
      (fun e ->
        let k = (e.ev_cat, e.ev_name, e.ev_actor, e.ev_id) in
        match e.ev_phase with
        | B ->
          let stack = Option.value (Hashtbl.find_opt open_spans k) ~default:[] in
          Hashtbl.replace open_spans k (e :: stack)
        | E ->
          (match Hashtbl.find_opt open_spans k with
           | Some (b :: rest) ->
             if rest = [] then Hashtbl.remove open_spans k
             else Hashtbl.replace open_spans k rest;
             out :=
               { sp_cat = e.ev_cat; sp_name = e.ev_name; sp_actor = e.ev_actor;
                 sp_id = e.ev_id; sp_begin = b.ev_time; sp_end = e.ev_time;
                 sp_attrs = b.ev_attrs @ e.ev_attrs }
               :: !out
           | Some [] | None -> () (* unmatched end: dropped *))
        | I | C _ -> ())
      events;
    List.rev !out
end
