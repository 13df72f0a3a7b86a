(* Tests for the simulation substrate: deterministic RNG, event engine
   semantics, the geographic model, network timing, CPU accounting and
   statistics. *)

open Repro_sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b
let qtest ?(count = 200) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    checkb "same stream" true (Rng.next64 a = Rng.next64 b)
  done;
  let c = Rng.create 100L in
  checkb "different seed different stream" false (Rng.next64 a = Rng.next64 c)

let test_rng_split_independent () =
  let root = Rng.create 1L in
  let a = Rng.split root and b = Rng.split root in
  checkb "split streams differ" false (Rng.next64 a = Rng.next64 b)

let test_rng_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    assert (x >= 0 && x < 17);
    let y = Rng.int_in r 3 9 in
    assert (y >= 3 && y <= 9);
    let f = Rng.float r 2.5 in
    assert (f >= 0. && f < 2.5);
    let e = Rng.exponential r ~mean:1.0 in
    assert (e >= 0.)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "empirical mean near 3" true (abs_float (mean -. 3.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Rng.create 2L in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  Array.sort compare b;
  checkb "shuffle is a permutation" true (a = b)

(* --- Engine ------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:10.0 (fun () -> fired := true);
  Engine.run ~until:5.0 e;
  checkb "not fired before until" false !fired;
  checkf "clock clamped" 5.0 (Engine.now e);
  Engine.run ~until:20.0 e;
  checkb "fires later" true !fired

let test_engine_timer_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel tm;
  Engine.run e;
  checkb "cancelled timer silent" false !fired;
  Engine.cancel tm (* cancelling twice is fine *)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick n () =
    if n > 0 then begin
      incr count;
      Engine.schedule e ~delay:1.0 (tick (n - 1))
    end
  in
  Engine.schedule e ~delay:0.0 (tick 10);
  Engine.run e;
  checki "chained events" 10 !count;
  checkf "clock advanced" 10.0 (Engine.now e)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1.0 ~until:5.5 (fun () -> incr count);
  Engine.run e;
  checki "periodic fires floor(5.5)" 5 !count

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) (fun () -> ()))

let test_engine_heap_stress () =
  let e = Engine.create () in
  let r = Rng.create 3L in
  let last = ref (-1.0) in
  let ok = ref true in
  for _ = 1 to 5000 do
    let t = Rng.float r 1000. in
    Engine.schedule_at e ~time:t (fun () ->
        if Engine.now e < !last then ok := false;
        last := Engine.now e)
  done;
  Engine.run e;
  checkb "monotone processing" true !ok

let test_engine_pending_live () =
  (* Cancelled timers stay queued until their deadline but must not count
     as pending: the [engine.queue_depth] probes report live events. *)
  let e = Engine.create () in
  checki "empty" 0 (Engine.pending e);
  Engine.schedule e ~delay:1.0 (fun () -> ());
  let tms = List.init 10 (fun _ -> Engine.timer e ~delay:5.0 (fun () -> ())) in
  checki "all live" 11 (Engine.pending e);
  checki "high-water tracks live" 11 (Engine.max_pending e);
  List.iteri (fun i tm -> if i < 6 then Engine.cancel tm) tms;
  checki "cancelled leave the live count" 5 (Engine.pending e);
  checki "high-water unchanged by cancel" 11 (Engine.max_pending e);
  Engine.run e;
  checkf "dead slots still advance the clock" 5.0 (Engine.now e);
  checki "drained" 0 (Engine.pending e)

let test_engine_closure_collectable () =
  (* A cancelled timer's closure (and everything it captures) must be
     collectable immediately — and a dispatched event's closure once its
     queue slot is vacated — rather than lingering in the heap array. *)
  let e = Engine.create () in
  let w : bytes Weak.t = Weak.create 2 in
  let mk_cancelled () =
    let big = Bytes.make 65536 'x' in
    Weak.set w 0 (Some big);
    Engine.timer e ~delay:1.0 (fun () -> ignore (Bytes.get big 0))
  in
  let mk_dispatched () =
    let big = Bytes.make 65536 'y' in
    Weak.set w 1 (Some big);
    Engine.schedule e ~delay:2.0 (fun () -> ignore (Bytes.get big 0))
  in
  let tm = mk_cancelled () in
  mk_dispatched ();
  Engine.cancel tm;
  Gc.full_major ();
  checkb "cancelled closure collectable before the deadline" true
    (Weak.get w 0 = None);
  Engine.run e;
  Gc.full_major ();
  checkb "dispatched closure collectable after its slot is vacated" true
    (Weak.get w 1 = None)

let test_engine_every_boundary () =
  (* Pin the boundary semantics of [every ~until]: a tick landing exactly
     at [stop] fires by default (inclusive); [~inclusive:false] stops
     strictly before. *)
  let fires inclusive until =
    let e = Engine.create () in
    let n = ref 0 in
    Engine.every ~inclusive e ~period:1.0 ~until (fun () -> incr n);
    Engine.run e;
    !n
  in
  checki "tick exactly at stop fires (inclusive default)" 5 (fires true 5.0);
  checki "stop between ticks" 5 (fires true 5.5);
  checki "exclusive stops strictly before" 4 (fires false 5.0);
  checki "exclusive with off-grid stop" 5 (fires false 5.5)

(* A randomized schedule/cancel workload.  Every event gets a scheduling
   index when it is scheduled and logs (index, now) when it runs; the
   handlers draw from a private stream, so what is scheduled next depends
   on every dispatch before it.  The mix covers the calendar's cases:
   dense near-future churn (the ring), far-future events (the overflow
   and its migration), delays straddling the ring horizon, same-time ties,
   cancelled timers, and clamped [run ~until] followed by backdated
   inserts that force the cursor to rewind. *)
type drive = {
  log : (int * float) list; (* dispatches in order: (scheduling index, now) *)
  due : (int, float) Hashtbl.t; (* scheduling index -> requested time *)
  cancelled : (int, unit) Hashtbl.t; (* timers cancelled before running *)
  scheduled : int;
  left : int; (* [Engine.pending] after the final run *)
}

let drive_workload seed =
  let e = Engine.create () in
  let r = Rng.create seed in
  let log = ref [] and next = ref 0 in
  let due = Hashtbl.create 1024 and cancelled = Hashtbl.create 64 in
  let ran = Hashtbl.create 1024 in
  let wrap time f =
    let i = !next in
    incr next;
    Hashtbl.replace due i time;
    ( i,
      fun () ->
        Hashtbl.replace ran i ();
        log := (i, Engine.now e) :: !log;
        f () )
  in
  let at time f = Engine.schedule_at e ~time (snd (wrap time f)) in
  let after delay f =
    Engine.schedule e ~delay (snd (wrap (Engine.now e +. delay) f))
  in
  let timers = ref [] in
  for i = 0 to 399 do
    (* Every fourth top-level event lands on a whole second: tie groups. *)
    let time =
      if i mod 4 = 0 then float_of_int (Rng.int r 60) else Rng.float r 60.
    in
    at time (fun () ->
        if i mod 3 = 0 then after (Rng.float r 0.01) ignore;
        if i mod 4 = 0 then after (10. +. Rng.float r 50.) ignore;
        if i mod 2 = 0 then after (Rng.float r 2.) ignore;
        if i mod 6 = 0 then after 0. ignore;
        if i mod 5 = 0 then begin
          let delay = Rng.float r 20. in
          let j, f = wrap (Engine.now e +. delay) ignore in
          timers := (Engine.timer e ~delay f, j) :: !timers
        end;
        if i mod 7 = 0 then
          match !timers with
          | (tm, j) :: rest ->
            Engine.cancel tm;
            if not (Hashtbl.mem ran j) then Hashtbl.replace cancelled j ();
            timers := rest
          | [] -> ())
  done;
  List.iter
    (fun until ->
      Engine.run ~until e;
      for _ = 1 to 3 do
        after (Rng.float r 0.05) ignore
      done)
    [ 10.; 20.; 30.; 45. ];
  Engine.run e;
  { log = List.rev !log; due; cancelled; scheduled = !next;
    left = Engine.pending e }

let test_engine_dispatch_order () =
  for seed = 1 to 8 do
    let w = drive_workload (Int64.of_int seed) in
    let ties = ref 0 in
    ignore
      (List.fold_left
         (fun prev (i, now) ->
           (match prev with
            | Some (j, t) ->
              checkb "time never decreases" true (now >= t);
              if now = t then begin
                incr ties;
                checkb "ties dispatch in scheduling order" true (i > j)
              end
            | None -> ());
           Some (i, now))
         None w.log);
    checkb "workload produces same-time ties" true (!ties > 0);
    checkb "workload cancels pending timers" true
      (Hashtbl.length w.cancelled > 0);
    let runs = Array.make w.scheduled 0 in
    List.iter
      (fun (i, now) ->
        runs.(i) <- runs.(i) + 1;
        checkf "dispatched at its requested time" (Hashtbl.find w.due i) now)
      w.log;
    Array.iteri
      (fun i n ->
        if Hashtbl.mem w.cancelled i then
          checki "cancelled timer never runs" 0 n
        else checki "live event dispatched exactly once" 1 n)
      runs;
    checki "queue drained" 0 w.left
  done

let test_engine_pool_reuse () =
  (* Steady-state churn must recycle records: fresh allocations are
     bounded by the peak live depth, not the event count. *)
  let e = Engine.create () in
  let n = ref 0 in
  let rec self () =
    incr n;
    if !n < 10_000 then Engine.schedule e ~delay:0.25 self
  in
  for _ = 1 to 8 do
    Engine.schedule e ~delay:0.1 self
  done;
  Engine.run e;
  let fresh, reused = Engine.pool_stats e in
  checkb "records recycled" true (reused > 0);
  checkb "fresh bounded by peak depth" true (fresh <= Engine.max_pending e + 8)

(* A kind is only a label: an event scheduled with a negative one runs,
   and a cancelled timer with one stays cancelled. *)
let test_engine_negative_kind () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule ~kind:(-1) e ~delay:0.1 (fun () -> incr ran);
  let tm = Engine.timer ~kind:(-1) e ~delay:0.2 (fun () -> ran := !ran + 10) in
  Engine.cancel tm;
  checki "one live event" 1 (Engine.pending e);
  Engine.run e;
  checki "the live event ran, the cancelled did not" 1 !ran;
  checki "queue drained" 0 (Engine.pending e)

(* A burst far deeper than the queue ever is again must not stay in the
   engine: once the queue has run dry, the engine holds no more than a
   fresh one does. *)
let test_engine_burst_memory () =
  let words e = Obj.reachable_words (Obj.repr e) in
  let fresh = words (Engine.create ()) in
  let e = Engine.create () in
  let ran = ref 0 in
  for i = 0 to 99_999 do
    (* 100k events inside one 1 ms calendar slot. *)
    Engine.schedule_at e ~time:(0.5 +. (float_of_int i *. 1e-9)) (fun () ->
        incr ran)
  done;
  checki "burst queued" 100_000 (Engine.pending e);
  Engine.run e;
  checki "burst ran dry" 100_000 !ran;
  let after = words e in
  checkb
    (Printf.sprintf "drained engine %d words, fresh %d" after fresh)
    true
    (after - fresh < 1_024)

(* --- Region ------------------------------------------------------------- *)

let test_region_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb "latency symmetric" true
            (Region.latency a b = Region.latency b a))
        Region.all)
    Region.all

(* [Region.latency] reads a table built at start-up; every entry must be
   the great-circle formula recomputed here, to the last bit. *)
let test_region_table () =
  let bits = Int64.bits_of_float in
  let formula a b =
    let lat1, lon1 = Region.coords a and lat2, lon2 = Region.coords b in
    let rad d = d *. Float.pi /. 180. in
    let dlat = rad (lat2 -. lat1) and dlon = rad (lon2 -. lon1) in
    let h =
      (sin (dlat /. 2.) ** 2.)
      +. (cos (rad lat1) *. cos (rad lat2) *. (sin (dlon /. 2.) ** 2.))
    in
    Region.local_hop_s +. (1.4 *. (2. *. 6371. *. asin (sqrt h)) /. 200_000.)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = Region.name a ^ " -> " ^ Region.name b in
          let lat = Region.latency a b in
          if a = b then
            Alcotest.(check int64) (name ^ ": local hop") (bits Region.local_hop_s)
              (bits lat)
          else Alcotest.(check int64) (name ^ ": formula") (bits (formula a b)) (bits lat);
          Alcotest.(check int64) (name ^ ": symmetric") (bits (Region.latency b a))
            (bits lat))
        Region.all)
    Region.all

let test_region_plausible () =
  let lat = Region.latency Region.Sydney Region.Ireland in
  checkb "Sydney-Ireland one-way 80-200 ms" true (lat > 0.08 && lat < 0.2);
  let local = Region.latency Region.Paris Region.Paris in
  checkb "intra-region sub-millisecond" true (local <= 0.0005);
  checkb "London-Paris < London-Tokyo" true
    (Region.latency Region.London Region.Paris
     < Region.latency Region.London Region.Tokyo)

let test_region_server_assignment () =
  checki "8 servers in 8 regions" 8
    (List.length (List.sort_uniq compare (Region.server_regions_for 8)));
  checki "64 servers round-robin over 14" 14
    (List.length (List.sort_uniq compare (Region.server_regions_for 64)));
  checki "64 assignments" 64 (List.length (Region.server_regions_for 64))

(* --- Net ------------------------------------------------------------------ *)

let test_net_delivery_time () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = ref (-1.0) in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.London
    ~handler:(fun ~src:_ () -> got := Engine.now e)
    ();
  Net.send net ~src:0 ~dst:1 ~bytes:1000 ();
  Engine.run e;
  let expect =
    (8. *. 1000. /. Net.server_default_egress_bps)
    +. Region.latency Region.Paris Region.London
    +. (8. *. 1000. /. Net.server_default_ingress_bps)
  in
  checkb "latency + serialisation both ends" true (abs_float (!got -. expect) < 1e-9)

let test_net_egress_serializes () =
  let e = Engine.create () in
  let net = Net.create e () in
  let times = ref [] in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris
    ~handler:(fun ~src:_ () -> times := Engine.now e :: !times)
    ();
  let big = 10_000_000 in
  Net.send net ~src:0 ~dst:1 ~bytes:big ();
  Net.send net ~src:0 ~dst:1 ~bytes:big ();
  Engine.run e;
  match List.rev !times with
  | [ t1; t2 ] ->
    let service = 8. *. float_of_int big /. Net.server_default_egress_bps in
    checkb "second waits for first" true (t2 -. t1 >= service *. 0.99)
  | _ -> Alcotest.fail "expected two deliveries"

let test_net_disconnect () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = ref 0 in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> incr got) ();
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Net.disconnect net 1;
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Engine.run e;
  checki "nothing delivered to crashed node" 0 !got;
  checkb "is_connected reflects state" false (Net.is_connected net 1)

let test_net_counters () =
  let e = Engine.create () in
  let net = Net.create e () in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> ()) ();
  Net.send net ~src:0 ~dst:1 ~bytes:123 ();
  Net.multicast net ~src:0 ~dsts:[ 1; 1 ] ~bytes:10 ();
  Engine.run e;
  checki "sent" 143 (Net.bytes_sent net 0);
  checki "received" 143 (Net.bytes_received net 1)

let test_net_loss () =
  let e = Engine.create () in
  let net = Net.create e ~loss:1.0 () in
  let got = ref 0 in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> incr got) ();
  Net.send_lossy net ~src:0 ~dst:1 ~bytes:10 ();
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Engine.run e;
  checki "lossy dropped, reliable passed" 1 !got

let test_net_reconnect () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = ref 0 in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> incr got) ();
  Net.disconnect net 1;
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Net.reconnect net 1;
  checkb "is_connected after reconnect" true (Net.is_connected net 1);
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Engine.run e;
  checki "dropped while down, delivered after reconnect" 1 !got

let test_net_partition_heal () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Net.add_node net ~id:i ~region:Region.Paris
      ~handler:(fun ~src:_ () -> got.(i) <- got.(i) + 1) ()
  done;
  (* Node 2 isolated; 0 and 1 (implicit group 0) still talk. *)
  Net.partition net [ []; [ 2 ] ];
  checkb "partitioned" true (Net.partitioned net);
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Net.send net ~src:0 ~dst:2 ~bytes:10 ();
  Net.send_lossy net ~src:2 ~dst:0 ~bytes:10 ();
  Engine.run e;
  checki "same side delivered" 1 got.(1);
  checki "cross cut dropped (to minority)" 0 got.(2);
  checki "cross cut dropped (from minority)" 0 got.(0);
  Net.heal net;
  checkb "healed" false (Net.partitioned net);
  Net.send net ~src:0 ~dst:2 ~bytes:10 ();
  Engine.run e;
  checki "delivered after heal" 1 got.(2)

let test_net_link_loss () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = ref 0 in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> incr got) ();
  (* Directed: only the 0 -> 1 direction loses packets. *)
  Net.set_link_loss net ~src:0 ~dst:1 1.0;
  Net.send_lossy net ~src:0 ~dst:1 ~bytes:10 ();
  Net.send_lossy net ~src:1 ~dst:0 ~bytes:10 ();
  Net.send net ~src:0 ~dst:1 ~bytes:10 ();
  Engine.run e;
  checki "reliable send unaffected by link loss" 1 !got;
  Net.set_link_loss net ~src:0 ~dst:1 0.0;
  Net.send_lossy net ~src:0 ~dst:1 ~bytes:10 ();
  Engine.run e;
  checki "cleared override delivers again" 2 !got

let test_net_degrade_link () =
  let e = Engine.create () in
  let net = Net.create e () in
  let at = ref 0. in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ _ -> ()) ();
  Net.add_node net ~id:1 ~region:Region.Paris ~handler:(fun ~src:_ () -> at := Engine.now e) ();
  Net.send net ~src:0 ~dst:1 ~bytes:1000 ();
  Engine.run e;
  let baseline = !at in
  Net.degrade_link net ~src:0 ~dst:1 ~extra_latency:0.25;
  Net.send net ~src:0 ~dst:1 ~bytes:1000 ();
  Engine.run e;
  checkf "exactly the extra latency added" (baseline +. 0.25) (!at -. baseline)

let test_net_duplicate_node () =
  let e = Engine.create () in
  let net = Net.create e () in
  Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ () -> ()) ();
  Alcotest.check_raises "duplicate id" (Invalid_argument "Net.add_node: duplicate id")
    (fun () ->
      Net.add_node net ~id:0 ~region:Region.Paris ~handler:(fun ~src:_ () -> ()) ())

(* The node table is an array indexed by id: gaps below an id are fine,
   an id never added is refused by name, and a negative one at once. *)
let test_net_sparse_ids () =
  let e = Engine.create () in
  let net = Net.create e () in
  let got = ref [] in
  Net.add_node net ~id:5 ~region:Region.Paris
    ~handler:(fun ~src () -> got := src :: !got)
    ();
  Net.add_node net ~id:7 ~region:Region.London ~handler:(fun ~src:_ () -> ()) ();
  Net.send net ~src:7 ~dst:5 ~bytes:100 ();
  Engine.run e;
  Alcotest.(check (list int)) "node 5 delivers with ids 0-4 unused" [ 7 ] !got;
  Alcotest.check_raises "never added" (Invalid_argument "Net: unknown node 3")
    (fun () -> Net.send net ~src:5 ~dst:3 ~bytes:100 ());
  Alcotest.check_raises "past the table" (Invalid_argument "Net: unknown node 64")
    (fun () -> Net.send net ~src:64 ~dst:5 ~bytes:100 ());
  Alcotest.check_raises "negative id" (Invalid_argument "Net.add_node: negative id")
    (fun () ->
      Net.add_node net ~id:(-1) ~region:Region.Paris ~handler:(fun ~src:_ () -> ()) ())

(* --- Cpu -------------------------------------------------------------------- *)

let test_cpu_fifo () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  let log = ref [] in
  Cpu.submit cpu ~work:(Cpu.serial 2.0) (fun () -> log := (1, Engine.now e) :: !log);
  Cpu.submit cpu ~work:(Cpu.serial 1.0) (fun () -> log := (2, Engine.now e) :: !log);
  Engine.run e;
  (match List.rev !log with
   | [ (1, t1); (2, t2) ] ->
     checkf "first job at its cost" 2.0 t1;
     checkf "second queues behind" 3.0 t2
   | _ -> Alcotest.fail "two completions expected");
  checkf "busy seconds" 3.0 (Cpu.busy_seconds cpu)

let test_cpu_capacity () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~capacity:0.5 () in
  let t = ref 0. in
  Cpu.submit cpu ~work:(Cpu.serial 1.0) (fun () -> t := Engine.now e);
  Engine.run e;
  checkf "half capacity doubles duration" 2.0 !t

let test_cpu_utilization () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  Cpu.charge cpu ~work:(Cpu.serial 1.0);
  Engine.schedule e ~delay:4.0 (fun () -> ());
  Engine.run e;
  checkf "25% busy over 4s" 0.25 (Cpu.utilization cpu ~since:(Cpu.boot cpu))

let test_cpu_windowed_utilization () =
  (* The satellite bugfix: a window starting after boot must divide the
     work executed IN the window by the window — not lifetime busy
     seconds by the window (which overcounted until the min-1.0 clamp
     hid it). *)
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  Cpu.charge cpu ~work:(Cpu.serial 2.0);
  let mid = ref None in
  Engine.schedule e ~delay:4.0 (fun () -> mid := Some (Cpu.mark cpu));
  Engine.schedule e ~delay:8.0 (fun () -> ());
  Engine.run e;
  let mid = Option.get !mid in
  (* All 2 s of work ran in [0, 4]; the [4, 8] window executed nothing.
     The old lifetime/window formula would have reported 2/4 = 0.5. *)
  checkf "post-boot window is honest" 0. (Cpu.utilization cpu ~since:mid);
  checkf "boot window averages down" 0.25
    (Cpu.utilization cpu ~since:(Cpu.boot cpu))

let test_cpu_parallel_splits () =
  (* Divisible work waterfills across idle lanes: 4 lane-seconds over 4
     idle lanes finish in 1 s, the same job on 1 core takes 4 s. *)
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:4 () in
  let t = ref 0. in
  Cpu.submit cpu ~work:(Cpu.parallel 4.0) (fun () -> t := Engine.now e);
  Engine.run e;
  checkf "parallel job splits over 4 lanes" 1.0 !t;
  checkf "all lane-seconds charged" 4.0 (Cpu.busy_seconds cpu)

let test_cpu_serial_occupies_one_lane () =
  (* A serial job cannot use idle lanes: same duration on 1 or 4 cores,
     and the other lanes remain free for concurrent work. *)
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:4 () in
  let t_serial = ref 0. and t_par = ref 0. in
  Cpu.submit cpu ~work:(Cpu.serial 2.0) (fun () -> t_serial := Engine.now e);
  Cpu.submit cpu ~work:(Cpu.parallel 3.0) (fun () -> t_par := Engine.now e);
  Engine.run e;
  checkf "serial ignores idle lanes" 2.0 !t_serial;
  (* 3 lane-seconds over the 3 remaining idle lanes. *)
  checkf "parallel work fills the other lanes" 1.0 !t_par

let test_cpu_lane_fairness () =
  (* Waterfill levels lanes: after an uneven serial load, parallel work
     goes to the idle lanes first and every participating lane finishes
     at the same instant. *)
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 () in
  Cpu.charge cpu ~work:(Cpu.serial 2.0); (* one lane busy until 2 *)
  let t = ref 0. in
  (* 2 lane-seconds: the idle lane runs it [0,2] alone — the fill level
     2.0 equals the serial lane's ready time, so that lane is untouched. *)
  Cpu.submit cpu ~work:(Cpu.parallel 2.0) (fun () -> t := Engine.now e);
  checkf "both lanes level at 2" 2.0 (Cpu.lane_backlog cpu 0);
  checkf "both lanes level at 2 (other)" 2.0 (Cpu.lane_backlog cpu 1);
  (* A second parallel job waterfills both lanes evenly: +1 s each. *)
  Cpu.charge cpu ~work:(Cpu.parallel 2.0);
  checkf "waterfill levels both lanes" 3.0 (Cpu.busy_until cpu);
  checkf "lane 0 backlog leveled" 3.0 (Cpu.lane_backlog cpu 0);
  checkf "lane 1 backlog leveled" 3.0 (Cpu.lane_backlog cpu 1);
  Engine.run e;
  checkf "first parallel finished at its fill level" 2.0 !t

let test_cpu_serial_after_parallel () =
  (* A mixed job runs its serial tail after the parallel phase: total
     completion = parallel fill level + serial duration. *)
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:4 () in
  let t = ref 0. in
  Cpu.submit cpu ~work:(Cpu.work ~parallel:4.0 ~serial:0.5)
    (fun () -> t := Engine.now e);
  Engine.run e;
  checkf "serial tail after the fill level" 1.5 !t;
  checkf "charge is parallel + serial" 4.5 (Cpu.busy_seconds cpu)

let test_cpu_backlog_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 () in
  Cpu.charge cpu ~work:(Cpu.parallel 4.0); (* 2 s on each lane *)
  Cpu.charge cpu ~work:(Cpu.serial 1.0); (* lane 0: [2, 3] *)
  checkf "backlog sums queued lane-seconds" 5.0 (Cpu.backlog cpu);
  checkf "drain time is the max lane" 3.0 (Cpu.busy_until cpu);
  checkf "nothing executed yet" 0. (Cpu.executed_seconds cpu);
  Engine.schedule e ~delay:1.0 (fun () ->
      (* Both lanes ran solid for 1 s. *)
      checkf "executed grows with the clock" 2.0 (Cpu.executed_seconds cpu);
      checkf "backlog shrinks" 3.0 (Cpu.backlog cpu));
  Engine.run e;
  checkf "all work executed" 5.0 (Cpu.executed_seconds cpu);
  checkf "backlog drains" 0. (Cpu.backlog cpu)

let test_cpu_one_core_matches_serial_queue () =
  (* cores=1 must reproduce the old single-queue semantics exactly: same
     completion instants, same busy accounting, for any mix of classes. *)
  let run_with mk_cpu =
    let e = Engine.create ~seed:7L () in
    let cpu = mk_cpu e in
    let log = ref [] in
    let job i w = Cpu.submit cpu ~work:w (fun () -> log := (i, Engine.now e) :: !log) in
    job 1 (Cpu.serial 0.5);
    job 2 (Cpu.parallel 0.25);
    Engine.schedule e ~delay:0.1 (fun () -> job 3 (Cpu.work ~serial:0.2 ~parallel:0.3));
    Engine.run e;
    (List.rev !log, Cpu.busy_seconds cpu, Cpu.busy_until cpu)
  in
  let log1, busy1, until1 = run_with (fun e -> Cpu.create e ~cores:1 ()) in
  let logd, busyd, untild = run_with (fun e -> Cpu.create e ()) in
  checkb "explicit cores=1 = default" true (log1 = logd);
  checkf "busy equal" busyd busy1;
  checkf "drain equal" untild until1;
  (match log1 with
   | [ (1, t1); (2, t2); (3, t3) ] ->
     checkf "fifo job 1" 0.5 t1;
     checkf "fifo job 2" 0.75 t2;
     checkf "fifo job 3" 1.25 t3
   | _ -> Alcotest.fail "three completions expected")

(* The sort-based waterfill [Cpu.submit] ran before it kept its lane
   order between jobs: every parallel job sorted all lanes by (ready
   time, index).  [Cpu] must reproduce it bit for bit. *)
let sorted_waterfill_submit ~nf ~busy ~now ~serial:d_s ~parallel:d_p =
  let n = Array.length nf in
  let finish_parallel =
    if d_p <= 0. then now
    else begin
      let ready = Array.map (Float.max now) nf in
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          match Float.compare ready.(a) ready.(b) with
          | 0 -> Int.compare a b
          | c -> c)
        order;
      let rec level k prefix =
        let tk = (d_p +. prefix) /. float_of_int k in
        if k = n || tk <= ready.(order.(k)) then tk
        else level (k + 1) (prefix +. ready.(order.(k)))
      in
      let tl = level 1 ready.(order.(0)) in
      for i = 0 to n - 1 do
        if ready.(i) < tl then begin
          busy.(i) <- busy.(i) +. (tl -. ready.(i));
          nf.(i) <- tl
        end
      done;
      tl
    end
  in
  if d_s <= 0. then finish_parallel
  else begin
    let j = ref 0 in
    if d_p > 0. then
      for i = n - 1 downto 0 do
        if nf.(i) = finish_parallel then j := i
      done
    else
      for i = 1 to n - 1 do
        if nf.(i) < nf.(!j) then j := i
      done;
    let j = !j in
    let fin = Float.max (Float.max now finish_parallel) nf.(j) +. d_s in
    nf.(j) <- fin;
    busy.(j) <- busy.(j) +. d_s;
    fin
  end

(* A job: the delay before it is submitted, then its serial and parallel
   seconds.  Short delays against long jobs leave some lanes busy and
   others idle at each submit, so [next_free] lies on both sides of now. *)
let cpu_jobs_gen =
  let open QCheck.Gen in
  let secs = oneof [ return 0.; float_bound_inclusive 0.5; float_bound_inclusive 4. ] in
  let job =
    let* delay = oneof [ return 0.; float_bound_inclusive 0.3; float_bound_inclusive 2. ] in
    let* kind = int_bound 2 in
    let* a = secs and* b = secs in
    return
      (match kind with
       | 0 -> (delay, a, 0.)
       | 1 -> (delay, 0., a)
       | _ -> (delay, a, b))
  in
  pair (int_range 1 32) (list_size (int_range 1 40) job)

let test_cpu_matches_sorted_waterfill (cores, jobs) =
  let bits = Int64.bits_of_float in
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores () in
  let nf = Array.make cores 0. and busy = Array.make cores 0. in
  let jobs = Array.of_list jobs in
  let expected = Array.make (Array.length jobs) nan
  and got = Array.make (Array.length jobs) nan in
  let ok = ref true in
  let agree a b = if bits a <> bits b then ok := false in
  let rec submit i =
    if i < Array.length jobs then begin
      let _, serial, parallel = jobs.(i) in
      let now = Engine.now e in
      expected.(i) <- sorted_waterfill_submit ~nf ~busy ~now ~serial ~parallel;
      Cpu.submit cpu ~work:(Cpu.work ~serial ~parallel) (fun () -> got.(i) <- Engine.now e);
      for l = 0 to cores - 1 do
        let backlog = Float.max 0. (nf.(l) -. now) in
        agree backlog (Cpu.lane_backlog cpu l);
        if now > 0. then
          agree
            (Float.min 1. ((busy.(l) -. backlog) /. now))
            (Cpu.lane_utilization cpu ~since:(Cpu.boot cpu) l)
      done;
      agree (Array.fold_left ( +. ) 0. busy) (Cpu.busy_seconds cpu);
      if i + 1 < Array.length jobs then begin
        let delay, _, _ = jobs.(i + 1) in
        Engine.schedule e ~delay (fun () -> submit (i + 1))
      end
    end
  in
  Engine.schedule e ~delay:(let d, _, _ = jobs.(0) in d) (fun () -> submit 0);
  Engine.run e;
  Array.iteri (fun i x -> agree x got.(i)) expected;
  !ok

let suite_cpu_props =
  [ qtest ~count:300 "waterfill matches the sorted reference bit for bit"
      (QCheck.make
         ~print:(fun (cores, jobs) ->
           Printf.sprintf "%d lanes: %s" cores
             (String.concat "; "
                (List.map (fun (d, s, p) -> Printf.sprintf "+%h s=%h p=%h" d s p) jobs)))
         cpu_jobs_gen)
      test_cpu_matches_sorted_waterfill ]

(* --- Stats -------------------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  checkf "mean" 2.5 (Stats.Summary.mean s);
  checkb "stddev" true (abs_float (Stats.Summary.stddev s -. 1.1180339887) < 1e-6);
  checkf "min" 1. (Stats.Summary.min s);
  checkf "max" 4. (Stats.Summary.max s);
  checki "count" 4 (Stats.Summary.count s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  checkf "empty mean 0" 0. (Stats.Summary.mean s);
  checkf "empty percentile 0" 0. (Stats.Summary.percentile s 0.9)

let near msg expected got =
  checkb
    (Printf.sprintf "%s: %g within 1/64 of %g" msg got expected)
    true
    (Float.abs (got -. expected) <= Float.abs expected /. 64.)

let test_summary_percentile_cache () =
  (* Interleaved add/percentile: a query sees every sample added before
     it, and repeating it is stable. *)
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 5.; 1.; 3. ];
  near "p50 before" 3. (Stats.Summary.percentile s 0.5);
  checkf "p100 before" 5. (Stats.Summary.percentile s 1.0);
  List.iter (Stats.Summary.add s) [ 9.; 7. ];
  near "p50 sees new samples" 5. (Stats.Summary.percentile s 0.5);
  checkf "p100 sees new max" 9. (Stats.Summary.percentile s 1.0);
  checkf "repeat query stable" 9. (Stats.Summary.percentile s 1.0)

let test_summary_nearest_rank () =
  (* Percentile q reports the sample of rank ⌈q·n⌉ (at least 1), to the
     histogram's 1/64 resolution: p75 of two samples is the upper one,
     p50 the lower, and p90 of [0..3] is rank 4. *)
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2. ];
  checkf "p75 of two is the upper" 2. (Stats.Summary.percentile s 0.75);
  near "p50 of two is the lower" 1. (Stats.Summary.percentile s 0.5);
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 0.; 1.; 2.; 3. ];
  checkf "p90 is rank 4" 3. (Stats.Summary.percentile s 0.9);
  near "p60 is rank 3" 2. (Stats.Summary.percentile s 0.6);
  (* Many samples: a fixed bucket array, every sample counted. *)
  let s = Stats.Summary.create () in
  for i = 1 to 999 do
    Stats.Summary.add s (float_of_int i)
  done;
  checki "all counted" 999 (Stats.Summary.count s);
  near "p50 of 1..999" 500. (Stats.Summary.percentile s 0.5)

let test_throughput_window () =
  let e = Engine.create () in
  let w = Stats.Window.create e ~warmup:2.0 ~cooldown:2.0 ~duration:10.0 in
  for i = 0 to 9 do
    Engine.schedule e ~delay:(float_of_int i +. 0.5) (fun () ->
        Stats.Window.record w 10;
        Stats.Window.latency w (float_of_int i))
  done;
  Engine.run e;
  checkf "only window counted: 60 over 6 s" 10.0 (Stats.Window.rate w);
  let lat = Stats.Window.latencies w in
  checki "only window latencies kept" 6 (Repro_trace.Trace.Hist.count lat);
  checkf "their exact mean" 4.5 (Repro_trace.Trace.Hist.mean lat)

let test_empty_window () =
  (* Nothing delivered inside the window: zero counts, and the latency
     histogram says so by its count rather than by a plausible number. *)
  let e = Engine.create () in
  let w = Stats.Window.create e ~warmup:5.0 ~cooldown:1.0 ~duration:8.0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      Stats.Window.record w 3;
      Stats.Window.latency w 0.5);
  Engine.schedule e ~delay:7.5 (fun () -> Stats.Window.latency w 0.5);
  Engine.run e;
  checkf "no delivery counted" 0. (Stats.Window.rate w);
  checki "no latency sample" 0
    (Repro_trace.Trace.Hist.count (Stats.Window.latencies w))

let suite_stats_props =
  [ qtest "percentile is monotone" QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0. 100.))
      (fun xs ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) xs;
        Stats.Summary.percentile s 0.1 <= Stats.Summary.percentile s 0.9);
    qtest "mean within min/max" QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-50.) 50.))
      (fun xs ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) xs;
        Stats.Summary.mean s >= Stats.Summary.min s -. 1e-9
        && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-9);
    qtest "window drops latencies outside it"
      QCheck.(list_of_size (Gen.int_range 0 60) (float_range 0. 12.))
      (fun times ->
        let e = Engine.create () in
        let w = Stats.Window.create e ~warmup:3.0 ~cooldown:2.0 ~duration:10.0 in
        List.iter
          (fun t ->
            Engine.schedule e ~delay:t (fun () ->
                Stats.Window.record w 1;
                Stats.Window.latency w t))
          times;
        Engine.run e;
        let inside = List.filter (fun t -> t >= 3.0 && t <= 8.0) times in
        let lat = Stats.Window.latencies w in
        Float.abs ((Stats.Window.rate w *. 5.) -. float_of_int (List.length inside)) < 1e-9
        && Repro_trace.Trace.Hist.count lat = List.length inside
        && (inside = []
           || Repro_trace.Trace.Hist.min lat >= 3.0
              && Repro_trace.Trace.Hist.max lat <= 8.0)) ]

(* --- Rudp -------------------------------------------------------------------- *)

let rudp_counter e name =
  Repro_trace.Trace.(Counter.value (Sink.counter (Engine.trace e) ~cat:"rudp" ~name))

type rudp_pair = {
  e : Engine.t;
  sender : int Rudp.sender;
  receiver : int Rudp.receiver;
  delivered : int list ref;
  arrivals : int ref; (* data packets that reached the receiver *)
}

(* A loopback channel between one sender and one receiver.  Each packet
   in either direction is lost with probability [loss]; a surviving one
   arrives after 0.05 s plus up to [jitter] s (reordering), and is
   duplicated with probability [dup]. *)
let mk_rudp_pair ?(jitter = 0.) ?(dup = 0.) ~loss ~seed () =
  let e = Engine.create ~seed () in
  let r = Rng.create seed in
  let delivered = ref [] and arrivals = ref 0 in
  let recv_cell = ref None in
  let ack_to_sender = ref (fun (_ : int) -> ()) in
  let channel f =
    if Rng.float r 1.0 >= loss then begin
      let copies = if Rng.float r 1.0 < dup then 2 else 1 in
      for _ = 1 to copies do
        Engine.schedule e ~delay:(0.05 +. Rng.float r jitter) f
      done
    end
  in
  let transmit pkt =
    channel (fun () ->
        incr arrivals;
        match !recv_cell with Some rc -> Rudp.receiver_on_data rc pkt | None -> ())
  in
  let send_ack seq = channel (fun () -> !ack_to_sender seq) in
  let sender = Rudp.sender ~engine:e ~transmit in
  ack_to_sender := Rudp.sender_on_ack sender;
  let receiver = Rudp.receiver ~deliver:(fun m -> delivered := m :: !delivered) ~send_ack in
  recv_cell := Some receiver;
  { e; sender; receiver; delivered; arrivals }

let test_rudp_reliable () =
  let p = mk_rudp_pair ~loss:0.0 ~seed:1L () in
  for i = 0 to 99 do
    Rudp.send p.sender ~bytes:16 i
  done;
  Engine.run ~until:30. p.e;
  checki "all delivered" 100 (List.length !(p.delivered));
  checki "no retransmissions without loss" 0 (rudp_counter p.e "retransmissions")

let test_rudp_under_loss () =
  let p = mk_rudp_pair ~loss:0.3 ~seed:2L () in
  for i = 0 to 199 do
    Rudp.send p.sender ~bytes:16 i
  done;
  Engine.run ~until:120. p.e;
  checki "all delivered despite 30% loss" 200 (List.length !(p.delivered));
  checkb "exactly once" true
    (List.length (List.sort_uniq compare !(p.delivered)) = 200);
  checkb "retransmissions happened" true (rudp_counter p.e "retransmissions" > 0);
  checkb "duplicate copies arrived and were suppressed" true (!(p.arrivals) > 200);
  checki "nothing abandoned" 0 (rudp_counter p.e "gave_up")

let test_rudp_window_smoothing () =
  (* More messages than the window: the backlog queues and drains. *)
  let p = mk_rudp_pair ~loss:0.0 ~seed:3L () in
  for i = 0 to 499 do
    Rudp.send p.sender ~bytes:16 i
  done;
  checki "window bounds in-flight" Rudp.window (Rudp.in_flight p.sender);
  checki "rest queued" (500 - Rudp.window) (Rudp.queued p.sender);
  Engine.run ~until:60. p.e;
  checki "all delivered" 500 (List.length !(p.delivered))

let test_rudp_gives_up () =
  (* A dead peer: the sender abandons after max_retries (26 timeouts of
     0.4 s, i.e. at 10.4 s). *)
  let e = Engine.create ~seed:4L () in
  let sender = Rudp.sender ~engine:e ~transmit:(fun _ -> ()) in
  Rudp.send sender ~bytes:8 0;
  Engine.run ~until:30. e;
  checki "retried" Rudp.max_retries (rudp_counter e "retransmissions");
  checki "gave up" 1 (rudp_counter e "gave_up");
  checki "flight drained" 0 (Rudp.in_flight sender)

(* The ACK cancels the packet's timeout: a lossless exchange dispatches
   no retransmission-timer event at all. *)
let test_rudp_ack_cancels_timer () =
  let p = mk_rudp_pair ~loss:0.0 ~seed:5L () in
  let k_retx = Engine.kind p.e "rudp.retx" in
  let retx_events = ref 0 in
  Engine.set_profiler p.e
    (Some
       { Engine.prof_clock = (fun () -> 0.);
         prof_record =
           (fun ~kind ~wall:_ ~minor:_ ~dwell:_ ~depth:_ ->
             if kind = k_retx then incr retx_events) });
  for i = 0 to 199 do
    Rudp.send p.sender ~bytes:16 i
  done;
  Engine.run ~until:30. p.e;
  checki "all delivered" 200 (List.length !(p.delivered));
  checki "no rudp.retx event dispatched" 0 !retx_events;
  checki "no live timer left" 0 (Engine.pending p.e)

(* The receiver's duplicate filter is a low-water mark plus the set above
   it: after in-order (or locally reordered) traffic it holds no record
   of the packets it has seen. *)
let test_rudp_receiver_state_flat () =
  let words ~swap n =
    let count = ref 0 in
    let r = Rudp.receiver ~deliver:(fun () -> incr count) ~send_ack:ignore in
    for i = 0 to n - 1 do
      let seq = if swap then i lxor 1 else i in
      Rudp.receiver_on_data r (Rudp.Data { seq; payload = (); bytes = 8 })
    done;
    checki "each delivered once" n !count;
    Obj.reachable_words (Obj.repr r)
  in
  let base = words ~swap:false 100 in
  checki "in order: N = 10,000 costs what N = 100 does" base
    (words ~swap:false 10_000);
  checki "pairwise swapped: N = 10,000 costs what N = 100 does" base
    (words ~swap:true 10_000)

let prop_rudp_exactly_once =
  qtest ~count:100 "every payload delivered exactly once over a lossy, reordering, duplicating channel"
    QCheck.(
      quad (int_range 1 150) (float_range 0. 0.3) (float_range 0. 0.3)
        (pair (float_range 0. 1.) (int_range 0 1_000_000)))
    (fun (n, loss, dup, (jitter, seed)) ->
      let p = mk_rudp_pair ~jitter ~dup ~loss ~seed:(Int64.of_int seed) () in
      for i = 0 to n - 1 do
        Rudp.send p.sender ~bytes:16 i
      done;
      Engine.run p.e;
      List.sort compare !(p.delivered) = List.init n Fun.id)

(* --- Lwm ------------------------------------------------------------------ *)

let test_lwm_window () =
  let w = Lwm.create ~window:8 () in
  let state () = (Lwm.low w, Lwm.above w) in
  let check_state msg expected =
    Alcotest.(check (pair int (list int))) msg expected (state ())
  in
  checkb "first add" true (Lwm.add w 0);
  checkb "second add of 0" false (Lwm.add w 0);
  ignore (Lwm.add w 1);
  ignore (Lwm.add w 5);
  check_state "in order advances the mark" (2, [ 5 ]);
  checkb "inside the window" true (Lwm.add w 9);
  check_state "9 < low + 8 keeps the mark" (2, [ 5; 9 ]);
  checkb "past the window" true (Lwm.add w 20);
  check_state "slid to 20 - 8 + 1" (13, [ 20 ]);
  checkb "below the mark is a member" true (Lwm.mem w 3);
  checkb "below the mark adds nothing" false (Lwm.add w 3);
  ignore (Lwm.add w 14);
  ignore (Lwm.add w 13);
  check_state "mark runs over members it touches" (15, [ 20 ]);
  Lwm.advance w 10;
  check_state "advance never lowers" (15, [ 20 ]);
  Lwm.advance w 19;
  check_state "advance to a gap stops there" (19, [ 20 ]);
  Lwm.advance w 20;
  check_state "advance onto a member runs past it" (21, []);
  let r = Lwm.restore ~window:8 ~low:3 ~above:[ 1; 3; 4; 7 ] () in
  Alcotest.(check (pair int (list int))) "restore normalises" (5, [ 7 ])
    (Lwm.low r, Lwm.above r)

let prop_lwm_is_a_set =
  qtest "unbounded Lwm: add and mem agree with a plain set"
    QCheck.(list (int_range 0 64))
    (fun xs ->
      let w = Lwm.create () in
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun x ->
          let fresh = not (Hashtbl.mem seen x) in
          Hashtbl.replace seen x ();
          Lwm.add w x = fresh
          && List.for_all (fun y -> Lwm.mem w y = Hashtbl.mem seen y)
               (List.init 66 Fun.id))
        xs)

(* --- Int_table ------------------------------------------------------------ *)

(* Keys packed as [(a lsl 31) lor b], as Deployment packs a link's two
   node ids: an identity hash would chain every key of one [b] in one
   bucket. *)
let packed a b = (a lsl 31) lor b

type table_op =
  | T_add of int * int
  | T_replace of int * int
  | T_remove of int
  | T_find of int
  | T_mem of int
  | T_length

let table_op_print = function
  | T_add (k, v) -> Printf.sprintf "add %d %d" k v
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_mem k -> Printf.sprintf "mem %d" k
  | T_length -> "length"

let bindings fold t = List.sort compare (fold (fun k v acc -> (k, v) :: acc) t [])

(* Any set of distinct keys from the 128 below, in a table grown from 16
   buckets, has at most 9 in one bucket (the whole set's worst, at 16
   buckets); under an identity hash half the keys share one. *)
let prop_int_table_model =
  let open QCheck.Gen in
  let key = map2 packed (int_range 0 63) (int_range 0 1) in
  let op =
    frequency
      [ (3, map2 (fun k v -> T_add (k, v)) key small_nat);
        (3, map2 (fun k v -> T_replace (k, v)) key small_nat);
        (2, map (fun k -> T_remove k) key);
        (2, map (fun k -> T_find k) key);
        (1, map (fun k -> T_mem k) key);
        (1, return T_length) ]
  in
  qtest ~long_factor:50 "agrees with Hashtbl, and spreads packed keys"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map table_op_print ops))
       (list_size (int_range 0 400) op))
    (fun ops ->
      let t = Int_table.create 16 and model = Hashtbl.create 16 in
      List.for_all
        (function
          | T_add (k, v) -> Int_table.add t k v; Hashtbl.add model k v; true
          | T_replace (k, v) ->
            Int_table.replace t k v; Hashtbl.replace model k v; true
          | T_remove k -> Int_table.remove t k; Hashtbl.remove model k; true
          | T_find k -> Int_table.find_opt t k = Hashtbl.find_opt model k
          | T_mem k -> Int_table.mem t k = Hashtbl.mem model k
          | T_length -> Int_table.length t = Hashtbl.length model)
        ops
      && bindings Int_table.fold t = bindings Hashtbl.fold model
      &&
      let keys = Int_table.create 16 in
      Hashtbl.iter (fun k _ -> Int_table.replace keys k ()) model;
      (Int_table.stats keys).Hashtbl.max_bucket_length <= 9)

(* The links of 6 brokers to 1,000 clients each, packed either way round:
   no chain much longer than a random hash's at this load (1.5 keys a
   bucket). *)
let test_int_table_spread () =
  List.iter
    (fun (name, key) ->
      let t = Int_table.create 16 in
      for b = 0 to 5 do
        for c = 0 to 999 do
          Int_table.replace t (key b c) ()
        done
      done;
      checki (name ^ ": every key kept") 6000 (Int_table.length t);
      let s = Int_table.stats t in
      checkb
        (Printf.sprintf "%s: longest chain %d of %d buckets" name
           s.Hashtbl.max_bucket_length s.Hashtbl.num_buckets)
        true
        (s.Hashtbl.max_bucket_length <= 12))
    [ ("broker high", fun b c -> packed b c); ("client high", fun b c -> packed c b) ]

let test_rudp_packet_bytes () =
  checki "data framing" 28 (Rudp.packet_bytes (Rudp.Data { seq = 0; payload = (); bytes = 16 }));
  checki "ack framing" Rudp.ack_wire (Rudp.packet_bytes (Rudp.Ack { seq = 0 }))

let () =
  Alcotest.run "sim"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "split independent" `Quick test_rng_split_independent;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
         Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ]);
      ("engine",
       [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
         Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
         Alcotest.test_case "until" `Quick test_engine_until;
         Alcotest.test_case "timer cancel" `Quick test_engine_timer_cancel;
         Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
         Alcotest.test_case "every" `Quick test_engine_every;
         Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
         Alcotest.test_case "heap stress" `Quick test_engine_heap_stress;
         Alcotest.test_case "pending excludes cancelled" `Quick
           test_engine_pending_live;
         Alcotest.test_case "closures collectable" `Quick
           test_engine_closure_collectable;
         Alcotest.test_case "every boundary semantics" `Quick
           test_engine_every_boundary;
         Alcotest.test_case "dispatch order" `Quick test_engine_dispatch_order;
         Alcotest.test_case "event pool reuse" `Quick test_engine_pool_reuse;
         Alcotest.test_case "burst memory given back" `Quick
           test_engine_burst_memory;
         Alcotest.test_case "negative kind" `Quick test_engine_negative_kind ]);
      ("region",
       [ Alcotest.test_case "symmetric" `Quick test_region_symmetric;
         Alcotest.test_case "table equals the great-circle formula" `Quick
           test_region_table;
         Alcotest.test_case "plausible latencies" `Quick test_region_plausible;
         Alcotest.test_case "server assignment" `Quick test_region_server_assignment ]);
      ("net",
       [ Alcotest.test_case "delivery time" `Quick test_net_delivery_time;
         Alcotest.test_case "egress serialises" `Quick test_net_egress_serializes;
         Alcotest.test_case "disconnect" `Quick test_net_disconnect;
         Alcotest.test_case "byte counters" `Quick test_net_counters;
         Alcotest.test_case "loss" `Quick test_net_loss;
         Alcotest.test_case "reconnect" `Quick test_net_reconnect;
         Alcotest.test_case "partition + heal" `Quick test_net_partition_heal;
         Alcotest.test_case "per-link loss" `Quick test_net_link_loss;
         Alcotest.test_case "degrade link" `Quick test_net_degrade_link;
         Alcotest.test_case "duplicate node" `Quick test_net_duplicate_node;
         Alcotest.test_case "sparse ids" `Quick test_net_sparse_ids ]);
      ("cpu",
       [ Alcotest.test_case "fifo" `Quick test_cpu_fifo;
         Alcotest.test_case "capacity" `Quick test_cpu_capacity;
         Alcotest.test_case "utilization" `Quick test_cpu_utilization;
         Alcotest.test_case "windowed utilization" `Quick
           test_cpu_windowed_utilization;
         Alcotest.test_case "parallel splits across lanes" `Quick
           test_cpu_parallel_splits;
         Alcotest.test_case "serial occupies one lane" `Quick
           test_cpu_serial_occupies_one_lane;
         Alcotest.test_case "lane fairness" `Quick test_cpu_lane_fairness;
         Alcotest.test_case "serial tail after parallel" `Quick
           test_cpu_serial_after_parallel;
         Alcotest.test_case "backlog accounting" `Quick
           test_cpu_backlog_accounting;
         Alcotest.test_case "one core matches serial queue" `Quick
           test_cpu_one_core_matches_serial_queue ]
       @ suite_cpu_props);
      ("stats",
       Alcotest.test_case "summary" `Quick test_summary
       :: Alcotest.test_case "summary empty" `Quick test_summary_empty
       :: Alcotest.test_case "summary percentile cache" `Quick
            test_summary_percentile_cache
       :: Alcotest.test_case "summary nearest rank" `Quick
            test_summary_nearest_rank
       :: Alcotest.test_case "throughput window" `Quick test_throughput_window
       :: Alcotest.test_case "empty window" `Quick test_empty_window
       :: suite_stats_props);
      ("rudp",
       [ Alcotest.test_case "reliable without loss" `Quick test_rudp_reliable;
         Alcotest.test_case "exactly-once under 30% loss" `Quick test_rudp_under_loss;
         Alcotest.test_case "window smoothing" `Quick test_rudp_window_smoothing;
         Alcotest.test_case "gives up on dead peer" `Quick test_rudp_gives_up;
         Alcotest.test_case "ack cancels the timeout" `Quick test_rudp_ack_cancels_timer;
         Alcotest.test_case "receiver state flat in packets seen" `Quick
           test_rudp_receiver_state_flat;
         prop_rudp_exactly_once;
         Alcotest.test_case "packet framing" `Quick test_rudp_packet_bytes ]);
      ("lwm",
       [ Alcotest.test_case "window slide, advance, restore" `Quick
           test_lwm_window;
         prop_lwm_is_a_set ]);
      ("itable",
       [ prop_int_table_model;
         Alcotest.test_case "packed pairs spread" `Quick test_int_table_spread ]) ]
