(* Tests for the trace subsystem: the log-linear histogram, sink
   semantics (null / memory / ring), span pairing, Chrome export
   well-formedness, and the two end-to-end properties the ISSUE pins
   down — bit-identical traces across same-seed runs, and the
   telescoping per-phase latency decomposition. *)

open Repro_trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

(* --- Hist ------------------------------------------------------------- *)

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The exact sample at rank ⌈q·n⌉ (at least 1) of the sorted samples. *)
let exact_rank xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(rank - 1)

let hist_of xs =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.add h) xs;
  h

let last_midpoint = Float.ldexp (1. +. (31.5 /. 32.)) 32

let test_hist_buckets () =
  (* Each octave is split into 32 linear buckets: two samples 1/32 of an
     octave apart report distinct percentiles, two inside one bucket the
     same midpoint. *)
  let h = hist_of [ 1.0; 1.0; 1.03125; 1.03125; 4.0 ] in
  checkf "first bucket of [1, 2) reports its midpoint" 1.015625
    (Trace.Hist.percentile h 0.1);
  checkf "next bucket reports its own midpoint" 1.046875
    (Trace.Hist.percentile h 0.5);
  let h = hist_of [ 1.001; 1.03; 8.0 ] in
  checkf "1.001 and 1.03 share a bucket" (Trace.Hist.percentile h 0.3)
    (Trace.Hist.percentile h 0.6);
  (* Zero and negative samples land in the first bucket, huge and
     infinite ones in the last. *)
  let h = hist_of [ -5.; 0.; 1.0 ] in
  let first = Trace.Hist.percentile h 0.6 in
  checkb "zero and negative in the first bucket" true
    (first > 0. && first < Float.ldexp 1. (-30));
  checkf "the negative sample ranks there too" first (Trace.Hist.percentile h 0.3);
  let h = hist_of [ 1.0; 1e30; infinity ] in
  checkf "huge sample in the last bucket" last_midpoint
    (Trace.Hist.percentile h 0.5);
  checkf "infinity in the last bucket" last_midpoint
    (Trace.Hist.percentile h 0.9);
  checki "every degenerate sample counted" 3 (Trace.Hist.count h)

let test_hist_stats () =
  let h = Trace.Hist.create () in
  checki "empty count" 0 (Trace.Hist.count h);
  List.iter
    (fun (name, v) -> checkf ("empty " ^ name) 0. v)
    [ ("mean", Trace.Hist.mean h); ("stddev", Trace.Hist.stddev h);
      ("min", Trace.Hist.min h); ("max", Trace.Hist.max h);
      ("p50", Trace.Hist.percentile h 0.5);
      ("p99", Trace.Hist.percentile h 0.99) ];
  List.iter (Trace.Hist.add h) [ 0.5; 1.5; 2.5; 3.5 ];
  checki "count" 4 (Trace.Hist.count h);
  checkf "mean exact" 2.0 (Trace.Hist.mean h);
  checkf "stddev exact" (sqrt 1.25) (Trace.Hist.stddev h);
  checkf "min exact" 0.5 (Trace.Hist.min h);
  checkf "max exact" 3.5 (Trace.Hist.max h);
  checkf "p99 is the max" 3.5 (Trace.Hist.percentile h 0.99);
  checkb "p0 within 1/64 of the min" true
    (Float.abs (Trace.Hist.percentile h 0.0 -. 0.5) <= 0.5 /. 64.);
  checkb "p50 within 1/64 of rank 2" true
    (Float.abs (Trace.Hist.percentile h 0.5 -. 1.5) <= 1.5 /. 64.)

(* Positive samples across many octaves of the covered range. *)
let samples =
  QCheck.(
    list_of_size (Gen.int_range 1 200)
      (map (fun e -> Float.exp e) (float_range (-20.) 20.)))

let suite_hist_props =
  [ qtest "percentile within 1/64 of the exact rank"
      QCheck.(pair samples (float_range 0. 1.))
      (fun (xs, q) ->
        let exact = exact_rank xs q in
        Float.abs (Trace.Hist.percentile (hist_of xs) q -. exact)
        <= exact /. 64.);
    qtest "mean and stddev match a naive left-to-right sum bit for bit"
      QCheck.(list_of_size (Gen.int_range 0 200) (float_range (-1e3) 1e3))
      (fun xs ->
        let h = hist_of xs in
        let n = float_of_int (List.length xs) in
        let sum = List.fold_left ( +. ) 0. xs in
        let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
        let mean = if xs = [] then 0. else sum /. n in
        let std =
          if List.length xs < 2 then 0.
          else sqrt (Float.max 0. ((sumsq /. n) -. ((sum /. n) ** 2.)))
        in
        Int64.equal (Int64.bits_of_float mean)
          (Int64.bits_of_float (Trace.Hist.mean h))
        && Int64.equal (Int64.bits_of_float std)
             (Int64.bits_of_float (Trace.Hist.stddev h)));
    qtest "count, min and max are exact"
      QCheck.(list_of_size (Gen.int_range 1 200) (float_range (-1e6) 1e6))
      (fun xs ->
        let h = hist_of xs in
        Trace.Hist.count h = List.length xs
        && Trace.Hist.min h = List.fold_left Float.min infinity xs
        && Trace.Hist.max h = List.fold_left Float.max neg_infinity xs) ]

(* --- Counters --------------------------------------------------------- *)

let test_counters () =
  let sink = Trace.Sink.null () in
  let c = Trace.Sink.counter sink ~cat:"net" ~name:"msgs" in
  Trace.Counter.incr c;
  Trace.Counter.add c 41;
  checki "accumulates on null sink" 42 (Trace.Counter.value c);
  let c' = Trace.Sink.counter sink ~cat:"net" ~name:"msgs" in
  Trace.Counter.incr c';
  checki "same (cat,name) is the same cell" 43 (Trace.Counter.value c);
  ignore (Trace.Sink.counter sink ~cat:"cpu" ~name:"jobs");
  Alcotest.(check (list (triple string string int)))
    "counters sorted" [ ("cpu", "jobs", 0); ("net", "msgs", 43) ]
    (Trace.Sink.counters sink)

(* --- Sinks ------------------------------------------------------------ *)

let emit_n sink n =
  for i = 0 to n - 1 do
    Trace.instant sink ~now:(float_of_int i) ~actor:0 ~cat:"t" ~name:"e" ~id:i
  done

let test_null_sink () =
  let sink = Trace.Sink.null () in
  checkb "disabled" false (Trace.Sink.enabled sink);
  emit_n sink 10;
  checki "stores nothing" 0 (Trace.Sink.length sink);
  checki "drops nothing (no-op, not a full ring)" 0 (Trace.Sink.dropped sink);
  checkb "no events" true (Trace.Sink.events sink = [])

let test_memory_sink () =
  let sink = Trace.Sink.memory () in
  checkb "enabled" true (Trace.Sink.enabled sink);
  emit_n sink 100;
  checki "keeps all" 100 (Trace.Sink.length sink);
  let ids = List.map (fun e -> e.Trace.ev_id) (Trace.Sink.events sink) in
  checkb "oldest first" true (ids = List.init 100 Fun.id);
  Trace.Sink.clear sink;
  checki "clear empties" 0 (Trace.Sink.length sink)

let test_ring_sink () =
  let sink = Trace.Sink.ring ~capacity:8 in
  emit_n sink 20;
  checki "capped at capacity" 8 (Trace.Sink.length sink);
  checki "dropped counts overwrites" 12 (Trace.Sink.dropped sink);
  let ids = List.map (fun e -> e.Trace.ev_id) (Trace.Sink.events sink) in
  checkb "retains the newest, oldest first" true
    (ids = [ 12; 13; 14; 15; 16; 17; 18; 19 ])

(* --- Span pairing ----------------------------------------------------- *)

let test_span_pair () =
  let sink = Trace.Sink.memory () in
  let b ?attrs now id =
    Trace.span_begin ?attrs sink ~now ~actor:1 ~cat:"x" ~name:"s" ~id
  and e ?attrs now id =
    Trace.span_end ?attrs sink ~now ~actor:1 ~cat:"x" ~name:"s" ~id
  in
  b 1.0 7 ~attrs:[ ("k", Trace.A_int 1) ];
  b 2.0 7 (* nested re-entry of the same key *);
  e 3.0 7;
  e 5.0 7 ~attrs:[ ("k2", Trace.A_bool true) ];
  b 6.0 9 (* unmatched begin: dropped *);
  e 6.5 99 (* unmatched end: dropped *);
  let spans = Trace.Span.pair (Trace.Sink.events sink) in
  checki "two spans paired" 2 (List.length spans);
  let s1 = List.nth spans 0 and s2 = List.nth spans 1 in
  (* LIFO: the inner [2,3] closes first, the outer [1,5] second. *)
  checkf "inner begin" 2.0 s1.Trace.Span.sp_begin;
  checkf "inner duration" 1.0 (Trace.Span.duration s1);
  checkf "outer begin" 1.0 s2.Trace.Span.sp_begin;
  checkf "outer duration" 4.0 (Trace.Span.duration s2);
  checkb "begin attrs concatenated with end attrs" true
    (s2.Trace.Span.sp_attrs
    = [ ("k", Trace.A_int 1); ("k2", Trace.A_bool true) ])

let test_key () =
  checkb "stable" true (Trace.key "root-a" = Trace.key "root-a");
  checkb "non-negative" true (Trace.key "anything" >= 0)

(* --- Chrome export ---------------------------------------------------- *)

(* Minimal JSON reader — just enough to check the exporter round-trips.
   No external deps allowed, so the test carries its own parser. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let next () = let c = peek () in incr pos; c in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
      | _ -> ()
    in
    let expect c =
      if next () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
          | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          go ()
        | '\000' -> raise (Bad "eof in string")
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
        end
      | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; List [])
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elems []
        end
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ ->
        let start = !pos in
        let num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while num_char (peek ()) do incr pos done;
        if !pos = start then raise (Bad (Printf.sprintf "bad value at %d" start));
        Num (float_of_string (String.sub s start (!pos - start)))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj kvs -> List.assoc k kvs
    | _ -> raise (Bad (k ^ ": not an object"))
end

let chrome_fixture () =
  let sink = Trace.Sink.memory () in
  Trace.span_begin sink ~now:0.001 ~actor:3 ~cat:"broker" ~name:"distill" ~id:42
    ~attrs:[ ("entries", Trace.A_int 5) ];
  Trace.instant sink ~now:0.002 ~actor:3 ~cat:"broker" ~name:"launch" ~id:42
    ~attrs:[ ("note", Trace.A_str "quote \" and \\ back\nslash") ];
  Trace.span_end sink ~now:0.004 ~actor:3 ~cat:"broker" ~name:"distill" ~id:42;
  Trace.count sink ~now:0.004 ~actor:3 ~cat:"net" ~name:"bytes" 1024.;
  Trace.Counter.add (Trace.Sink.counter sink ~cat:"sim" ~name:"steps") 17;
  sink

let test_chrome_json () =
  let sink = chrome_fixture () in
  let json = Json.parse (Chrome.to_string sink) in
  let events =
    match Json.member "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let phs =
    List.map (fun e -> match Json.member "ph" e with Json.Str s -> s | _ -> "?") events
  in
  (* 1 paired span as X, 1 instant, 1 counter sample, 1 final counter total. *)
  checki "one complete event" 1 (List.length (List.filter (( = ) "X") phs));
  checki "one instant" 1 (List.length (List.filter (( = ) "i") phs));
  checki "counter sample + final total" 2 (List.length (List.filter (( = ) "C") phs));
  checkb "no unpaired B/E leak into the export" true
    (not (List.mem "B" phs || List.mem "E" phs));
  let x = List.find (fun e -> Json.member "ph" e = Json.Str "X") events in
  (match Json.member "ts" x, Json.member "dur" x with
  | Json.Num ts, Json.Num dur ->
    checkf "ts in microseconds" 1000. ts;
    checkf "dur in microseconds" 3000. dur
  | _ -> Alcotest.fail "ts/dur not numbers");
  (match Json.member "args" x with
  | Json.Obj kvs ->
    checkb "span args carry attrs" true (List.mem_assoc "entries" kvs)
  | _ -> Alcotest.fail "args not an object");
  let i = List.find (fun e -> Json.member "ph" e = Json.Str "i") events in
  (match Json.member "args" i with
  | Json.Obj kvs ->
    (match List.assoc "note" kvs with
    | Json.Str s ->
      Alcotest.(check string) "string attr escapes round-trip"
        "quote \" and \\ back\nslash" s
    | _ -> Alcotest.fail "note not a string")
  | _ -> Alcotest.fail "instant args not an object")

(* --- End-to-end: determinism + telescoping decomposition -------------- *)

let quick_params =
  { Repro_experiments.Chopchop_run.default with
    n_servers = 4; underlay = Repro_chopchop.Deployment.Pbft;
    rate = 100_000.; batch_count = 4096; n_load_brokers = 1;
    measure_clients = 2; duration = 6.; warmup = 4.; cooldown = 2.;
    dense_clients = 1_000_000 }

let captured =
  lazy
    (let module LB = Repro_experiments.Latency_breakdown in
    let a = LB.capture ~params:quick_params () in
    let b = LB.capture ~params:quick_params () in
    (a, b))

let test_trace_deterministic () =
  let (_, _, sink_a), (_, _, sink_b) = Lazy.force captured in
  checkb "same-seed runs emit non-empty traces" true
    (Trace.Sink.length sink_a > 0);
  checki "same event count" (Trace.Sink.length sink_a) (Trace.Sink.length sink_b);
  checkb "event streams bit-identical" true
    (Trace.Sink.events sink_a = Trace.Sink.events sink_b);
  let events = Trace.Sink.events sink_a in
  List.iter
    (fun cat ->
      checkb (cat ^ " emitted events") true
        (List.exists (fun (e : Trace.event) -> e.ev_cat = cat) events))
    [ "client"; "broker"; "server"; "stob" ]

let test_breakdown_telescopes () =
  let (_, breakdown, _), _ = Lazy.force captured in
  let module LB = Repro_experiments.Latency_breakdown in
  checkb "decomposed at least one message" true (LB.complete breakdown > 0);
  let e2e = Trace.Hist.mean (LB.e2e breakdown) in
  let phase_sum = LB.sum_of_phase_means breakdown in
  checkb
    (Printf.sprintf "phase means sum to e2e within 5%% (%.4f vs %.4f)"
       phase_sum e2e)
    true
    (e2e > 0. && abs_float (phase_sum -. e2e) /. e2e < 0.05);
  checki "five paper phases" 5 (List.length (LB.phases breakdown));
  List.iter
    (fun (name, h) ->
      checkb (name ^ " phase non-negative") true (Trace.Hist.min h >= 0.))
    (LB.phases breakdown)

(* Reference for the path join: each hop boundary found by a direct scan
   of the whole trace for that one message, with none of the index's
   shared tables. *)
let naive_bounds events key =
  let first p = List.find_opt p events in
  let instant cat name id (e : Trace.event) =
    e.ev_phase = Trace.I && e.ev_cat = cat && e.ev_name = name && e.ev_id = id
  in
  let span name id =
    List.find_opt
      (fun (s : Trace.Span.t) ->
        s.sp_cat = "broker" && s.sp_name = name && s.sp_id = id)
      (Trace.Span.pair events)
  in
  match (first (instant "client" "send" key), first (instant "client" "deliver" key)) with
  | Some send, Some deliver ->
    Option.bind (Trace.attr_int deliver.ev_attrs "root") (fun batch ->
        Option.bind (first (instant "broker" "launch" batch)) (fun launch ->
            Option.bind (Trace.attr_int launch.Trace.ev_attrs "reduction")
              (fun proposal ->
                let ordered =
                  List.fold_left
                    (fun acc (e : Trace.event) ->
                      if instant "server" "ordered" batch e then
                        Some (Option.fold ~none:e.ev_time ~some:(Float.min e.ev_time) acc)
                      else acc)
                    None events
                in
                match (span "distill" proposal, span "witness" batch, ordered) with
                | Some d, Some w, Some o ->
                  Some
                    [ send.ev_time; d.sp_begin; launch.ev_time; w.sp_end; o;
                      deliver.ev_time ]
                | _ -> None)))
  | _ -> None

let test_path_join_reference () =
  let module CP = Repro_experiments.Causal_path in
  let module LB = Repro_experiments.Latency_breakdown in
  let (_, breakdown, sink), _ = Lazy.force captured in
  (* Every batch launches once in this run, so a late re-announcement of
     each launch is appended: the join must keep the first one. *)
  let events = Trace.Sink.events sink in
  let relaunches =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.ev_phase = Trace.I && e.ev_cat = "broker" && e.ev_name = "launch"
        then Some { e with ev_time = e.ev_time +. 100. }
        else None)
      events
  in
  let events = events @ relaunches in
  let idx = CP.index events in
  let paths =
    List.filter_map
      (fun key ->
        let path = CP.follow idx ~key in
        let got =
          Option.map
            (fun (p : CP.t) ->
              List.map (fun (h : CP.hop) -> h.h_start) p.p_hops @ [ p.p_deliver ])
            path
        in
        checkb
          (Printf.sprintf "message %#x: index join = naive scan" key)
          true
          (got = naive_bounds events key);
        path)
      (CP.candidates idx)
  in
  checkb "some message followed" true (paths <> []);
  checki "breakdown complete = followable keys" (List.length paths)
    (LB.complete breakdown);
  List.iteri
    (fun i (name, h) ->
      let sum =
        List.fold_left
          (fun acc (p : CP.t) ->
            let hop = List.nth p.p_hops i in
            acc +. (hop.h_finish -. hop.h_start))
          0. paths
      in
      checkb (name ^ " mean rebuilt bit-for-bit") true
        (Int64.equal
           (Int64.bits_of_float (sum /. float_of_int (List.length paths)))
           (Int64.bits_of_float (Trace.Hist.mean h))))
    (LB.phases breakdown)

let () =
  Alcotest.run "trace"
    [ ( "hist",
        [ Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "exact stats + percentile" `Quick test_hist_stats ]
        @ suite_hist_props );
      ( "counters",
        [ Alcotest.test_case "memoized, accumulate when disabled" `Quick
            test_counters ] );
      ( "sinks",
        [ Alcotest.test_case "null is a no-op" `Quick test_null_sink;
          Alcotest.test_case "memory keeps order" `Quick test_memory_sink;
          Alcotest.test_case "ring overwrites and counts drops" `Quick
            test_ring_sink ] );
      ( "spans",
        [ Alcotest.test_case "pairing (LIFO, unmatched dropped)" `Quick
            test_span_pair;
          Alcotest.test_case "correlation keys" `Quick test_key ] );
      ( "chrome",
        [ Alcotest.test_case "trace_event JSON parses back" `Quick
            test_chrome_json ] );
      ( "end-to-end",
        [ Alcotest.test_case "same seed, same trace" `Slow
            test_trace_deterministic;
          Alcotest.test_case "phase breakdown telescopes to e2e" `Slow
            test_breakdown_telescopes;
          Alcotest.test_case "path join matches a per-message scan" `Slow
            test_path_join_reference ] ) ]
