(* Tests for the metrics subsystem and the run report: label semantics,
   probe sampling and series alignment, baseline comparison (the CI
   gate's pass/fail logic), JSON round-trips, and the end-to-end
   properties of the observed run — a byte-identical deterministic
   report for a fixed seed, exact sink counters in it, sampler/sim-clock
   alignment, C-phase mirroring into the trace, observers that leave the
   run unchanged, and causal message-path reconstruction telescoping to
   the end-to-end latency. *)

open Repro_trace
module M = Repro_metrics.Metrics
module B = Repro_metrics.Baseline
module J = Repro_metrics.Json
module R = Repro_experiments.Chopchop_run
module LB = Repro_experiments.Latency_breakdown
module CP = Repro_experiments.Causal_path
module Report = Repro_experiments.Report

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

(* --- registry / labels ------------------------------------------------ *)

let test_label_isolation () =
  let m = M.create () in
  M.probe m "net.msgs" ~labels:[ ("role", "wan"); ("dir", "in") ] (fun () -> 1.);
  M.probe m "net.msgs" ~labels:[ ("dir", "out"); ("role", "wan") ] (fun () -> 2.);
  M.probe m "net.msgs" (fun () -> 3.);
  M.sample m ~now:1.;
  match M.series m with
  | [ a; b; c ] ->
    Alcotest.(check (list (pair string string)))
      "label order is canonicalised away"
      [ ("dir", "in"); ("role", "wan") ]
      a.M.s_labels;
    checks "canonical rendering" "net.msgs{dir=in,role=wan}"
      (M.label_string a.M.s_name a.M.s_labels);
    checkb "differing label value names a distinct series" true
      (M.label_string b.M.s_name b.M.s_labels
      <> M.label_string a.M.s_name a.M.s_labels);
    checks "empty label set is its own series" "net.msgs"
      (M.label_string c.M.s_name c.M.s_labels);
    checkf "each series sampled from its own probe" 2. (snd b.M.s_points.(0))
  | _ -> Alcotest.fail "expected one series per probe"

let test_label_string () =
  checks "no labels" "q" (M.label_string "q" []);
  checks "labels sorted into the rendering" "q{a=1,b=2}"
    (M.label_string "q" [ ("b", "2"); ("a", "1") ])

(* --- probes and sampling ---------------------------------------------- *)

let test_probe_alignment () =
  let m = M.create ~period:0.25 () in
  checkf "period recorded" 0.25 (M.period m);
  let v = ref 0. in
  M.probe m "depth" (fun () -> !v);
  M.probe m "depth" ~labels:[ ("role", "b") ] (fun () -> 2. *. !v);
  for i = 1 to 4 do
    v := float_of_int i;
    M.sample m ~now:(0.25 *. float_of_int i)
  done;
  checki "one tick per sample call" 4 (M.ticks m);
  let series = M.series m in
  checki "one series per probe" 2 (List.length series);
  List.iter
    (fun s ->
      checki
        (M.label_string s.M.s_name s.M.s_labels ^ " aligned")
        4
        (Array.length s.M.s_points);
      Array.iteri
        (fun i (t, _) -> checkf "tick time column shared" (M.tick_times m).(i) t)
        s.M.s_points)
    series;
  let plain = List.nth series 0 and doubled = List.nth series 1 in
  checkf "probe read at each tick" 3. (snd plain.M.s_points.(2));
  checkf "labelled twin sampled independently" 6. (snd doubled.M.s_points.(2))

let test_rate_probe () =
  let m = M.create () in
  let total = ref 0. in
  M.rate_probe m "rate" (fun () -> !total);
  (* Cumulative 100 at t=2 from 0 at t=0 -> 50/s; +300 over the next 2 s
     -> 150/s; flat over a further 1 s -> 0/s. *)
  total := 100.;
  M.sample m ~now:2.;
  total := 400.;
  M.sample m ~now:4.;
  M.sample m ~now:5.;
  let s = List.hd (M.series m) in
  checkf "first interval from t=0" 50. (snd s.M.s_points.(0));
  checkf "per-interval rate" 150. (snd s.M.s_points.(1));
  checkf "flat cumulative = zero rate" 0. (snd s.M.s_points.(2))

let test_mirror_emits_c_phase () =
  let m = M.create () in
  let sink = Trace.Sink.memory () in
  M.probe m "depth" (fun () -> 42.);
  M.mirror m ~sink ~actor:9;
  M.sample m ~now:1.;
  M.sample m ~now:2.;
  let cs =
    List.filter
      (fun (e : Trace.event) ->
        match e.ev_phase with
        | Trace.C v -> e.ev_cat = "metrics" && v = 42.
        | _ -> false)
      (Trace.Sink.events sink)
  in
  checki "one C-phase counter event per probe per tick" 2 (List.length cs)

(* --- baseline comparison (the CI gate) -------------------------------- *)

let doc_of configs =
  { B.version = 1; readme = [ "test" ]; configs }

let metric ?tolerance ?(direction = B.Lower_better) value =
  { B.value; tolerance; direction }

let compare_one base cur =
  let baseline = doc_of [ ("c", [ ("m", base) ]) ] in
  let current = doc_of [ ("c", [ ("m", cur) ]) ] in
  B.compare_docs ~baseline ~current

let test_baseline_gate () =
  let hb = metric ~tolerance:0.10 ~direction:B.Higher_better in
  let lb = metric ~tolerance:0.10 ~direction:B.Lower_better in
  checkb "within tolerance passes" true (B.all_ok (compare_one (hb 100.) (hb 91.)));
  checkb "beyond tolerance fails" false (B.all_ok (compare_one (hb 100.) (hb 89.)));
  checkb "improvement never fails" true (B.all_ok (compare_one (hb 100.) (hb 250.)));
  checkb "lower-better regression fails" false
    (B.all_ok (compare_one (lb 100.) (lb 111.)));
  checkb "lower-better within tolerance" true
    (B.all_ok (compare_one (lb 100.) (lb 110.)));
  checkb "zero baseline gates absolutely" false
    (B.all_ok (compare_one (lb 0.) (lb 0.2)));
  checkb "zero baseline within slack" true (B.all_ok (compare_one (lb 0.) (lb 0.05)));
  checkb "ungated metric never fails" true
    (B.all_ok (compare_one (metric 100.) (metric 900.)));
  (* Structural gates: anything the current run no longer reports fails. *)
  let baseline = doc_of [ ("c", [ ("m", lb 1.) ]) ] in
  checkb "missing metric fails" false
    (B.all_ok (B.compare_docs ~baseline ~current:(doc_of [ ("c", []) ])));
  checkb "missing config fails" false
    (B.all_ok (B.compare_docs ~baseline ~current:(doc_of [])));
  let wider = doc_of [ ("c", [ ("m", lb 1.); ("extra", lb 9.) ]) ] in
  let vs = B.compare_docs ~baseline ~current:wider in
  checkb "new metrics are informational passes" true (B.all_ok vs);
  checki "and still reported" 2 (List.length vs)

let test_baseline_roundtrip () =
  let doc =
    { B.version = 1;
      readme = [ "line one"; "line two" ];
      configs =
        [ ( "quick-pbft",
            [ ("throughput", metric ~tolerance:0.05 ~direction:B.Higher_better 1e5);
              ("wall", metric 0.25) ] );
          ("quick-hotstuff", [ ("lat_p99", metric ~tolerance:0.15 3.25) ]) ] }
  in
  let doc' = B.of_json (B.to_json doc) in
  checkb "to_json |> of_json is the identity" true (doc = doc')

(* --- end-to-end: deterministic instrumented runs ---------------------- *)

let quick_params =
  { R.default with
    n_servers = 4; underlay = Repro_chopchop.Deployment.Pbft;
    rate = 100_000.; batch_count = 4096; n_load_brokers = 1;
    measure_clients = 2; duration = 6.; warmup = 4.; cooldown = 2.;
    dense_clients = 1_000_000 }

let captured =
  lazy (Report.run quick_params, Report.run quick_params)

let det_json r = J.to_string_pretty (Report.to_json ~wall:false r)

let test_snapshot_deterministic () =
  let a, b = Lazy.force captured in
  checkb "non-trivial series" true (List.length (M.series a.Report.metrics) > 5);
  checkb "same-seed series bit-identical" true
    (M.series a.Report.metrics = M.series b.Report.metrics);
  let first = det_json a and second = det_json b in
  checkb "report non-empty" true (String.length first > 1000);
  checks "same-seed deterministic reports byte-identical" first second

(* The bare run: the same point with only the trace sink attached. *)
let test_observers_leave_run_unchanged () =
  let observed, _ = Lazy.force captured in
  let result, breakdown, sink = LB.capture ~params:quick_params () in
  (* [compare]: this short window's network rate is NaN on both sides. *)
  let same a b = compare a b = 0 in
  checkb "result bit-identical" true
    (same { observed.Report.result with R.prof = None } result);
  checkb "phase histograms bit-identical" true
    (same (LB.phases observed.Report.breakdown) (LB.phases breakdown));
  checkb "e2e histogram bit-identical" true
    (same (LB.e2e observed.Report.breakdown) (LB.e2e breakdown));
  checki "same decomposed messages" (LB.complete breakdown)
    (LB.complete observed.Report.breakdown);
  let without_steps sink =
    List.filter
      (fun (c, n, _) -> not (c = "sim" && n = "steps"))
      (Trace.Sink.counters sink)
  in
  checkb "every counter but sim.steps bit-identical" true
    (without_steps observed.Report.sink = without_steps sink)

(* --- the report ------------------------------------------------------- *)

let deterministic r =
  match J.member "deterministic" (J.parse (det_json r)) with
  | Some d -> d
  | None -> Alcotest.fail "report has no deterministic half"
  | exception Failure e -> Alcotest.fail e

let test_report_parses () =
  let r, _ = Lazy.force captured in
  let d = deterministic r in
  List.iter
    (fun k -> checkb (k ^ " present") true (J.member k d <> None))
    [ "result"; "breakdown"; "counters"; "series"; "profile" ];
  checkb "wall half left out" true
    (J.member "wall" (J.parse (det_json r)) = None);
  checkb "wall half written by default" true
    (J.member "wall" (Report.to_json r) <> None)

let test_report_series_aligned () =
  let r, _ = Lazy.force captured in
  let ticks = M.ticks r.Report.metrics in
  checkb "sampler ticked" true (ticks > 0);
  match J.member "series" (deterministic r) with
  | Some (J.List series) ->
    checki "every probe series reported" (List.length (M.series r.Report.metrics))
      (List.length series);
    List.iter
      (fun s ->
        match J.member "points" s with
        | Some (J.List pts) -> checki "one point per tick" ticks (List.length pts)
        | _ -> Alcotest.fail "series has no points array")
      series
  | _ -> Alcotest.fail "report has no series list"

let test_report_counters_exact () =
  let r, _ = Lazy.force captured in
  let expected =
    List.map
      (fun (cat, name, v) -> (cat ^ "." ^ name, v))
      (Trace.Sink.counters r.Report.sink)
  in
  match J.member "counters" (deterministic r) with
  | Some (J.Obj fields) ->
    let got =
      List.map
        (fun (k, v) ->
          match J.to_int v with
          | Some n -> (k, n)
          | None -> Alcotest.fail (k ^ " is not an exact integer"))
        fields
    in
    Alcotest.(check (list (pair string int)))
      "counters are the sink's, in order" expected got
  | _ -> Alcotest.fail "report has no counters object"

let test_sampler_clock_alignment () =
  let r, _ = Lazy.force captured in
  let m = r.Report.metrics in
  let p = M.period m in
  (* The sampler runs [Engine.every ~inclusive:false ~until:duration]: one
     tick per whole period strictly inside the run — a tick landing
     exactly on [duration] would sample the post-run world. *)
  let expected =
    let exact = quick_params.R.duration /. p in
    let n = int_of_float (Float.round exact) in
    if Float.of_int n *. p >= quick_params.R.duration then n - 1 else n
  in
  checki "ticks strictly inside the run" expected (M.ticks m);
  Array.iteri
    (fun i t -> checkf "tick i at (i+1)*period" (p *. float_of_int (i + 1)) t)
    (M.tick_times m);
  List.iter
    (fun s ->
      checki
        (M.label_string s.M.s_name s.M.s_labels ^ " one point per tick")
        (M.ticks m)
        (Array.length s.M.s_points))
    (M.series m)

let test_run_mirrors_c_events () =
  let r, _ = Lazy.force captured in
  let sink = r.Report.sink in
  let cs =
    List.filter
      (fun (e : Trace.event) ->
        e.ev_cat = "metrics"
        && match e.ev_phase with Trace.C _ -> true | _ -> false)
      (Trace.Sink.events sink)
  in
  checkb "instrumented run mirrors probe samples as C events" true
    (List.length cs >= 2 * List.length (M.series r.Report.metrics));
  (* And the Chrome exporter renders them as counter tracks. *)
  let json = Chrome.to_string sink in
  checkb "C events survive the Chrome export" true
    (let needle = "\"cat\":\"metrics\",\"ph\":\"C\"" in
     let n = String.length needle and len = String.length json in
     let rec find i = i + n <= len && (String.sub json i n = needle || find (i + 1)) in
     find 0)

let test_causal_path () =
  let r, _ = Lazy.force captured in
  let breakdown = r.Report.breakdown in
  let idx = CP.index (Trace.Sink.events r.Report.sink) in
  checkb "delivered candidates listed" true (CP.candidates idx <> []);
  match CP.first idx with
  | None -> Alcotest.fail "no candidate reconstructs"
  | Some p ->
    checki "five paper hops" 5 (List.length p.CP.p_hops);
    checkb "context propagation verified" true p.CP.p_ctx_verified;
    let e = CP.e2e p and s = CP.hop_sum p in
    checkb
      (Printf.sprintf "hops telescope to e2e within 5%% (%.4f vs %.4f)" s e)
      true
      (e > 0. && Float.abs (s -. e) /. e < 0.05);
    (* Cross-check against the aggregate decomposition: the followed
       message's e2e lies within the breakdown's observed range. *)
    let h = LB.e2e breakdown in
    checkb "followed e2e within the breakdown's range" true
      (LB.complete breakdown > 0
      && e >= Trace.Hist.min h -. 1e-9
      && e <= Trace.Hist.max h +. 1e-9);
    List.iter
      (fun (h : CP.hop) ->
        checkb (h.CP.h_phase ^ " hop non-negative") true
          (h.CP.h_finish >= h.CP.h_start))
      p.CP.p_hops

let () =
  Alcotest.run "metrics"
    [ ( "registry",
        [ Alcotest.test_case "label canonicalisation + isolation" `Quick
            test_label_isolation;
          Alcotest.test_case "label rendering" `Quick test_label_string ] );
      ( "sampling",
        [ Alcotest.test_case "probes aligned across series" `Quick
            test_probe_alignment;
          Alcotest.test_case "rate probe differentiates" `Quick test_rate_probe;
          Alcotest.test_case "mirror emits C-phase samples" `Quick
            test_mirror_emits_c_phase ] );
      ( "baseline",
        [ Alcotest.test_case "gate semantics" `Quick test_baseline_gate;
          Alcotest.test_case "json round-trip" `Quick test_baseline_roundtrip ] );
      ( "report",
        [ Alcotest.test_case "deterministic half parses back" `Slow
            test_report_parses;
          Alcotest.test_case "one point per tick in every series" `Slow
            test_report_series_aligned;
          Alcotest.test_case "counters are exact sink integers" `Slow
            test_report_counters_exact ] );
      ( "end-to-end",
        [ Alcotest.test_case "same seed, same metrics" `Slow
            test_snapshot_deterministic;
          Alcotest.test_case "sampler and profiler leave the run unchanged"
            `Slow test_observers_leave_run_unchanged;
          Alcotest.test_case "sampler aligned to the sim clock" `Slow
            test_sampler_clock_alignment;
          Alcotest.test_case "run mirrors counter tracks" `Slow
            test_run_mirrors_c_events;
          Alcotest.test_case "causal path telescopes" `Slow test_causal_path ] ) ]
