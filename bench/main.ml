(* Benchmark harness: the jobs with no `chopchop` twin.

   1. A Bechamel micro-suite — one [Test.make] per table/figure whose
      cost structure rests on a measurable primitive: the §3.2
      microbenchmark (classic batch verification vs aggregate
      verification), Fig. 2/3 (batch assembly: Merkle trees over the
      proposal), §5.1's engineering devices (tree-search invalid shares,
      sorted-range deduplication vs hash-map deduplication) and the
      Fig. 11b per-operation application costs.

   2. The machine-readable baseline behind the CI regression gate.

   Run with:  dune exec bench/main.exe            (bechamel suite)
              dune exec bench/main.exe json       (machine-readable baseline)

   The simulated figures, traced runs and chaos scenarios run from
   `chopchop all`, `chopchop trace` and `chopchop chaos`. *)

open Bechamel
module Crypto = Repro_crypto

(* --- corpus ----------------------------------------------------------- *)

let batch_n = 4096
(* Scaled-down batch for the timed loops (65,536 would make each bechamel
   sample seconds long); per-item costs are what matters and both sides
   scale linearly in batch size. *)

let schnorr_entries =
  lazy
    (List.init batch_n (fun i ->
         let sk, pk = Crypto.Schnorr.keygen_deterministic ~seed:("b" ^ string_of_int i) in
         let msg = Printf.sprintf "payload-%d" i in
         (pk, msg, Crypto.Schnorr.sign sk msg)))

let multisig_keys =
  lazy
    (List.init batch_n (fun i ->
         Crypto.Multisig.keygen_deterministic ~seed:("mb" ^ string_of_int i)))

let multisig_shares =
  lazy
    (let keys = Lazy.force multisig_keys in
     List.map (fun (sk, _) -> Crypto.Multisig.sign sk "reduction|root") keys)

let merkle_leaves =
  lazy (Array.init batch_n (fun i -> Printf.sprintf "%d|7|payload-%d" i i))

(* §3.2, classic side: authenticating a batch = batch-verifying one
   individual signature per message. *)
let bench_classic_auth =
  Test.make ~name:"s3.2 classic batch auth (4096 sigs, batched)"
    (Staged.stage (fun () ->
         assert (Crypto.Schnorr.batch_verify (Lazy.force schnorr_entries))))

(* §3.2, distilled side: aggregating one public key per message plus one
   constant-time aggregate verification. *)
let bench_distilled_auth =
  Test.make ~name:"s3.2 distilled batch auth (4096 pk agg + 1 verify)"
    (Staged.stage (fun () ->
         let keys = Lazy.force multisig_keys in
         let shares = Lazy.force multisig_shares in
         let pk = Crypto.Multisig.aggregate_public_keys (List.map snd keys) in
         let agg = Crypto.Multisig.aggregate_signatures shares in
         assert (Crypto.Multisig.verify pk "reduction|root" agg)))

(* Fig. 2/3: the broker's batch-assembly cost — a Merkle tree over the
   proposal plus one inclusion proof per client. *)
let bench_merkle_batch =
  Test.make ~name:"fig3 proposal tree (4096 leaves + 4096 proofs)"
    (Staged.stage (fun () ->
         let t = Crypto.Merkle.build (Lazy.force merkle_leaves) in
         for i = 0 to batch_n - 1 do
           ignore (Crypto.Merkle.prove t i)
         done))

(* §5.1: logarithmic isolation of invalid multi-signature shares. *)
let tree_search_entries =
  lazy
    (let keys = Lazy.force multisig_keys in
     List.mapi
       (fun i (sk, pk) ->
         ( pk,
           if i = 1234 then Crypto.Multisig.forge_garbage ()
           else Crypto.Multisig.sign sk "x" ))
       keys)

let bench_tree_search =
  Test.make ~name:"s5.1 tree-search 1 bad share in 4096"
    (Staged.stage (fun () ->
         assert (Crypto.Multisig.find_invalid (Lazy.force tree_search_entries) "x" = [ 1234 ])))

let bench_linear_search =
  Test.make ~name:"s5.1 ablation: linear scan for the bad share"
    (Staged.stage (fun () ->
         let bad = ref (-1) in
         List.iteri
           (fun i (pk, s) -> if not (Crypto.Multisig.verify pk "x" s) then bad := i)
           (Lazy.force tree_search_entries);
         assert (!bad = 1234)))

(* §5.2: identifier-sorted dense deduplication vs a per-message hash map. *)
let bench_sorted_dedup =
  Test.make ~name:"s5.2 sorted-range dedup check (dense range)"
    (Staged.stage (fun () ->
         let last_seq = 3 and last_tag = 3 in
         ignore (Sys.opaque_identity (4 > last_seq && 5 <> last_tag))))

let bench_hashmap_dedup =
  let tbl = Hashtbl.create 100_000 in
  Test.make ~name:"s5.2 ablation: hash-map dedup (65,536 lookups)"
    (Staged.stage (fun () ->
         for i = 0 to 65_535 do
           match Hashtbl.find_opt tbl i with
           | Some s when s >= 4 -> ()
           | _ -> Hashtbl.replace tbl i 4
         done))

(* Fig. 11b: per-operation cost of the three real applications. *)
let bench_app name apply =
  Test.make ~name:(Printf.sprintf "fig11b %s (10k ops)" name) (Staged.stage apply)

let bench_payments =
  let t = Repro_apps.Payments.create () in
  let tag = ref 0 in
  bench_app "payments" (fun () ->
      incr tag;
      ignore
        (Repro_apps.Payments.apply_delivery t
           (Repro_chopchop.Proto.Bulk { first_id = 0; count = 10_000; tag = !tag; msg_bytes = 8 })))

let bench_auction =
  let t = Repro_apps.Auction.create () in
  let tag = ref 0 in
  bench_app "auction" (fun () ->
      incr tag;
      ignore
        (Repro_apps.Auction.apply_delivery t
           (Repro_chopchop.Proto.Bulk { first_id = 0; count = 10_000; tag = !tag; msg_bytes = 8 })))

let bench_pixelwar =
  let t = Repro_apps.Pixelwar.create () in
  let tag = ref 0 in
  bench_app "pixelwar" (fun () ->
      incr tag;
      ignore
        (Repro_apps.Pixelwar.apply_delivery t
           (Repro_chopchop.Proto.Bulk { first_id = 0; count = 10_000; tag = !tag; msg_bytes = 8 })))

(* DESIGN.md "ablation-repr": server-side verification cost of the Dense
   (range + prefix-sum aggregate) representation vs the equivalent
   Explicit batch — same semantics (tested), very different constant. *)
let repr_dir = lazy (Repro_chopchop.Directory.create ~dense_count:8192 ())

let repr_dense =
  lazy
    (Repro_chopchop.Batch.forge_dense (Lazy.force repr_dir) ~broker:0 ~number:0
       ~first_id:0 ~count:4096 ~msg_bytes:8 ~tag:1 ~straggler_count:0)

let repr_explicit =
  lazy
    (let module B = Repro_chopchop.Batch in
     let module T = Repro_chopchop.Types in
     let d =
       match (Lazy.force repr_dense).B.entries with
       | B.Dense d -> d
       | B.Explicit _ -> assert false
     in
     let entries =
       Array.init 4096 (fun i ->
           { B.e_id = i; e_msg = B.dense_message d i })
     in
     let skeleton =
       B.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq:1 ~stragglers:[||]
         ~agg_sig:None
     in
     let root = B.reduction_root skeleton in
     let agg =
       Crypto.Multisig.aggregate_signatures
         (List.init 4096 (fun i ->
              Crypto.Multisig.sign
                (Repro_chopchop.Directory.dense_keypair (Lazy.force repr_dir) i).T.ms_sk
                (T.reduction_statement ~root)))
     in
     B.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq:1 ~stragglers:[||]
       ~agg_sig:(Some agg))

let bench_verify_dense =
  Test.make ~name:"ablation-repr: verify Dense batch (4096, prefix sums)"
    (Staged.stage (fun () ->
         assert (Repro_chopchop.Batch.verify (Lazy.force repr_dir) (Lazy.force repr_dense))))

let bench_verify_explicit =
  Test.make ~name:"ablation-repr: verify Explicit batch (4096)"
    (Staged.stage (fun () ->
         assert
           (Repro_chopchop.Batch.verify (Lazy.force repr_dir) (Lazy.force repr_explicit))))

(* Substrate primitives, for the record. *)
let bench_sha256 =
  let buf = String.make 4096 'x' in
  Test.make ~name:"substrate sha256 (4 KB)"
    (Staged.stage (fun () -> ignore (Crypto.Sha256.digest buf)))

let bench_field_mul =
  let a = Crypto.Field61.of_int 123456789123 and b = Crypto.Field61.of_int 998877665544 in
  Test.make ~name:"substrate field61 mul"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Crypto.Field61.mul a b))))

let micro_tests =
  [ bench_classic_auth; bench_distilled_auth; bench_merkle_batch;
    bench_tree_search; bench_linear_search; bench_sorted_dedup;
    bench_hashmap_dedup; bench_verify_dense; bench_verify_explicit;
    bench_payments; bench_auction; bench_pixelwar;
    bench_sha256; bench_field_mul ]

let run_bechamel () =
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  print_endline
    "=== Bechamel micro-suite (one Test.make per cost-bearing table/figure) ===";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name m ->
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock m in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-52s %14.1f ns/run\n%!" name ns
          | _ -> Printf.printf "  %-52s (no estimate)\n%!" name)
        results)
    micro_tests

(* `bench json`: the machine-readable baseline behind the CI regression
   gate.  Runs the standard quick-scale configs under a memory trace sink,
   derives the paper's efficiency metrics, and writes a
   [Repro_metrics.Baseline] doc.  The sim is deterministic, so every gated
   metric reproduces exactly; the tolerances are slack for intentional,
   bounded behaviour changes. *)
let run_bench_json () =
  let module B = Repro_metrics.Baseline in
  let module Cell = Repro_experiments.Cell in
  (* Wall time on lib/prof's monotonic clock ([Sys.time] is CPU time). *)
  let now = Repro_prof.Prof.Clock.now in
  let info direction value = { B.value; tolerance = None; direction } in
  (* Store on: WAL appends are fire-and-forget on a separate simulated
     device, so the protocol metrics are unchanged and the run also
     yields the gated WAL-overhead ratio.  [Cell.default] is exactly the
     quick-scale bench config; `chopchop sweep` runs the same cells, so
     a sweep cell at this config is bit-identical to this baseline. *)
  let configs =
    [ ("quick-pbft", { Cell.default with Cell.underlay = "pbft" });
      ("quick-hotstuff", { Cell.default with Cell.underlay = "hotstuff" }) ]
  in
  let bench_config (name, cell) =
    let t0 = now () in
    (* The profiler is write-only (no events, no RNG reads), so attaching
       it here does not move any gated metric — proved by test_prof. *)
    let out = Cell.run ~profile:true cell in
    let wall = now () -. t0 in
    let metric m =
      match List.assoc_opt m out.Cell.metrics with
      | Some v -> v
      | None -> failwith ("bench json: cell metric missing: " ^ m)
    in
    let gated tol direction m =
      { B.value = metric m; tolerance = Some tol; direction }
    in
    (* An empty histogram reads 0, which a lower-is-better gate passes
       whatever the baseline: refuse to record it. *)
    if metric "latency_samples" = 0. then
      failwith ("bench json: " ^ name ^ ": no end-to-end latency sample");
    (* Simulator-efficiency metrics.  events_per_delivery is deterministic
       (engine events per delivered message) and gated: event-count bloat
       is a real scheduling regression.  minor_words_per_event is also
       reproducible for a fixed binary but tracks the compiler/allocator,
       not protocol behaviour — informational. *)
    let events_per_delivery =
      float_of_int out.Cell.sim_events /. Float.max 1. (metric "delivered_messages")
    in
    let minor_words_per_event =
      match out.Cell.prof with
      | Some p when p.Repro_prof.Prof.p_events > 0 ->
        p.Repro_prof.Prof.p_minor_words /. float_of_int p.Repro_prof.Prof.p_events
      | _ -> 0.
    in
    ( name,
      [ ("throughput_ops", gated 0.05 B.Higher_better "throughput_ops");
        ("latency_p50_s", gated 0.10 B.Lower_better "latency_p50_s");
        ("latency_p99_s", gated 0.15 B.Lower_better "latency_p99_s");
        ( "sig_verifies_per_decision",
          gated 0.10 B.Lower_better "sig_verifies_per_decision" );
        ( "wire_bytes_per_payload_byte",
          gated 0.10 B.Lower_better "wire_bytes_per_payload_byte" );
        ( "wal_bytes_per_payload_byte",
          gated 0.10 B.Lower_better "wal_bytes_per_payload_byte" );
        ( "broker_cpu_busy_s_per_payload_byte",
          gated 0.10 B.Lower_better "broker_cpu_busy_s_per_payload_byte" );
        ( "events_per_delivery",
          { B.value = events_per_delivery; tolerance = Some 0.05;
            direction = B.Lower_better } );
        ("minor_words_per_event", info B.Lower_better minor_words_per_event);
        ("wall_time_s", info B.Lower_better wall);
        (* Sim-speed self-benchmark: how fast the simulator itself runs on
           this machine.  Machine-dependent, hence ungated. *)
        ( "sim_events_per_wall_s",
          info B.Higher_better
            (float_of_int out.Cell.sim_events /. Float.max wall 1e-9) );
        ( "sim_s_per_wall_s",
          info B.Higher_better (out.Cell.sim_seconds /. Float.max wall 1e-9) )
      ] )
  in
  (* Reconfiguration under load (quick scale): gates the dynamic-membership
     extension.  Throughput before/after the ordered join+leave must track
     the offered load, and the join bring-up time (state transfer under
     sustained load) must stay bounded.  The reconfig-window throughput and
     probe latency are informational: they wobble with where the epoch
     changes land relative to the snapshot marks. *)
  let reconfig_config () =
    let module R = Repro_experiments.Reconfig_load in
    let t0 = now () in
    let r = R.metrics ~scale:Repro_experiments.Figures.Quick in
    let wall = now () -. t0 in
    let gated tol direction value = { B.value; tolerance = Some tol; direction } in
    ( "quick-reconfig",
      [ ("tput_before_msg_s", gated 0.05 B.Higher_better r.R.tput_before);
        ("tput_after_msg_s", gated 0.05 B.Higher_better r.R.tput_after);
        ("join_recovery_s", gated 0.25 B.Lower_better r.R.join_recovery_s);
        ("tput_reconfig_msg_s", info B.Higher_better r.R.tput_reconfig);
        ("client_latency_mean_s", info B.Lower_better r.R.client_latency_mean);
        ("final_epoch", gated 0.0 B.Higher_better (float_of_int r.R.final_epoch));
        ("wall_time_s", info B.Lower_better wall) ] )
  in
  (* Broker scale-out (lib/fleet, quick scale): gates the multi-broker
     extension.  The metric is the 4-broker fleet's delivered throughput
     over the analytic single-broker NIC ceiling — the "add brokers past
     the network limit of one" claim in one number.  The tolerance is
     wide (10%) because the numerator sits at a saturation point: batch
     boundaries landing on the measurement window edges move it by a few
     percent across intentional pipeline changes. *)
  let scaleout_config () =
    let module S = Repro_experiments.Broker_saturation in
    let t0 = now () in
    let speedup = S.speedup_4x () in
    let wall = now () -. t0 in
    ( "quick-scaleout",
      [ ( "scaleout_speedup_4x",
          { B.value = speedup; tolerance = Some 0.10;
            direction = B.Higher_better } );
        ("wall_time_s", info B.Lower_better wall) ] )
  in
  (* Saturation: Fig. 7's quick ChopChop-BFT-SMaRt point at 2e7 op/s.
     The configs above run far below saturation, so only this one sees
     the headline (delivered tracks offered at ~2 s) move. *)
  let saturation_config () =
    let module F = Repro_experiments.Figures in
    let module Hist = Repro_trace.Trace.Hist in
    let t0 = now () in
    let r = F.cc_max F.Quick in
    let wall = now () -. t0 in
    let lat = r.Repro_experiments.Chopchop_run.latency in
    if Hist.count lat = 0 then
      failwith "bench json: quick-saturation: no latency sample in the window";
    let gated tol direction value = { B.value; tolerance = Some tol; direction } in
    ( "quick-saturation",
      [ ( "throughput_ops",
          gated 0.05 B.Higher_better r.Repro_experiments.Chopchop_run.throughput );
        ("latency_mean_s", gated 0.10 B.Lower_better (Hist.mean lat));
        ("wall_time_s", info B.Lower_better wall) ] )
  in
  print_endline "=== Bench baseline (quick-scale, deterministic) ===";
  let doc =
    { B.version = 1;
      readme =
        [ "BENCH_chopchop.json -- machine-readable bench baseline.";
          "Schema: {_readme, version, configs: {<config>: {<metric>:";
          "  {value, tolerance, direction}}}}.  direction is";
          "  higher_better or lower_better; tolerance is a relative";
          "  fraction of the baseline value, or null.";
          "Tolerance policy: tolerance null = informational only";
          "  (wall_time_s is machine-dependent); otherwise CI fails when";
          "  the new value is worse than baseline by more than the";
          "  fraction (worse = lower for higher_better, higher for";
          "  lower_better; improvements never fail).  The sim is";
          "  seeded and deterministic, so gated drift is a real code";
          "  behaviour change: regenerate with `dune exec bench/main.exe";
          "  -- json` and commit the new file alongside the change that";
          "  explains it.";
          "Gated vs informational split for the simulator-efficiency";
          "  metrics: events_per_delivery (engine events per delivered";
          "  message) is deterministic for a fixed seed and GATED --";
          "  event-count bloat is a real scheduling regression.";
          "  minor_words_per_event (lib/prof GC probe) reproduces for a";
          "  fixed binary but tracks the OCaml compiler/allocator, not";
          "  protocol behaviour, so it stays informational.";
          "quick-scaleout gates the lib/fleet multi-broker extension:";
          "  scaleout_speedup_4x = 4-broker delivered throughput over the";
          "  analytic single-broker NIC ceiling (higher_better, tol 10%:";
          "  the numerator sits at a saturation point, so batch edges on";
          "  the measurement window move it a few percent across";
          "  intentional pipeline changes; a drop below tolerance means";
          "  the fleet no longer scales past one broker's NIC).";
          "quick-saturation gates the paper's headline shape on the";
          "  quick Fig. 7 point (16 servers, PBFT, 2e7 op/s offered):";
          "  throughput_ops (higher_better, tol 5%) and the";
          "  measurement clients' latency_mean_s (lower_better, tol";
          "  10%).  bench json refuses to record a latency gate from an";
          "  empty histogram (it would read 0 and pass anything).";
          "Compared by scripts/bench_compare (bench/compare.ml), which";
          "  scripts/ci.sh runs against a fresh `bench json` run." ];
      configs =
        List.map bench_config configs
        @ [ reconfig_config (); scaleout_config (); saturation_config () ] }
  in
  let out =
    match Sys.getenv_opt "CHOPCHOP_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_chopchop.json"
  in
  B.write ~path:out doc;
  List.iter
    (fun (cfg, metrics) ->
      Printf.printf "  %s\n" cfg;
      List.iter
        (fun (m, { B.value; tolerance; direction }) ->
          Printf.printf "    %-28s %14.6g  %s%s\n" m value
            (match direction with
             | B.Higher_better -> "higher-better"
             | B.Lower_better -> "lower-better")
            (match tolerance with
             | Some t -> Printf.sprintf ", tol %g%%" (100. *. t)
             | None -> ", info only"))
        metrics)
    doc.B.configs;
  Printf.printf "baseline -> %s\n%!" out

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> run_bechamel ()
  | [ _; "json" ] -> run_bench_json ()
  | _ ->
    prerr_endline
      "usage: main.exe [json]  (no argument: the bechamel suite; json: the \
       baseline)";
    exit 2
