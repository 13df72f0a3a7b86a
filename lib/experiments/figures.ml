module D = Repro_chopchop.Deployment
module Wire = Repro_chopchop.Wire
module Hist = Repro_trace.Trace.Hist

type scale = Repro_chaos.Chaos.scale = Quick | Full

let n_servers = function Quick -> 16 | Full -> 64

let windows = function
  | Quick -> (12., 4., 3.) (* duration, warmup, cooldown *)
  | Full -> (20., 6., 4.)

let cc_params scale =
  let duration, warmup, cooldown = windows scale in
  { Chopchop_run.default with
    n_servers = n_servers scale;
    duration; warmup; cooldown }

let saturation_rate = function Quick -> 2.0e7 | Full -> 4.4e7
(* Full scale: the paper's measured maximal stable throughput; the fig7
   sweep additionally drives 6e7 to exhibit the overload collapse. *)

let header fmt title =
  Format.fprintf fmt "@.=== %s ===@." title

let row fmt = Format.fprintf fmt

(* Latency cells: a window in which no measured message completed prints
   "no samples", never a number. *)
let pp_lat_mean fmt h =
  if Hist.count h = 0 then Format.pp_print_string fmt "no samples"
  else Format.fprintf fmt "%5.2f s" (Hist.mean h)

let pp_lat_mean_std fmt h =
  if Hist.count h = 0 then pp_lat_mean fmt h
  else Format.fprintf fmt "%5.2f +- %4.2f s" (Hist.mean h) (Hist.stddev h)

(* Shared, memoised heavy runs. *)

(* Keyed on every data field of the params; the record pattern is
   exhaustive, so a new field must be added here too. *)
let memo_key
    { Chopchop_run.n_servers; cores; underlay; rate; batch_count; msg_bytes;
      distill_fraction; n_load_brokers; n_brokers; measure_clients; duration;
      warmup; cooldown; crash; dense_clients; seed; flush_period;
      reduce_timeout; witness_margin; store; checkpoint_every;
      trace = _; metrics = _; on_delivery = _; profile = _ } =
  ( n_servers, cores, underlay, rate, batch_count, msg_bytes,
    distill_fraction, n_load_brokers, n_brokers, measure_clients, duration,
    warmup, cooldown, crash, dense_clients, seed, flush_period,
    reduce_timeout, witness_margin, store, checkpoint_every )

let memo_tbl = Hashtbl.create 16

let cc_run params =
  let key = memo_key params in
  match Hashtbl.find_opt memo_tbl key with
  | Some r -> r
  | None ->
    let r = Chopchop_run.run params in
    Hashtbl.add memo_tbl key r;
    r

let cc_max scale =
  cc_run { (cc_params scale) with rate = saturation_rate scale }

let cc_max_throughput scale = (cc_max scale).throughput


(* --- Fig. 1: context ------------------------------------------------------ *)

let fig1 fmt _scale =
  header fmt "Fig. 1 — Throughput of Internet-scale services (context, paper values)";
  List.iter
    (fun (name, rate) -> row fmt "  %-28s %12s req/s@." name rate)
    [ ("BFT-SMaRt (geo-distributed)", "1.4k");
      ("HotStuff (geo-distributed)", "1.6k");
      ("Narwhal-Bullshark", "380k");
      ("Visa (peak, global)", "~65k");
      ("Google Search", "~100k");
      ("WeChat messages", "~1.7M");
      ("Chop Chop (this repo's target)", "~40M") ]

(* --- Figs. 2–3: batch layouts ---------------------------------------------- *)

let fig3 fmt _scale =
  header fmt "Figs. 2-3 — Batch layout arithmetic (bytes)";
  let clients = 257_000_000 and msg = 8 and count = 65_536 in
  let classic_payload = Wire.classic_payload_bytes ~msg_bytes:msg in
  let classic = Wire.classic_batch_bytes ~count ~msg_bytes:msg in
  let distilled =
    Wire.distilled_batch_bytes ~clients ~count ~msg_bytes:msg ~stragglers:0
  in
  row fmt "  classic payload (pk+sn+msg+sig)      %6d B   (paper: 112 B)@." classic_payload;
  row fmt "  distilled entry (id+msg)             %6.1f B   (paper: 11.5 B)@."
    (Wire.distilled_entry_bytes ~clients ~msg_bytes:msg);
  row fmt "  classic batch of 65,536              %6.2f MB  (paper: 7 MB)@."
    (float_of_int classic /. 1e6);
  row fmt "  fully distilled batch of 65,536      %6.0f KB  (paper: ~736 KB)@."
    (float_of_int distilled /. 1e3);
  row fmt "  payments: classic header share       %6.1f %%   (paper: 91%%)@."
    (100. *. (1. -. (12. /. 140.)))

(* --- §3.2 microbenchmark ---------------------------------------------------- *)

let micro fmt _scale =
  header fmt "§3.2 — Distillation microbenchmark (batches of 65,536 / second)";
  let classic = Ceiling.classic_auth_rate
  and distilled = Ceiling.distilled_auth_rate in
  row fmt "  classic batch authentication         %8.1f /s  (paper: 16.2 +- 0.4)@." classic;
  row fmt "  fully distilled authentication       %8.1f /s  (paper: 457.1 +- 0.3)@." distilled;
  row fmt "  CPU cost ratio                       %8.1f x   (paper: 28.2 x)@."
    (distilled /. classic);
  row fmt "  bandwidth ratio (112 B vs 11.5 B)    %8.1f x   (paper: 9.7 x)@."
    (112. /. 11.5)

(* --- Fig. 7 ------------------------------------------------------------------ *)

let pp_tp_lat fmt (label, offered, r_tp, r_lat) =
  row fmt "  %-22s offered %10.3g op/s -> %10.3g op/s   lat %a@."
    label offered r_tp pp_lat_mean_std r_lat

let cc_rates = function
  | Quick -> [ 1e6; 8e6; 1.6e7; 2.0e7 ]
  | Full -> [ 1e6; 8e6; 2e7; 3.2e7; 4.4e7; 6e7 ]

let fig7 fmt scale =
  header fmt "Fig. 7 — Throughput-latency under various input rates";
  let duration, warmup, cooldown = windows scale in
  (* Chop Chop on both underlays. *)
  List.iter
    (fun (label, underlay) ->
      List.iter
        (fun rate ->
          let r = cc_run { (cc_params scale) with rate; underlay } in
          pp_tp_lat fmt (label, rate, r.throughput, r.latency))
        (cc_rates scale))
    [ ("ChopChop-BFT-SMaRt", D.Pbft); ("ChopChop-HotStuff", D.Hotstuff) ];
  (* Narwhal-Bullshark, both variants. *)
  List.iter
    (fun (label, authenticate, rates) ->
      List.iter
        (fun rate ->
          let r =
            Narwhal_run.run
              { (Narwhal_run.default ~authenticate) with
                n_servers = n_servers scale; rate; duration; warmup; cooldown }
          in
          pp_tp_lat fmt (label, rate, r.throughput, r.latency))
        rates)
    [ ("Narwhal-Bullshark", false, [ 1e5; 1e6; 2e6; 4e6; 6e6 ]);
      ("Narwhal-Bullshark-sig", true, [ 5e4; 1e5; 2e5; 4e5; 6e5 ]) ];
  (* Standalone baselines. *)
  List.iter
    (fun (label, proto, rates) ->
      List.iter
        (fun rate ->
          let r =
            Baseline_run.run
              { (Baseline_run.default proto) with
                n_servers = n_servers scale; rate;
                duration = duration +. 10.; warmup; cooldown }
          in
          pp_tp_lat fmt (label, rate, r.throughput, r.latency))
        rates)
    [ ("BFT-SMaRt", Baseline_run.Bftsmart, [ 400.; 800.; 1600.; 3200. ]);
      ("HotStuff", Baseline_run.Hotstuff_base, [ 400.; 1600.; 3200.; 6400. ]) ];
  row fmt "  (paper: ChopChop ~44M op/s @ 3.0-3.6 s on BFT-SMaRt, 5.8-6.5 s on HotStuff;@.";
  row fmt "   Narwhal-Bullshark 3.8M, -sig 382k @ ~3.6 s; BFT-SMaRt 1.4k @ 0.5 s; HotStuff 1.6k @ 1.2-1.6 s)@."

(* The headline point, checking itself like broker-cores: at saturation
   the paper delivers what it is offered, at ~2 s. *)
let headline fmt scale =
  header fmt "Headline — ChopChop-BFT-SMaRt at the saturation rate";
  let r = cc_max scale in
  pp_tp_lat fmt ("ChopChop-BFT-SMaRt", r.offered, r.throughput, r.latency);
  row fmt "  delivered/offered %.3f  (paper: 44M op/s at ~2.0 s, 64 servers)@."
    (r.throughput /. r.offered);
  if Hist.count r.latency = 0 then
    failwith "headline: no latency sample in the measurement window";
  Ceiling.check ~what:"headline (bound: offered rate)" ~delivered:r.throughput
    ~bound:r.offered ~floor:0.95

(* --- Fig. 8a ----------------------------------------------------------------- *)

let fig8a fmt scale =
  header fmt "Fig. 8a — Distillation benefit (saturated throughput)";
  let duration, warmup, cooldown = windows scale in
  let nb_sig =
    Narwhal_run.run
      { (Narwhal_run.default ~authenticate:true) with
        n_servers = n_servers scale; rate = 6e5; duration; warmup; cooldown }
  in
  row fmt "  Narwhal-Bullshark-sig          %10.3g op/s  (paper: 382k)@." nb_sig.throughput;
  (* Drive each configuration just below its witness-CPU capacity:
     unlike the fully distilled case, classic batches saturate the
     servers' signature-verification budget (ed25519_batch anchors). *)
  let below_capacity distill_fraction =
    cc_run
      { (cc_params scale) with
        distill_fraction;
        rate =
          0.8 *. Ceiling.witness_cpu ~n_servers:(n_servers scale) ~distill_fraction }
  in
  let no_distill = below_capacity 0. in
  row fmt "  ChopChop, no distillation      %10.3g op/s  (paper: 1.5M)@."
    no_distill.throughput;
  let half = below_capacity 0.5 in
  row fmt "  ChopChop, 50%% distilled        %10.3g op/s  (ablation; not in paper)@."
    half.throughput;
  let full = cc_max scale in
  row fmt "  ChopChop, fully distilled      %10.3g op/s  (paper: 44M)@." full.throughput

(* --- Fig. 8b ----------------------------------------------------------------- *)

let fig8b fmt scale =
  header fmt "Fig. 8b — Message sizes (saturated throughput)";
  let sizes_rates =
    (* 8 B saturates CPU; larger sizes saturate the server NIC: drive at
       ~85% of the ingress budget so the system saturates rather than
       entering its overload collapse. *)
    let bw_cap msg_bytes =
      Ceiling.server_ingress
        ~ingress_bps:(0.85 *. Repro_sim.Net.server_default_ingress_bps)
        ~clients:Chopchop_run.default.dense_clients ~msg_bytes
    in
    [ (8, saturation_rate scale); (32, Float.min (bw_cap 32) (saturation_rate scale));
      (128, bw_cap 128); (512, bw_cap 512) ]
  in
  List.iter
    (fun (msg_bytes, rate) ->
      let r = cc_run { (cc_params scale) with rate; msg_bytes } in
      row fmt "  ChopChop %4d B messages       %10.3g op/s@." msg_bytes r.throughput)
    sizes_rates;
  let duration, warmup, cooldown = windows scale in
  List.iter
    (fun (msg_bytes, rate) ->
      let r =
        Narwhal_run.run
          { (Narwhal_run.default ~authenticate:true) with
            n_servers = n_servers scale; rate; msg_bytes; duration; warmup; cooldown }
      in
      row fmt "  NB-sig   %4d B messages       %10.3g op/s@." msg_bytes r.throughput)
    [ (8, 6e5); (512, 3e5) ];
  row fmt "  (paper: ChopChop 44.3M/17.6M/3.5M/890k for 8/32/128/512 B;@.";
  row fmt "   NB-sig 382k at 8 B down to 142k at 512 B)@."

(* --- Fig. 9 ------------------------------------------------------------------ *)

let fig9 fmt scale =
  header fmt "Fig. 9 — Line rate: input vs network vs output rates (B/s per server)";
  List.iter
    (fun rate ->
      let r = cc_run { (cc_params scale) with rate } in
      let overhead =
        if r.input_rate_bps > 0. then
          100. *. (r.network_rate_bps -. r.input_rate_bps) /. r.input_rate_bps
        else 0.
      in
      row fmt
        "  ChopChop in %9.3g B/s   net %9.3g B/s   out %9.3g B/s   overhead %5.1f%%@."
        r.input_rate_bps r.network_rate_bps r.goodput_bps overhead)
    (cc_rates scale);
  let duration, warmup, cooldown = windows scale in
  List.iter
    (fun rate ->
      let r =
        Narwhal_run.run
          { (Narwhal_run.default ~authenticate:true) with
            n_servers = n_servers scale; rate; duration; warmup; cooldown }
      in
      let per_msg = 11.5 in
      row fmt "  NB-sig   in %9.3g B/s   net %9.3g B/s   out %9.3g B/s@."
        (r.offered *. per_msg) r.network_rate_bps (r.throughput *. per_msg))
    [ 1e5; 2e5; 4e5 ];
  row fmt "  (paper: ChopChop overhead < 8%% up to 40M op/s; NB-sig network rate@.";
  row fmt "   one order of magnitude above its input rate)@."

(* --- Fig. 10a ---------------------------------------------------------------- *)

let fig10a fmt scale =
  header fmt "Fig. 10a — Number of servers (saturated throughput)";
  let sizes = match scale with Quick -> [ 8; 16 ] | Full -> [ 8; 16; 32; 64 ] in
  List.iter
    (fun n ->
      (* Just below each size's witness-CPU capacity: the paper's
         "maximum throughput" bars. *)
      let rate =
        Float.min
          (0.82 *. Ceiling.witness_cpu ~n_servers:n ~distill_fraction:1.)
          (saturation_rate scale)
      in
      let r = cc_run { (cc_params scale) with n_servers = n; rate } in
      row fmt "  ChopChop %2d servers            %10.3g op/s@." n r.throughput)
    sizes;
  let duration, warmup, cooldown = windows scale in
  List.iter
    (fun n ->
      let r =
        Narwhal_run.run
          { (Narwhal_run.default ~authenticate:true) with
            n_servers = n; rate = 6e5; duration; warmup; cooldown }
      in
      row fmt "  NB-sig   %2d servers            %10.3g op/s@." n r.throughput)
    sizes;
  row fmt "  (paper: both systems scale well to 64 servers, ~44M vs ~400k)@."

(* --- Fig. 10b ---------------------------------------------------------------- *)

let fig10b fmt scale =
  header fmt "Fig. 10b — Matched total resources (64 servers)";
  let n = n_servers scale in
  (* ChopChop with unconstrained load brokers (the "infinite machines"
     cluster of the figure). *)
  let unconstrained = cc_max scale in
  row fmt "  ChopChop, load brokers (inf m) %10.3g op/s  (paper: ~44M)@."
    unconstrained.throughput;
  (* 128 machines: 64 servers + 64 brokers, each broker capped at its
     distillation capacity of ~1 batch/s (§5.1 design target). *)
  let brokers = n in
  let rate_128 = float_of_int (brokers * 65_536) *. 1.05 in
  let r128 =
    cc_run
      { (cc_params scale) with rate = rate_128; n_load_brokers = brokers }
  in
  row fmt "  ChopChop, %3d machines         %10.3g op/s  (paper: 4.6M)@."
    (2 * n) r128.throughput;
  let duration, warmup, cooldown = windows scale in
  let nb2 =
    Narwhal_run.run
      { (Narwhal_run.default ~authenticate:true) with
        n_servers = n; workers_per_group = 2; rate = 1.6e6;
        duration; warmup; cooldown }
  in
  row fmt "  NB-sig, %3d machines (2 w/grp) %10.3g op/s  (paper: 679k)@."
    (2 * n) nb2.throughput;
  let nb1 =
    Narwhal_run.run
      { (Narwhal_run.default ~authenticate:true) with
        n_servers = n; rate = 6e5; duration; warmup; cooldown }
  in
  row fmt "  NB-sig, %3d machines (1 w/grp) %10.3g op/s  (paper: 382k)@." n nb1.throughput

(* --- Fig. 11a ---------------------------------------------------------------- *)

let fig11a fmt scale =
  header fmt "Fig. 11a — Server crash failures (post-crash stable throughput)";
  let n = n_servers scale in
  let f = (n - 1) / 3 in
  let duration, _, cooldown = windows scale in
  let duration = duration +. 8. in
  let crash_at = 6. in
  let post_warmup = crash_at +. 6. in
  let cases =
    [ ("no crash", []);
      ("1 crash", [ n - 1 ]);
      (Printf.sprintf "%d crashes" f, List.init f (fun i -> n - 1 - i)) ]
  in
  List.iter
    (fun (label, victims) ->
      let p =
        { (cc_params scale) with
          rate = saturation_rate scale;
          duration; warmup = post_warmup; cooldown;
          crash = (if victims = [] then None else Some (crash_at, victims)) }
      in
      let r = cc_run p in
      row fmt "  ChopChop, %-12s          %10.3g op/s@." label r.throughput)
    cases;
  row fmt "  (paper: 44M -> 43M with one crash; -66%% to 15M with a third crashed)@."

(* --- Fig. 11b ---------------------------------------------------------------- *)

let fig11b fmt scale =
  header fmt "Fig. 11b — Application use cases (maximal stable throughput)";
  let max_tp = cc_max_throughput scale in
  List.iter
    (fun c ->
      row fmt
        "  %-10s %10.3g op/s   (measured %6.1f ns/op on %2d core%s)@."
        c.App_model.app
        (Float.min c.App_model.capacity max_tp)
        c.App_model.measured_op_ns c.App_model.cores
        (if c.App_model.cores > 1 then "s" else ""))
    (App_model.calibrate ());
  row fmt "  (paper: Auction 2.3M, Payments 32M, Pixel war 35M op/s)@."

(* --- silk --------------------------------------------------------------------- *)

let silk_table fmt _scale =
  header fmt "§6.2 — silk vs scp (13 TB to 320 machines)";
  let p = Repro_silk.Silk.default_params in
  row fmt "  single TCP stream              %10.3g Gb/s@."
    (Repro_silk.Silk.stream_bps p /. 1e9);
  row fmt "  scp (sequential, one source)   %10.1f hours   (paper: ~68 h)@."
    (Repro_silk.Silk.scp_hours p);
  row fmt "  silk (P2P, aggregated TCP)     %10.1f minutes (paper: ~30 min)@."
    (Repro_silk.Silk.silk_minutes p);
  row fmt "  speedup                        %10.1f x@." (Repro_silk.Silk.speedup p)

(* --- ablations ----------------------------------------------------------------- *)

let ablation_timeout fmt scale =
  header fmt "Ablation — broker reduce timeout (fixed 2M op/s offered)";
  List.iter
    (fun reduce ->
      let r =
        cc_run
          { (cc_params scale) with rate = 2e6; reduce_timeout = reduce; seed = 7L }
      in
      row fmt "  reduce timeout %4.2f s -> lat %a, tput %10.3g op/s@."
        reduce pp_lat_mean r.latency r.throughput)
    [ 0.25; 0.5; 1.0 ]

let ablation_margin fmt scale =
  header fmt "Ablation — witness margin f+1+m (saturated)";
  List.iter
    (fun m ->
      let r =
        cc_run
          { (cc_params scale) with
            rate = saturation_rate scale;
            witness_margin = Some m;
            seed = Int64.of_int (100 + m) }
      in
      row fmt "  margin %d -> tput %10.3g op/s, lat %a@." m r.throughput
        pp_lat_mean r.latency)
    [ 0; 4 ]

(* Adverse network conditions: packet loss on the client<->broker UDP path
   degrades distillation (missed reduction windows -> stragglers) and
   raises latency, but loses nothing (§5.1 reliable UDP; §6 "adverse
   network conditions").  Checks itself: every point completes messages
   and abandons none, and the transport retransmits exactly when the
   path is lossy. *)
let ablation_loss fmt _scale =
  header fmt "Ablation — client/broker packet loss (4 servers, 12 real clients)";
  List.iter
    (fun loss ->
      let d =
        D.create
          { D.default_config with
            underlay = D.Pbft; net_loss = loss;
            flush_period = 0.3; reduce_timeout = 0.15; seed = 5L }
      in
      let lat = Hist.create () in
      let clients =
        List.init 12 (fun _ ->
            D.add_client d
              ~on_delivered:(fun _ ~latency -> Hist.add lat latency)
              ())
      in
      List.iter Repro_chopchop.Client.signup clients;
      D.run d ~until:8.0;
      let stop = ref false in
      let rec pump c () =
        if not !stop then begin
          if Repro_chopchop.Client.pending c = 0 then
            Repro_chopchop.Client.broadcast c "loadload";
          Repro_sim.Engine.schedule (D.engine d) ~delay:0.3 (pump c)
        end
      in
      List.iter (fun c -> pump c ()) clients;
      Repro_sim.Engine.schedule (D.engine d) ~delay:30.0 (fun () -> stop := true);
      D.run d ~until:90.0;
      let ratio =
        let num = ref 0. and den = ref 0 in
        for b = 0 to D.n_brokers d - 1 do
          num := !num +. Repro_chopchop.Broker.distillation_ratio (D.broker d b);
          incr den
        done;
        !num /. float_of_int !den
      in
      let rudp name =
        Repro_trace.Trace.(
          Counter.value (Sink.counter (Repro_sim.Engine.trace (D.engine d)) ~cat:"rudp" ~name))
      in
      let retrans = rudp "retransmissions" and gave_up = rudp "gave_up" in
      let completed =
        List.fold_left (fun a c -> a + Repro_chopchop.Client.completed c) 0 clients
      in
      row fmt
        "  loss %4.0f%% -> distilled %5.1f%%, completed %4d, lat %a, retrans %5d, gave up %d@."
        (100. *. loss) (100. *. ratio) completed pp_lat_mean lat retrans gave_up;
      let fail what =
        failwith (Printf.sprintf "ablation-loss: %.0f%% loss %s" (100. *. loss) what)
      in
      if completed = 0 then fail "completed nothing";
      if gave_up > 0 then fail (Printf.sprintf "gave up %d messages" gave_up);
      if loss = 0. && retrans > 0 then
        fail (Printf.sprintf "retransmitted %d packets on a lossless path" retrans);
      if loss > 0. && retrans = 0 then fail "retransmitted nothing")
    [ 0.0; 0.05; 0.15; 0.30 ]

let run_all fmt scale =
  fig1 fmt scale;
  fig3 fmt scale;
  micro fmt scale;
  silk_table fmt scale;
  fig7 fmt scale;
  fig8a fmt scale;
  fig8b fmt scale;
  fig9 fmt scale;
  fig10a fmt scale;
  fig10b fmt scale;
  fig11a fmt scale;
  fig11b fmt scale;
  ablation_timeout fmt scale;
  ablation_margin fmt scale;
  ablation_loss fmt scale
