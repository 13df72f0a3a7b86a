(* Reconfiguration under load: the dynamic-membership cost picture.

   A Sequencer-underlay deployment with durable stores and one spare slot
   runs a sustained dense load (Load_broker batches) plus a few
   measurement clients whose arrivals follow a heavy-tailed (Pareto)
   process.  Mid-run a spare slot joins through an ordered Reconfigure —
   bootstrapping via cold-restart state transfer — and later a founding
   member leaves.  Three throughput windows (before / across the
   reconfigurations / after) quantify the disruption, and the join→
   caught-up gap gives the bring-up cost of a new replica under load.

   The paper deploys a fixed committee (§6.1); this experiment measures
   what the ordered-reconfiguration extension costs on top of it. *)

module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Trace = Repro_trace.Trace
module Rng = Repro_sim.Rng
module D = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Client = Repro_chopchop.Client
module Load_broker = Repro_workload.Load_broker
module Generators = Repro_workload.Generators

type params = {
  n_servers : int; (* founding members; capacity is one more *)
  rate : float; (* offered dense load, msg/s *)
  batch_count : int;
  dense_clients : int;
  duration : float;
  t_join : float; (* spare slot joins (ordered) *)
  t_leave : float; (* last founding slot leaves (ordered) *)
  seed : int64;
}

let params = function
  | Figures.Quick ->
    { n_servers = 4; rate = 20_000.; batch_count = 1_024;
      dense_clients = 1_000_000; duration = 30.; t_join = 10.; t_leave = 20.;
      seed = 42L }
  | Figures.Full ->
    { n_servers = 7; rate = 100_000.; batch_count = 4_096;
      dense_clients = 10_000_000; duration = 45.; t_join = 14.; t_leave = 30.;
      seed = 42L }

type result = {
  offered : float;
  tput_before : float; (* steady state, msg/s at server 0 *)
  tput_reconfig : float; (* join .. leave window *)
  tput_after : float; (* shrunk committee, post-settling *)
  join_recovery_s : float; (* join order -> joiner caught up *)
  final_epoch : int; (* ordered changes applied everywhere *)
  client_latency_mean : float; (* measurement clients, whole run *)
}

let run ?(scale = Figures.Quick) () =
  let p = params scale in
  let cfg =
    { (D.paper_config ~n_servers:p.n_servers ~underlay:D.Sequencer) with
      D.spare_servers = 1;
      store_enabled = true;
      checkpoint_every = 16;
      dense_clients = p.dense_clients;
      max_batch = p.batch_count;
      seed = p.seed }
  in
  let d = D.create cfg in
  let engine = D.engine d in
  let joiner = p.n_servers and leaver = p.n_servers - 1 in
  (* Sustained dense load for the whole run. *)
  let lb =
    Load_broker.create ~deployment:d ~region:(List.hd Region.load_broker_regions)
      ~config:
        { (Load_broker.default_config ~first_id:0) with
          rate = p.rate /. float_of_int p.batch_count;
          batch_count = p.batch_count;
          ranges = 4 }
      ()
  in
  Load_broker.start lb ~until:p.duration ();
  (* Measurement clients with heavy-tailed arrivals: live traffic keeps
     landing while the roster changes underneath it. *)
  let lat = Trace.Hist.create () in
  let rng = Rng.create (Int64.logxor p.seed 0x7ec0_4f16L) in
  for i = 0 to 1 do
    let c =
      D.add_client d
        ~identity:(p.dense_clients - 1 - i) (* top of the id space *)
        ~on_delivered:(fun _ ~latency -> Trace.Hist.add lat latency)
        ()
    in
    let k = ref 0 in
    Generators.drive ~engine ~rng
      ~arrival:(Generators.Pareto { rate = 1.5; alpha = 1.5 })
      ~until:(p.duration -. 5.)
      ~fire:(fun () ->
        incr k;
        Client.broadcast c (Printf.sprintf "probe:%d:%d" i !k))
      ()
  done;
  (* The ordered reconfigurations. *)
  Engine.schedule engine ~delay:p.t_join (fun () -> D.join_server d joiner);
  Engine.schedule engine ~delay:p.t_leave (fun () -> D.leave_server d leaver);
  (* Join bring-up: probe until the joiner reports caught up. *)
  let recovery = ref Float.nan in
  let rec probe () =
    if D.server_catching_up d joiner then
      Engine.schedule engine ~delay:0.25 probe
    else recovery := Engine.now engine -. p.t_join
  in
  Engine.schedule engine ~delay:(p.t_join +. 0.3) probe;
  (* Throughput windows at server 0 (never leaves: it is the sequencing
     node). *)
  let delivered () = Server.delivered_messages (D.servers d).(0) in
  let snap = Hashtbl.create 8 in
  let mark name time =
    Engine.schedule engine ~delay:time (fun () ->
        Hashtbl.replace snap name (delivered ()))
  in
  let w0 = 2.0 in
  mark "w0" w0;
  mark "join" p.t_join;
  mark "leave" p.t_leave;
  mark "settle" (p.t_leave +. 2.);
  mark "end" p.duration;
  D.run d ~until:(p.duration +. 10.);
  let v name = float_of_int (Hashtbl.find snap name) in
  { offered = p.rate;
    tput_before = (v "join" -. v "w0") /. (p.t_join -. w0);
    tput_reconfig = (v "leave" -. v "join") /. (p.t_leave -. p.t_join);
    tput_after = (v "end" -. v "settle") /. (p.duration -. p.t_leave -. 2.);
    join_recovery_s = !recovery;
    final_epoch = D.server_epoch d 0;
    client_latency_mean = Trace.Hist.mean lat }

let metrics ~scale = run ~scale ()

let print fmt scale =
  let r = metrics ~scale in
  let p = params scale in
  Format.fprintf fmt
    "reconfig-load: ordered join (t=%.0fs) + leave (t=%.0fs) under %.0f \
     msg/s dense load@."
    p.t_join p.t_leave r.offered;
  Format.fprintf fmt "  %-28s %12s@." "window" "msg/s";
  Format.fprintf fmt "  %-28s %12.0f@." "steady state (before)" r.tput_before;
  Format.fprintf fmt "  %-28s %12.0f@." "across join..leave" r.tput_reconfig;
  Format.fprintf fmt "  %-28s %12.0f@." "after (shrunk committee)" r.tput_after;
  Format.fprintf fmt "  join -> caught up: %.2f s@." r.join_recovery_s;
  Format.fprintf fmt "  final epoch at server 0: %d@." r.final_epoch;
  Format.fprintf fmt "  probe-client latency mean: %.2f s@."
    r.client_latency_mean
