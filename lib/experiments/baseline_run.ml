module Engine = Repro_sim.Engine
module Net = Repro_sim.Net
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Region = Repro_sim.Region
module Stats = Repro_sim.Stats
module Hist = Repro_trace.Trace.Hist
module Stob = Repro_stob.Stob

type proto = Bftsmart | Hotstuff_base

type params = {
  proto : proto;
  n_servers : int;
  rate : float;
  msg_bytes : int;
  duration : float;
  warmup : float;
  cooldown : float;
  seed : int64;
}

let default proto =
  { proto; n_servers = 64; rate = 1000.; msg_bytes = 8;
    duration = 30.; warmup = 8.; cooldown = 6.; seed = 42L }

type result = {
  offered : float;
  throughput : float;
  latency : Hist.t; (* in the measurement window *)
}

(* One ordered payload = one client operation with the 80 B classic
   header. *)
type op = { inject : float; bytes : int }

let run p =
  let engine = Engine.create ~seed:p.seed () in
  let net = Net.create engine () in
  let n = p.n_servers in
  let regions = Array.of_list (Region.server_regions_for n) in
  let cpus = Array.init n (fun _ -> Cpu.create engine ~cores:Cost.vcpus ()) in
  let w = Stats.Window.create engine ~warmup:p.warmup ~cooldown:p.cooldown ~duration:p.duration in
  let op_bytes = p.msg_bytes + 80 in
  let deliver_at i op =
    (* Servers verify the per-operation signature on delivery. *)
    Cpu.charge cpus.(i) ~work:(Cpu.parallel (Cost.ed25519_batch_verify 1));
    if i = 0 then begin
      Stats.Window.record w 1;
      Stats.Window.latency w (Engine.now engine -. op.inject)
    end
  in
  let underlay, batch_timeout, max_outstanding =
    match p.proto with
    | Bftsmart -> (Stob.Pbft, None, Some 1)
    | Hotstuff_base -> (Stob.Hotstuff, Some 0.4, None)
  in
  let replicas =
    Array.init n (fun i ->
        Stob.create underlay ~engine ~self:i ~n
          ~send:(fun ~dst ~bytes m -> Net.send net ~src:i ~dst ~bytes m)
          ~deliver:(deliver_at i) ~payload_bytes:(fun op -> op.bytes)
          ?batch_timeout ?max_outstanding ())
  in
  Array.iteri
    (fun i r -> Net.add_node net ~id:i ~region:regions.(i) ~handler:(Stob.receive r) ())
    replicas;
  (* Offered load, spread over the servers (clients submit to their
     nearest replica, which forwards into the protocol). *)
  let period = 0.05 in
  let per_tick = p.rate *. period in
  let acc = ref 0. in
  let k = ref 0 in
  Engine.every engine ~period ~until:p.duration (fun () ->
      acc := !acc +. per_tick;
      while !acc >= 1. do
        acc := !acc -. 1.;
        let op = { inject = Engine.now engine; bytes = op_bytes } in
        Stob.broadcast replicas.(!k mod n) op;
        incr k
      done);
  Engine.run engine ~until:(p.duration +. 30.);
  { offered = p.rate;
    throughput = Stats.Window.rate w;
    latency = Stats.Window.latencies w }
