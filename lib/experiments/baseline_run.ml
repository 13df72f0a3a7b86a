module Engine = Repro_sim.Engine
module Net = Repro_sim.Net
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Region = Repro_sim.Region
module Stats = Repro_sim.Stats
module Hist = Repro_trace.Trace.Hist

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

type msg =
  | Pbft_m of op Repro_stob.Pbft.msg
  | Hs_m of op Repro_stob.Hotstuff.msg

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
  let receives = Array.make n (fun ~src:_ (_ : msg) -> ()) in
  let broadcasts = Array.make n (fun (_ : op) -> ()) in
  for i = 0 to n - 1 do
    Net.add_node net ~id:i ~region:regions.(i)
      ~handler:(fun ~src m -> receives.(i) ~src m)
      ()
  done;
  for i = 0 to n - 1 do
    match p.proto with
    | Bftsmart ->
      let send ~dst ~bytes m = Net.send net ~src:i ~dst ~bytes (Pbft_m m) in
      let st =
        Repro_stob.Pbft.create ~engine ~self:i ~n ~send ~deliver:(deliver_at i)
          ~payload_bytes:(fun op -> op.bytes) ~batch_max:400 ~max_outstanding:1 ()
      in
      receives.(i) <- (fun ~src m ->
          match m with Pbft_m m -> Repro_stob.Pbft.receive st ~src m | Hs_m _ -> ());
      broadcasts.(i) <- Repro_stob.Pbft.broadcast st
    | Hotstuff_base ->
      let send ~dst ~bytes m = Net.send net ~src:i ~dst ~bytes (Hs_m m) in
      let st =
        Repro_stob.Hotstuff.create ~engine ~self:i ~n ~send ~deliver:(deliver_at i)
          ~payload_bytes:(fun op -> op.bytes) ~batch_max:400 ~batch_timeout:0.4 ()
      in
      receives.(i) <- (fun ~src m ->
          match m with Hs_m m -> Repro_stob.Hotstuff.receive st ~src m | Pbft_m _ -> ());
      broadcasts.(i) <- Repro_stob.Hotstuff.broadcast st
  done;
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
        broadcasts.(!k mod n) op;
        incr k
      done);
  Engine.run engine ~until:(p.duration +. 30.);
  { offered = p.rate;
    throughput = Stats.Window.rate w;
    latency = Stats.Window.latencies w }
