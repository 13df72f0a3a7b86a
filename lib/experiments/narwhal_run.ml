module Engine = Repro_sim.Engine
module Net = Repro_sim.Net
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Region = Repro_sim.Region
module Stats = Repro_sim.Stats
module Hist = Repro_trace.Trace.Hist
module N = Repro_mempool.Narwhal

type params = {
  n_servers : int;
  rate : float;
  msg_bytes : int;
  authenticate : bool;
  workers_per_group : int;
  duration : float;
  warmup : float;
  cooldown : float;
  seed : int64;
}

let default ~authenticate =
  { n_servers = 64; rate = 100_000.; msg_bytes = 8; authenticate;
    workers_per_group = 1; duration = 25.; warmup = 8.; cooldown = 5.;
    seed = 42L }

type result = {
  offered : float;
  throughput : float;
  latency : Hist.t; (* in the measurement window *)
  network_rate_bps : float;
}

let run p =
  let engine = Engine.create ~seed:p.seed () in
  let net = Net.create engine () in
  let n = p.n_servers in
  let regions = Array.of_list (Region.server_regions_for n) in
  let w = Stats.Window.create engine ~warmup:p.warmup ~cooldown:p.cooldown ~duration:p.duration in
  let groups = Array.make n None in
  for i = 0 to n - 1 do
    Net.add_node net ~id:i ~region:regions.(i)
      ~handler:(fun ~src m ->
        match groups.(i) with Some g -> N.receive g ~src m | None -> ())
      ()
  done;
  for i = 0 to n - 1 do
    let cpu = Cpu.create engine ~cores:Cost.vcpus () in
    let cfg =
      { (N.default_config ~n ~msg_bytes:p.msg_bytes ~authenticate:p.authenticate) with
        workers_per_group = p.workers_per_group }
    in
    let g =
      N.create ~engine ~cpu ~config:cfg ~self:i
        ~send:(fun ~dst ~bytes m -> Net.send net ~src:i ~dst ~bytes m)
        ~on_deliver:(fun ~count ~inject_time ->
          if i = 0 then begin
            Stats.Window.record w count;
            Stats.Window.latency w (Engine.now engine -. inject_time)
          end)
        ()
    in
    groups.(i) <- Some g
  done;
  (* Offered load, evenly split across groups in 50 ms slices. *)
  let period = 0.05 in
  let per_group_tick = p.rate *. period /. float_of_int n in
  let acc = ref 0. in
  let ingress0 = ref 0 and ingress1 = ref 0 in
  Engine.schedule engine ~delay:p.warmup (fun () ->
      ingress0 := Net.bytes_received net 0);
  Engine.schedule engine ~delay:(p.duration -. p.cooldown) (fun () ->
      ingress1 := Net.bytes_received net 0);
  Engine.every engine ~period ~until:p.duration (fun () ->
      acc := !acc +. per_group_tick;
      let whole = int_of_float !acc in
      if whole > 0 then begin
        acc := !acc -. float_of_int whole;
        Array.iter
          (function Some g -> N.inject g ~count:whole | None -> ())
          groups
      end);
  Engine.run engine ~until:(p.duration +. 30.);
  let span = p.duration -. p.cooldown -. p.warmup in
  { offered = p.rate;
    throughput = Stats.Window.rate w;
    latency = Stats.Window.latencies w;
    network_rate_bps = float_of_int (!ingress1 - !ingress0) /. span }
