module Engine = Repro_sim.Engine
module Region = Repro_sim.Region
module Trace = Repro_trace.Trace
module D = Repro_chopchop.Deployment
module Batch = Repro_chopchop.Batch
module Broker = Repro_chopchop.Broker
module Server = Repro_chopchop.Server

type config = {
  rate : float;
  batch_count : int;
  msg_bytes : int;
  distill_fraction : float;
  ranges : int;
  first_id : int;
}

let default_config ~first_id =
  { rate = 1.0; batch_count = 65_536; msg_bytes = 8; distill_fraction = 1.0;
    ranges = 16; first_id }

type t = {
  deployment : D.t;
  cfg : config;
  broker_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable completed_messages : int;
  lat : Trace.Hist.t;
  mutable round : int;
}

let create ~deployment ~region ~config () =
  let broker_id = D.add_broker deployment ~region () in
  { deployment; cfg = config; broker_id;
    submitted = 0; completed = 0; completed_messages = 0;
    lat = Trace.Hist.create (); round = 0 }

let submitted t = t.submitted
let completed t = t.completed
let completed_messages t = t.completed_messages
let latencies t = t.lat
let broker_id t = t.broker_id

let inject t =
  let engine = D.engine t.deployment in
  let cfg = t.cfg in
  let range = t.submitted mod cfg.ranges in
  let tag = 1 + (t.submitted / cfg.ranges) in
  let first_id = cfg.first_id + (range * cfg.batch_count) in
  let stragglers =
    int_of_float (ceil ((1. -. cfg.distill_fraction) *. float_of_int cfg.batch_count))
  in
  let directory = Server.directory (D.servers t.deployment).(0) in
  let broker = D.broker t.deployment t.broker_id in
  let number = t.submitted in
  t.submitted <- t.submitted + 1;
  t.round <- tag;
  let batch =
    Batch.forge_dense directory ~broker:t.broker_id ~number ~first_id
      ~count:cfg.batch_count ~msg_bytes:cfg.msg_bytes ~tag
      ~straggler_count:(min stragglers cfg.batch_count)
  in
  let now = Engine.now engine in
  Broker.submit_prebuilt broker batch ~on_complete:(fun _cert ->
      t.completed <- t.completed + 1;
      t.completed_messages <- t.completed_messages + cfg.batch_count;
      Trace.Hist.add t.lat (Engine.now engine -. now))

let start t ?until ?(phase = 0.) () =
  let engine = D.engine t.deployment in
  let period = 1. /. t.cfg.rate in
  let kind = Engine.kind engine "load.inject" in
  Engine.schedule ~kind engine ~delay:phase (fun () ->
      Engine.every ~kind engine ~period ?until (fun () -> inject t))
