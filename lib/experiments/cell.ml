module D = Repro_chopchop.Deployment
module Json = Repro_metrics.Json
module Trace = Repro_trace.Trace

type config = {
  underlay : string;
  servers : int;
  cores : int;
  payload : int;
  rate : float;
  app : string;
  batch : int;
  load_brokers : int;
  brokers : int;
  measure_clients : int;
  duration : float;
  warmup : float;
  cooldown : float;
  dense_clients : int;
  store : bool;
  checkpoint_every : int;
  seed : int64;
}

let underlays = [ "sequencer"; "pbft"; "hotstuff" ]
let apps = [ "none"; "payments"; "auction"; "pixelwar" ]

let default =
  { underlay = "pbft";
    servers = 4;
    cores = Repro_sim.Cost.vcpus;
    payload = 8;
    rate = 100_000.;
    app = "none";
    batch = 4096;
    load_brokers = 1;
    brokers = 0;
    measure_clients = 4;
    duration = 10.;
    warmup = 4.;
    cooldown = 2.;
    dense_clients = 1_000_000;
    store = true;
    checkpoint_every = 64;
    seed = 42L }

let underlay_of_string = function
  | "sequencer" -> Some D.Sequencer
  | "pbft" -> Some D.Pbft
  | "hotstuff" -> Some D.Hotstuff
  | _ -> None

let validate c =
  let enum what value valid =
    if List.mem value valid then Ok ()
    else
      Error
        (Printf.sprintf "unknown %s %S (valid: %s)" what value
           (String.concat ", " valid))
  in
  let positive what v = if v > 0 then Ok () else Error (what ^ " must be > 0") in
  let ( let* ) = Result.bind in
  let* () = enum "underlay" c.underlay underlays in
  let* () = enum "app" c.app apps in
  let* () = positive "servers" c.servers in
  let* () = positive "cores" c.cores in
  let* () = positive "payload" c.payload in
  let* () = positive "batch" c.batch in
  let* () = positive "load_brokers" c.load_brokers in
  let* () =
    if c.brokers >= 0 then Ok () else Error "brokers must be >= 0"
  in
  let* () = positive "measure_clients" c.measure_clients in
  let* () = positive "dense_clients" c.dense_clients in
  let* () = positive "checkpoint_every" c.checkpoint_every in
  let* () = if c.rate > 0. then Ok () else Error "rate must be > 0" in
  let* () =
    if c.duration > c.warmup +. c.cooldown then Ok ()
    else Error "duration must exceed warmup + cooldown"
  in
  Ok ()

(* Canonical field order — the sweep content hash is over exactly this
   rendering, so the order is part of the on-disk contract. *)
let to_json c =
  Json.Obj
    [ ("underlay", Json.Str c.underlay);
      ("servers", Json.Num (float_of_int c.servers));
      ("cores", Json.Num (float_of_int c.cores));
      ("payload", Json.Num (float_of_int c.payload));
      ("rate", Json.Num c.rate);
      ("app", Json.Str c.app);
      ("batch", Json.Num (float_of_int c.batch));
      ("load_brokers", Json.Num (float_of_int c.load_brokers));
      ("brokers", Json.Num (float_of_int c.brokers));
      ("measure_clients", Json.Num (float_of_int c.measure_clients));
      ("duration", Json.Num c.duration);
      ("warmup", Json.Num c.warmup);
      ("cooldown", Json.Num c.cooldown);
      ("dense_clients", Json.Num (float_of_int c.dense_clients));
      ("store", Json.Bool c.store);
      ("checkpoint_every", Json.Num (float_of_int c.checkpoint_every));
      ("seed", Json.Num (Int64.to_float c.seed)) ]

let of_json j =
  match j with
  | Json.Obj fields ->
    let known =
      [ "underlay"; "servers"; "cores"; "payload"; "rate"; "app"; "batch";
        "load_brokers"; "brokers"; "measure_clients"; "duration"; "warmup";
        "cooldown";
        "dense_clients"; "store"; "checkpoint_every"; "seed" ]
    in
    (match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
     | Some (k, _) ->
       Error
         (Printf.sprintf "unknown cell field %S (valid: %s)" k
            (String.concat ", " known))
     | None ->
       let str k d =
         match Json.member k j with
         | Some (Json.Str s) -> Ok s
         | None -> Ok d
         | Some _ -> Error (k ^ " must be a string")
       in
       let int k d =
         match Json.member k j with
         | Some v ->
           (match Json.to_int v with
            | Some i -> Ok i
            | None -> Error (k ^ " must be an integer"))
         | None -> Ok d
       in
       let num k d =
         match Json.member k j with
         | Some v ->
           (match Json.to_float v with
            | Some f -> Ok f
            | None -> Error (k ^ " must be a number"))
         | None -> Ok d
       in
       let bool k d =
         match Json.member k j with
         | Some (Json.Bool b) -> Ok b
         | None -> Ok d
         | Some _ -> Error (k ^ " must be a boolean")
       in
       let ( let* ) = Result.bind in
       let* underlay = str "underlay" default.underlay in
       let* servers = int "servers" default.servers in
       let* cores = int "cores" default.cores in
       let* payload = int "payload" default.payload in
       let* rate = num "rate" default.rate in
       let* app = str "app" default.app in
       let* batch = int "batch" default.batch in
       let* load_brokers = int "load_brokers" default.load_brokers in
       let* brokers = int "brokers" default.brokers in
       let* measure_clients = int "measure_clients" default.measure_clients in
       let* duration = num "duration" default.duration in
       let* warmup = num "warmup" default.warmup in
       let* cooldown = num "cooldown" default.cooldown in
       let* dense_clients = int "dense_clients" default.dense_clients in
       let* store = bool "store" default.store in
       let* checkpoint_every = int "checkpoint_every" default.checkpoint_every in
       let* seed = int "seed" (Int64.to_int default.seed) in
       let c =
         { underlay; servers; cores; payload; rate; app; batch; load_brokers;
           brokers; measure_clients; duration; warmup; cooldown; dense_clients;
           store; checkpoint_every; seed = Int64.of_int seed }
       in
       let* () = validate c in
       Ok c)
  | _ -> Error "cell config must be a JSON object"

let params_of c =
  let underlay =
    match underlay_of_string c.underlay with
    | Some u -> u
    | None -> failwith ("Cell: unknown underlay " ^ c.underlay)
  in
  { Chopchop_run.default with
    n_servers = c.servers;
    cores = c.cores;
    underlay;
    rate = c.rate;
    batch_count = c.batch;
    msg_bytes = c.payload;
    n_load_brokers = c.load_brokers;
    n_brokers = c.brokers;
    measure_clients = c.measure_clients;
    duration = c.duration;
    warmup = c.warmup;
    cooldown = c.cooldown;
    dense_clients = c.dense_clients;
    seed = c.seed;
    store = c.store;
    checkpoint_every = c.checkpoint_every }

type outcome = {
  metrics : (string * float) list;
  info : (string * string) list;
  sim_events : int;
  sim_seconds : float;
  prof : Repro_prof.Prof.report option;
}

type app_driver = {
  ad_apply : Repro_chopchop.Proto.delivery -> int;
  ad_ops : unit -> int;
  ad_digest : unit -> string;
}

let app_driver = function
  | "none" -> None
  | "payments" ->
    let t = Repro_apps.Payments.create () in
    Some
      { ad_apply = Repro_apps.Payments.apply_delivery t;
        ad_ops = (fun () -> Repro_apps.Payments.ops_applied t);
        ad_digest = (fun () -> Repro_apps.Payments.digest t) }
  | "auction" ->
    let t = Repro_apps.Auction.create () in
    Some
      { ad_apply = Repro_apps.Auction.apply_delivery t;
        ad_ops = (fun () -> Repro_apps.Auction.ops_applied t);
        ad_digest = (fun () -> Repro_apps.Auction.digest t) }
  | "pixelwar" ->
    let t = Repro_apps.Pixelwar.create () in
    Some
      { ad_apply = Repro_apps.Pixelwar.apply_delivery t;
        ad_ops = (fun () -> Repro_apps.Pixelwar.ops_applied t);
        ad_digest = (fun () -> Repro_apps.Pixelwar.digest t) }
  | app -> failwith ("Cell: unknown app " ^ app)

let counter counters cat name =
  match List.find_opt (fun (c, n, _) -> c = cat && n = name) counters with
  | Some (_, _, v) -> v
  | None -> 0

let run ?(profile = false) c =
  (match validate c with Ok () -> () | Error e -> failwith ("Cell: " ^ e));
  let driver = app_driver c.app in
  let params =
    match driver with
    | None -> params_of c
    | Some d ->
      { (params_of c) with
        on_delivery = Some (fun srv del -> if srv = 0 then ignore (d.ad_apply del)) }
  in
  let params = { params with Chopchop_run.profile } in
  let result, breakdown, sink = Latency_breakdown.capture ~params () in
  let counters = Trace.Sink.counters sink in
  let e2e = Latency_breakdown.e2e breakdown in
  let decisions = float_of_int (max 1 result.Chopchop_run.decisions) in
  let payload_bytes =
    float_of_int
      (max 1 (result.Chopchop_run.delivered_messages * params.Chopchop_run.msg_bytes))
  in
  let fcounter cat name = float_of_int (counter counters cat name) in
  (* `bench json`'s gated metrics first, with identical derivations —
     a sweep cell at the bench config is bit-identical to `bench json`. *)
  let metrics =
    [ ("throughput_ops", result.Chopchop_run.throughput);
      ("latency_p50_s", Trace.Hist.percentile e2e 0.50);
      ("latency_p99_s", Trace.Hist.percentile e2e 0.99);
      ("sig_verifies_per_decision", fcounter "crypto" "verify_ops" /. decisions);
      ("wire_bytes_per_payload_byte", fcounter "net" "bytes" /. payload_bytes);
      ( "wal_bytes_per_payload_byte",
        float_of_int result.Chopchop_run.wal_bytes /. payload_bytes );
      ( "broker_cpu_busy_s_per_payload_byte",
        result.Chopchop_run.broker_cpu_busy_s /. payload_bytes );
      ("offered_ops", result.Chopchop_run.offered);
      ("latency_mean_s", Trace.Hist.mean result.Chopchop_run.latency);
      ("delivered_messages", float_of_int result.Chopchop_run.delivered_messages);
      ("decisions", float_of_int result.Chopchop_run.decisions);
      ("server_cpu", result.Chopchop_run.server_cpu);
      ("network_rate_bps", result.Chopchop_run.network_rate_bps);
      ("goodput_bps", result.Chopchop_run.goodput_bps);
      ("latency_samples", float_of_int (Trace.Hist.count e2e)) ]
  in
  let metrics, info =
    match driver with
    | None -> (metrics, [])
    | Some d ->
      ( metrics @ [ ("app_ops", float_of_int (d.ad_ops ())) ],
        [ ("app_digest", Repro_crypto.Sha256.to_hex (d.ad_digest ())) ] )
  in
  { metrics;
    info;
    sim_events = counter counters "sim" "steps";
    sim_seconds = params.Chopchop_run.duration +. 15.;
    prof = result.Chopchop_run.prof }
