(* The raw readings of one run, as (name, value) fields: what main.exe
   prints and run.py aggregates. *)

module D = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Broker = Repro_chopchop.Broker

let json_of_fields fields =
  let value = function
    | `F f when Float.is_finite f -> Printf.sprintf "%.17g" f
    | `F _ -> "null"
    | `I i -> string_of_int i
    | `B b -> string_of_bool b
    | `S s -> Printf.sprintf "%S" s
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) fields)
  ^ "}"

let per_msg x (r : Workload.result) =
  `F (x /. float_of_int (max 1 (Server.delivered_messages (D.servers r.env.d).(0))))

(* Brokers that distilled client traffic (load brokers submit prebuilt
   batches and launch nothing). *)
let distillation_ratio env =
  let lbs = List.map Repro_workload.Load_broker.broker_id env.Workload.load_brokers in
  let ratios =
    List.filter_map
      (fun b ->
        let br = D.broker env.d b in
        if List.mem b lbs || Broker.batches_completed br = 0 then None
        else Some (Broker.distillation_ratio br))
      (List.init (D.n_brokers env.d) Fun.id)
  in
  match ratios with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)

let ledger_fields (r : Workload.result) ledger =
  let open Ledger in
  let env = r.env in
  let counter = Workload.counter env in
  let sv0 = (D.servers env.d).(0) in
  let layer l =
    [ (layer_name l ^ ".self_s", `F (self_s ledger l));
      (layer_name l ^ ".events", `I (events ledger l));
      (layer_name l ^ ".minor_words_per_msg", per_msg (minor_words ledger l) r) ]
  in
  let rudp_events = events ledger Rudp in
  List.concat_map layer layers
  @ [ ("traced_wall_s", `F r.wall_s);
      ("sim.dispatch_s", `F (r.wall_s -. handler_s ledger));
      ("sim.queue_depth_max", `I (Repro_sim.Engine.max_pending (D.engine env.d)));
      ("sim.events_per_msg", per_msg (float_of_int r.outcome.sim_events) r);
      ("net.msgs_per_msg", per_msg (float_of_int r.outcome.net_msgs) r);
      ("net.bytes_per_msg", per_msg (float_of_int (counter "net" "bytes")) r);
      ("server.event_p50_us", `F (event_us ledger Server 0.5));
      ("server.event_p99_us", `F (event_us ledger Server 0.99));
      ("server.msgs_per_batch",
       `F
         (float_of_int (Server.delivered_messages sv0)
          /. float_of_int (max 1 (Server.delivery_counter sv0))));
      ("broker.event_p99_us", `F (event_us ledger Broker 0.99));
      ("broker.distillation_ratio", `F (distillation_ratio env));
      ("rudp.timer_events_per_msg", per_msg (float_of_int rudp_events) r);
      ("rudp.retx_useful_share",
       `F
         (if rudp_events = 0 then 0.
          else
            float_of_int (counter "rudp" "retransmissions")
            /. float_of_int rudp_events));
      ("store.wal_bytes_per_msg", per_msg (float_of_int (D.server_wal_bytes env.d 0)) r);
      ("crypto.verify_ops_per_msg", per_msg (float_of_int (counter "crypto" "verify_ops")) r) ]

let kernel_shape (env : Workload.env) =
  let i = env.inputs in
  match i.workload with
  | Workload.Dense_pbft64 ->
    let p = Workload.dense_params i.size in
    { Kernels.batch = p.d_batch; servers = p.d_servers; first_id = i.first_id;
      kind = `Dense }
  | Workload.Classic_fleet ->
    let p = Workload.fleet_params i.size in
    { Kernels.batch = p.f_batch; servers = p.f_servers; first_id = i.first_id;
      kind = `Classic }
  | Workload.Distill_clients ->
    let p = Workload.distill_params i.size in
    (* One broker's share of the clients (the paper's six brokers). *)
    { Kernels.batch = (p.c_clients + 5) / 6; servers = p.c_servers;
      first_id = i.first_id; kind = `Reduced }

let run_fields (r : Workload.result) =
  let o = r.outcome in
  [ ("correct", `B (Workload.correct r));
    ("agree", `B r.agree);
    ("duplicates", `I r.duplicates);
    ("submitted", `I r.submitted);
    ("delivered_min", `I r.delivered_min);
    ("wall_s", `F r.wall_s);
    ("delivered0", `I (Server.delivered_messages (D.servers r.env.d).(0)));
    ("peak_heap_mb",
     `F (float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1e6));
    ("gc.minor_words_per_msg", per_msg r.gc_minor_words r);
    ("gc.promoted_words_per_msg", per_msg r.gc_promoted_words r);
    ("gc.major_collections", `I r.gc_major_collections);
    ("outcome.tput_ops", `F o.tput_ops);
    ("outcome.lat_p50_s", `F o.lat_p50_s);
    ("outcome.lat_p99_s", `F o.lat_p99_s);
    ("outcome.decisions", `I o.decisions);
    ("sim.events", `I o.sim_events);
    ("net.msgs", `I o.net_msgs) ]

(* Live heap the clients add, from a second set-up bracketed by full
   collections after the traced run, so the run itself starts like an
   untraced one.  Dense keypairs are already cached by then, so their few
   words per client are not counted. *)
let client_heap_kb inputs =
  let env, _ = Workload.setup ~measure_heap:true inputs in
  if env.clients = 0 then 0.
  else
    env.client_heap_words *. float_of_int (Sys.word_size / 8)
    /. 1024. /. float_of_int env.clients

(* Set up and run one workload; with [traced] the ledger is attached for
   the run and the crypto kernels are timed after it. *)
let measure ?(traced = false) workload size ~seed =
  let inputs = Workload.inputs workload size ~seed in
  let env, setup_s = Workload.setup inputs in
  let ledger = ref None in
  let r =
    Workload.run env ~before_run:(fun env ->
        if traced then ledger := Some (Ledger.attach (D.engine env.d)))
  in
  Option.iter Ledger.detach !ledger;
  let traced_fields =
    match !ledger with
    | None -> []
    | Some l ->
      ledger_fields r l
      @ [ ("client.heap_kb_per_client", `F (client_heap_kb inputs)) ]
      @ List.map (fun (k, v) -> (k, `F v)) (Kernels.measure (kernel_shape env))
  in
  (("setup_s", `F setup_s) :: run_fields r) @ traced_fields
