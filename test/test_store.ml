(* lib/store tests: the simulated disk's cost accounting, WAL/checkpoint
   ordering and truncation, the App_intf snapshot/restore round-trip for
   all four applications, and the full recovery path — a crashed server
   cold-restarts from its WAL/checkpoint, state-transfers the gap from
   live peers, and converges to the exact state of a never-crashed
   replica.  Also the collection unblocking rule: checkpoints let GC
   advance past a crashed peer's stalled counter, and a regression case
   showing it still blocks with checkpointing off. *)

module Engine = Repro_sim.Engine
module Cost = Repro_sim.Cost
module Disk = Repro_store.Disk
module Store = Repro_store.Store
module Deployment = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Client = Repro_chopchop.Client
module Broker = Repro_chopchop.Broker
module Batch = Repro_chopchop.Batch
module Directory = Repro_chopchop.Directory
module Payments = Repro_apps.Payments
module Auction = Repro_apps.Auction
module Pixelwar = Repro_apps.Pixelwar
module Sealed = Repro_apps.Sealed
module Chaos = Repro_chaos.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Disk ------------------------------------------------------------- *)

let test_disk_costs () =
  let engine = Engine.create () in
  let disk = Disk.create engine () in
  let done_at = ref [] in
  Disk.write disk ~bytes:1_200_000 (fun () ->
      done_at := Engine.now engine :: !done_at);
  Disk.write disk ~bytes:0 (fun () ->
      done_at := Engine.now engine :: !done_at);
  Engine.run engine;
  let expect1 = Cost.disk_fsync_s +. (1_200_000. /. Cost.disk_write_bps) in
  (match List.rev !done_at with
   | [ t1; t2 ] ->
     checkb "first write = fsync + bytes/bandwidth" true
       (abs_float (t1 -. expect1) < 1e-9);
     checkb "second write queues behind the first" true
       (abs_float (t2 -. (expect1 +. Cost.disk_fsync_s)) < 1e-9)
   | _ -> Alcotest.fail "expected two write completions");
  checki "bytes accounted" 1_200_000 (Disk.bytes_written disk);
  checki "two fsyncs" 2 (Disk.fsyncs disk);
  checkb "busy time accumulated" true (Disk.busy_seconds disk > 0.)

let test_disk_read () =
  let engine = Engine.create () in
  let disk = Disk.create engine () in
  let finished = ref false in
  Disk.read disk ~bytes:2_400_000 (fun () -> finished := true);
  Engine.run engine;
  checkb "read completes" true !finished;
  checki "bytes read accounted" 2_400_000 (Disk.bytes_read disk);
  checkb "read streams at read bandwidth" true
    (abs_float (Disk.busy_seconds disk -. 1e-3) < 1e-9)

(* --- Store ------------------------------------------------------------ *)

let mk_store () =
  let engine = Engine.create () in
  let s : (string, string) Store.t =
    Store.create ~disk:(Disk.create engine ()) ()
  in
  (engine, s)

let test_store_wal_checkpoint () =
  let engine, s = mk_store () in
  for p = 0 to 9 do
    Store.append s ~position:p ~bytes:10 (Printf.sprintf "r%d" p)
  done;
  checki "10 live records" 10 (Store.wal_records s);
  checki "100 live bytes" 100 (Store.wal_live_bytes s);
  checki "no checkpoint yet" (-1) (Store.checkpoint_position s);
  Store.checkpoint s ~position:6 ~bytes:50 "ck6";
  checki "checkpoint truncates covered prefix" 4 (Store.wal_records s);
  checki "checkpoint position" 6 (Store.checkpoint_position s);
  checki "cumulative bytes keep the truncated prefix" 100
    (Store.wal_bytes_total s);
  Alcotest.(check (list string))
    "records_from 8 ascending" [ "r8"; "r9" ]
    (Store.records_from s ~position:8);
  let got = ref None in
  Store.load s ~k:(fun ck records -> got := Some (ck, records));
  Engine.run engine;
  (match !got with
   | Some (Some ck, records) ->
     checks "latest checkpoint loads" "ck6" ck;
     Alcotest.(check (list string))
       "load replays the live tail oldest-first" [ "r6"; "r7"; "r8"; "r9" ]
       records
   | _ -> Alcotest.fail "load did not complete");
  checkb "load charged a device read" true (Disk.bytes_read (Store.disk s) > 0)

let test_store_load_without_checkpoint () =
  let engine, s = mk_store () in
  Store.append s ~position:0 ~bytes:5 "a";
  Store.append s ~position:1 ~bytes:5 "b";
  let got = ref None in
  Store.load s ~k:(fun ck records -> got := Some (ck, records));
  Engine.run engine;
  match !got with
  | Some (None, [ "a"; "b" ]) -> ()
  | _ -> Alcotest.fail "expected no checkpoint and the full WAL"

(* --- App snapshot/restore round-trips ----------------------------------- *)

let test_payments_roundtrip () =
  let t = Payments.create () in
  for i = 0 to 99 do
    ignore
      (Payments.apply_op t i (Payments.encode_op ~recipient:(i + 1) ~amount:7))
  done;
  let snap = Payments.snapshot t in
  let t' = Payments.create () in
  checkb "fresh state differs" true (Payments.digest t' <> Payments.digest t);
  Payments.restore t' (Some snap);
  checks "digest round-trips" (Payments.digest t) (Payments.digest t');
  checki "ops restored" (Payments.ops_applied t) (Payments.ops_applied t');
  checki "balances restored" (Payments.balance t 1) (Payments.balance t' 1);
  Payments.restore t' None;
  checks "restore None resets to initial"
    (Payments.digest (Payments.create ()))
    (Payments.digest t')

let test_auction_roundtrip () =
  let t = Auction.create () in
  ignore
    (Auction.apply_delivery t
       (Repro_chopchop.Proto.Bulk
          { first_id = 0; count = 5_000; tag = 3; msg_bytes = 8 }));
  let funds = Auction.total_funds t in
  let t' = Auction.create () in
  Auction.restore t' (Some (Auction.snapshot t));
  checks "digest round-trips" (Auction.digest t) (Auction.digest t');
  checki "funds invariant survives restore" funds (Auction.total_funds t');
  checki "token ownership restored" (Auction.owner t 17) (Auction.owner t' 17)

let test_pixelwar_roundtrip () =
  let t = Pixelwar.create ~width:64 ~height:64 () in
  ignore (Pixelwar.apply_op t 0 (Pixelwar.encode_op ~x:3 ~y:4 ~rgb:0xABCDEF));
  ignore (Pixelwar.apply_op t 1 (Pixelwar.encode_op ~x:63 ~y:63 ~rgb:0x123456));
  let t' = Pixelwar.create ~width:64 ~height:64 () in
  Pixelwar.restore t' (Some (Pixelwar.snapshot t));
  checks "digest round-trips" (Pixelwar.digest t) (Pixelwar.digest t');
  checki "pixel restored" 0xABCDEF (Pixelwar.pixel t' ~x:3 ~y:4);
  checki "painted count restored" 2 (Pixelwar.painted t');
  Pixelwar.restore t' None;
  checki "restore None clears the board" (-1) (Pixelwar.pixel t' ~x:3 ~y:4)

let test_sealed_roundtrip () =
  let applied = ref [] in
  let mk () = Sealed.create ~apply:(fun id m -> applied := (id, m) :: !applied) () in
  let t = mk () in
  Sealed.on_deliver t 1 (Sealed.seal ~payload:"trade-1" ~salt:"s1");
  Sealed.on_deliver t 2 (Sealed.seal ~payload:"trade-2" ~salt:"s2");
  Sealed.on_deliver t 2 (Sealed.reveal ~payload:"trade-2" ~salt:"s2");
  (* Seal 1 is still pending, so seal 2's reveal waits behind it. *)
  checki "nothing executed yet" 0 (Sealed.executed t);
  checki "two pending" 2 (Sealed.pending t);
  let t' = mk () in
  Sealed.restore t' (Some (Sealed.snapshot t));
  checks "digest round-trips" (Sealed.digest t) (Sealed.digest t');
  checki "pending restored" 2 (Sealed.pending t');
  (* The restored executor resumes mid-protocol: revealing seal 1
     executes both operations in seal order. *)
  Sealed.on_deliver t' 1 (Sealed.reveal ~payload:"trade-1" ~salt:"s1");
  checki "both executed in order" 2 (Sealed.executed t')

(* --- recovery harness --------------------------------------------------- *)

(* Store-enabled deployment with one Payments replica per server (applied
   through the deliver hook and checkpointed via snapshot/restore), eight
   clients broadcasting three waves. *)
let run_recovery ?(checkpoint_every = 4) ?(t_crash = 15.) ?(t_restart = 35.)
    ?(until = 90.) ?(seed = 42L) () =
  let cfg =
    { Deployment.default_config with
      underlay = Deployment.Sequencer; n_brokers = 2; seed;
      store_enabled = true; checkpoint_every }
  in
  let d = Deployment.create cfg in
  let n = cfg.Deployment.n_servers in
  let apps = Array.init n (fun _ -> Payments.create ()) in
  Deployment.server_deliver_hook d (fun srv del ->
      ignore (Payments.apply_delivery apps.(srv) del));
  Array.iteri
    (fun i app ->
      Deployment.set_server_app d i
        ~snapshot:(fun () -> Payments.snapshot app)
        ~restore:(fun s -> Payments.restore app s))
    apps;
  let clients = Array.init 8 (fun _ -> Deployment.add_client d ()) in
  Array.iter Client.signup clients;
  let engine = Deployment.engine d in
  Array.iteri
    (fun i c ->
      for j = 0 to 2 do
        Engine.schedule_at engine
          ~time:(20. *. float_of_int j)
          (fun () ->
            Client.broadcast c (Payments.encode_op ~recipient:(i + j) ~amount:1))
      done)
    clients;
  let victim = n - 1 in
  Engine.schedule_at engine ~time:t_crash (fun () ->
      Deployment.crash_server d victim);
  Engine.schedule_at engine ~time:t_restart (fun () ->
      Deployment.restart_server d victim);
  Deployment.run d ~until;
  (d, apps, victim)

let test_catch_up_convergence () =
  let d, apps, victim = run_recovery () in
  let servers = Deployment.servers d in
  checkb "victim finished catching up" false
    (Server.catching_up servers.(victim));
  checki "one cold restart" 1 (Server.restarts servers.(victim));
  checki "victim converged to the same delivery counter"
    (Server.delivery_counter servers.(0))
    (Server.delivery_counter servers.(victim));
  checks "victim app digest equals never-crashed replica"
    (Payments.digest apps.(0))
    (Payments.digest apps.(victim));
  checkb "state transfer ran" true
    (Server.sync_rounds servers.(victim) > 0);
  checkb "victim took a checkpoint" true
    (Deployment.server_checkpoints d victim > 0)

let test_wal_replay_determinism () =
  (* No checkpoint is ever taken, so the cold restart replays the entire
     WAL from position 0; the result must still be bit-identical. *)
  let d, apps, victim = run_recovery ~checkpoint_every:1_000_000 () in
  let servers = Deployment.servers d in
  checkb "victim live after pure WAL replay" false
    (Server.catching_up servers.(victim));
  checki "no checkpoints taken" 0 (Deployment.server_checkpoints d victim);
  checks "digest matches after replaying the full WAL"
    (Payments.digest apps.(0))
    (Payments.digest apps.(victim));
  checki "WAL kept every record" (Server.delivery_counter servers.(victim))
    (Deployment.server_wal_records d victim
     - (* signups ride the WAL too *)
     8)

let run_plain ~store ~seed =
  (* Same traffic with the store on or off: absent a crash the two runs
     must be observationally identical (WAL writes are fire-and-forget on
     a device the protocol never waits for). *)
  let cfg =
    { Deployment.default_config with
      underlay = Deployment.Sequencer; n_brokers = 2; seed;
      store_enabled = store; checkpoint_every = 4 }
  in
  let d = Deployment.create cfg in
  let n = cfg.Deployment.n_servers in
  let apps = Array.init n (fun _ -> Payments.create ()) in
  Deployment.server_deliver_hook d (fun srv del ->
      ignore (Payments.apply_delivery apps.(srv) del));
  let clients = Array.init 6 (fun _ -> Deployment.add_client d ()) in
  Array.iter Client.signup clients;
  let engine = Deployment.engine d in
  Array.iteri
    (fun i c ->
      for j = 0 to 1 do
        Engine.schedule_at engine
          ~time:(15. *. float_of_int j)
          (fun () ->
            Client.broadcast c (Payments.encode_op ~recipient:(i + j) ~amount:2))
      done)
    clients;
  Deployment.run d ~until:60.;
  ( Array.map Server.delivery_counter (Deployment.servers d),
    Array.map Payments.digest apps,
    Array.map (fun c -> Client.completed c) clients )

let test_store_on_off_identical () =
  let c_off, dg_off, done_off = run_plain ~store:false ~seed:42L in
  let c_on, dg_on, done_on = run_plain ~store:true ~seed:42L in
  Alcotest.(check (array int)) "delivery counters identical" c_off c_on;
  Alcotest.(check (array string)) "app digests identical" dg_off dg_on;
  Alcotest.(check (array int)) "client completions identical" done_off done_on

(* --- GC unblocking -------------------------------------------------------- *)

let mk_gc_deployment ~store ~checkpoint_every =
  Deployment.create
    { Deployment.default_config with
      underlay = Deployment.Sequencer; dense_clients = 100_000;
      store_enabled = store; checkpoint_every }

let submit_forged d =
  let dir = Server.directory (Deployment.servers d).(0) in
  for k = 0 to 9 do
    let b =
      Batch.forge_dense dir ~broker:0 ~number:k ~first_id:0 ~count:256
        ~msg_bytes:8 ~tag:(k + 1) ~straggler_count:0
    in
    Engine.schedule (Deployment.engine d) ~delay:(0.5 *. float_of_int k)
      (fun () ->
        Broker.submit_prebuilt (Deployment.broker d 0) b
          ~on_complete:(fun _ -> ()))
  done

let test_gc_unblocked_by_checkpoint () =
  (* The crashed server's counter gossip stalls, but once a local
     checkpoint covers the collected prefix the survivors collect anyway:
     the batches are recoverable from disk, not only from memory. *)
  let d = mk_gc_deployment ~store:true ~checkpoint_every:2 in
  Deployment.crash_server d 3;
  submit_forged d;
  Deployment.run d ~until:60.0;
  let sv = (Deployment.servers d).(0) in
  checki "all batches delivered" 10 (Server.delivery_counter sv);
  checkb "survivors collected past the crashed peer" true
    (Server.stored_batches sv <= 2);
  checkb "collections recorded" true (Server.collected_batches sv >= 8)

let test_gc_still_blocked_without_checkpoints () =
  (* Regression: with the store on but checkpointing disabled, the old
     conservative rule applies — a crashed peer blocks collection. *)
  let d = mk_gc_deployment ~store:true ~checkpoint_every:0 in
  Deployment.crash_server d 3;
  submit_forged d;
  Deployment.run d ~until:60.0;
  checkb "survivors hold all batches" true
    (Server.stored_batches (Deployment.servers d).(0) >= 10)

(* One server driven message by message, beside a reference that keeps the
   original collection rule: on every sweep, scan the whole batch table
   and drop each body delivered below the horizon, the horizon being the
   lowest delivery counter among active slots (or the latest checkpoint,
   if higher).  The server pops its victims off a position-ordered queue
   instead; after every step both must agree on what is stored and what
   was collected. *)

module Membership = Repro_chopchop.Membership
module Proto = Repro_chopchop.Proto
module Certs = Repro_chopchop.Certs
module Stob_item = Repro_chopchop.Stob_item
module Multisig = Repro_crypto.Multisig

type gc_reference = {
  table : (string, int * int option ref) Hashtbl.t; (* root -> bytes, position *)
  counters : int array;
  mutable collected : int;
}

let reference_sweep r ~membership ~checkpoint =
  let gossip =
    List.fold_left
      (fun acc s -> min acc r.counters.(s))
      max_int
      (Membership.active_slots membership)
  in
  let horizon = max gossip checkpoint in
  let victims = ref [] in
  Hashtbl.iter
    (fun root (_, pos) ->
      match !pos with
      | Some p when p < horizon -> victims := root :: !victims
      | Some _ | None -> ())
    r.table;
  List.iter
    (fun root ->
      Hashtbl.remove r.table root;
      r.collected <- r.collected + 1)
    !victims

let test_gc_sweep_matches_full_scan () =
  let engine = Engine.create ~seed:9L () in
  let slots = ref 0 in (* the underlay's cursor: slots it has handed up *)
  let capacity = 5 in (* slots 0-3 active, slot 4 a spare *)
  let membership = Membership.create ~capacity ~initial:4 in
  let store = Store.create ~disk:(Disk.create engine ()) () in
  let clients = 1024 in
  let dir = Directory.create ~dense_count:clients () in
  let keys =
    Array.init capacity (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "gc-server-%d" i))
  in
  let sv =
    Server.create ~engine ~cpu:(Repro_sim.Cpu.create engine ())
      ~config:{ Server.self = 0; n = capacity; clients }
      ~store ~checkpoint_every:8 ~stob_cursor:(fun () -> !slots) ~membership
      ~directory:dir
      ~ms_sk:(fst keys.(0))
      ~certs:(Certs.checker ~capacity ~server_ms_pk:(fun i -> snd keys.(i)))
      ~send_broker:(fun ~broker:_ ~bytes:_ _ -> ())
      ~send_server:(fun ~dst:_ ~bytes:_ _ -> ())
      ~stob_broadcast:(fun _ -> ()) ~deliver_app:(fun _ -> ()) ()
  in
  let r =
    { table = Hashtbl.create 16; counters = Array.make capacity 0; collected = 0 }
  in
  let batches =
    Array.init 12 (fun k ->
        Batch.forge_dense dir ~broker:0 ~number:k ~first_id:(16 * k) ~count:16
          ~msg_bytes:8 ~tag:(k + 1) ~straggler_count:0)
  in
  let root k = Batch.identity_root batches.(k) in
  let settle () = Engine.run ~until:(Engine.now engine +. 5.) engine in
  let check step =
    checki (step ^ ": collected_batches") r.collected (Server.collected_batches sv);
    checki (step ^ ": stored_batches") (Hashtbl.length r.table)
      (Server.stored_batches sv);
    checki (step ^ ": stored_bytes")
      (Hashtbl.fold (fun _ (b, _) acc -> acc + b) r.table 0)
      (Server.stored_bytes sv)
  in
  let store_body k =
    if not (Hashtbl.mem r.table (root k)) then
      Hashtbl.add r.table (root k)
        (Batch.wire_bytes ~clients batches.(k), ref None)
  in
  let announce k =
    Server.receive_broker sv ~src_broker:0
      (Proto.Batch_announce { batch = batches.(k); witness_requested = false });
    store_body k
  in
  let fetched k =
    Server.receive_server sv ~src:1 (Proto.Batch_response { batch = batches.(k) });
    store_body k
  in
  let deliver k =
    let statement = Certs.witness_statement ~root:(root k) ~broker:0 ~number:k in
    let witness =
      Certs.assemble
        (List.map (fun i -> (i, Certs.sign_shard (fst keys.(i)) statement)) [ 1; 2 ])
    in
    let position = Server.delivery_counter sv in
    incr slots;
    Server.on_stob_deliver sv
      (Stob_item.Batch_ref { broker = 0; number = k; root = root k; witness });
    settle ();
    checki "delivered in order" (position + 1) (Server.delivery_counter sv);
    snd (Hashtbl.find r.table (root k)) := Some position
  in
  let gossip ~src c =
    Server.receive_server sv ~src (Proto.Gc_status { delivered_counter = c });
    if c > r.counters.(src) then begin
      r.counters.(src) <- c;
      r.counters.(0) <- Server.delivery_counter sv;
      reference_sweep r ~membership ~checkpoint:(Store.checkpoint_position store)
    end
  in
  (* Deliveries: six bodies delivered at positions 0-5, two more stored
     but never ordered. *)
  for k = 0 to 7 do announce k done;
  for k = 0 to 5 do deliver k done;
  check "deliveries";
  (* Gossip: the spare slot's zero counter must not pin the horizon. *)
  gossip ~src:1 3; gossip ~src:2 2; gossip ~src:3 4;
  check "gossip";
  checki "bodies below the slowest active peer collected" 2 r.collected;
  gossip ~src:1 1;
  check "stale counter";
  gossip ~src:4 1;
  check "spare slot gossips";
  gossip ~src:2 5;
  check "gossip advances";
  (* A checkpoint at 8 lifts the horizon past the lagging peers. *)
  for k = 6 to 7 do deliver k done;
  gossip ~src:3 5;
  check "checkpoint jump";
  checki "checkpoint covers every delivered body" 8 r.collected;
  (* A collected body fetched again stays: it has no position. *)
  fetched 0;
  gossip ~src:1 8;
  check "refetch";
  (* Cold restart: only the disk survives; the checkpoint restores the
     counter, no body comes back. *)
  Server.cold_restart sv;
  settle ();
  Hashtbl.reset r.table;
  Array.fill r.counters 0 capacity 0;
  checkb "catching up" true (Server.catching_up sv);
  checki "checkpoint restored" 8 (Server.delivery_counter sv);
  check "cold restart";
  (* Catch-up positions the bodies it replays; a body collected before the
     restart is fetched again.  The peer's underlay handed up slots 1-10,
     refs 0-9. *)
  for k = 8 to 9 do announce k done;
  fetched 2;
  let records =
    List.map
      (fun k ->
        Proto.Wal_batch
          { w_position = k; w_broker = 0; w_number = k; w_root = root k;
            w_ops = Proto.Wal_ops [||] })
      [ 8; 9 ]
  in
  Server.receive_server sv ~src:1
    (Proto.Sync_response
       { position = 10; stob_cursor = 10; backlog = 0; checkpoint = None; records });
  settle ();
  checkb "caught up" false (Server.catching_up sv);
  List.iter (fun k -> snd (Hashtbl.find r.table (root k)) := Some k) [ 8; 9 ];
  check "catch-up";
  gossip ~src:1 10; gossip ~src:2 10; gossip ~src:3 10;
  check "gossip after restart";
  checki "replayed bodies collected" 10 r.collected

(* --- ref windows: bounded dedup state ------------------------------------ *)

(* One server of a 4-server committee whose STOB loops straight back into
   it: every relayed ref is ordered 1 ms later, in relay order.  The
   underlay's cursor counts the slots handed up, as every underlay's does:
   a ref's slot is [n] when the cursor reads [n] at its delivery. *)
type solo = {
  s_engine : Engine.t;
  s_sv : Server.t;
  s_store : (Proto.checkpoint, Proto.wal_record) Store.t;
  s_dir : Directory.t;
  s_keys : (Multisig.secret_key * Multisig.public_key) array;
  s_relays : int ref; (* refs the server pushed into its STOB *)
  s_tags : int list ref; (* tags of the dense ranges delivered, newest first *)
  s_slots : int ref; (* the underlay's cursor *)
  s_sent : Proto.server_to_server list ref; (* to its peers, newest first *)
}

(* Hand [item] up from the underlay's next slot. *)
let stob_deliver s item =
  incr s.s_slots;
  Server.on_stob_deliver s.s_sv item

let solo ?(checkpoint_every = 16) () =
  let engine = Engine.create ~seed:11L () in
  let store = Store.create ~disk:(Disk.create engine ()) () in
  let clients = 1024 in
  let dir = Directory.create ~dense_count:clients () in
  let keys =
    Array.init 4 (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "solo-server-%d" i))
  in
  let relays = ref 0 and tags = ref [] and slots = ref 0 and sent = ref [] in
  let self = ref None in
  let sv =
    Server.create ~engine ~cpu:(Repro_sim.Cpu.create engine ())
      ~config:{ Server.self = 0; n = 4; clients }
      ~store ~checkpoint_every ~stob_cursor:(fun () -> !slots) ~directory:dir
      ~ms_sk:(fst keys.(0))
      ~certs:(Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)))
      ~send_broker:(fun ~broker:_ ~bytes:_ _ -> ())
      ~send_server:(fun ~dst:_ ~bytes:_ msg -> sent := msg :: !sent)
      ~stob_broadcast:(fun item ->
        incr relays;
        Engine.schedule engine ~delay:0.001 (fun () ->
            Option.iter (fun s -> stob_deliver s item) !self))
      ~deliver_app:(function
        | Proto.Bulk { tag; _ } -> tags := tag :: !tags
        | Proto.Ops _ -> ())
      ()
  in
  let s =
    { s_engine = engine; s_sv = sv; s_store = store; s_dir = dir; s_keys = keys;
      s_relays = relays; s_tags = tags; s_slots = slots; s_sent = sent }
  in
  self := Some s;
  s

let settle s = Engine.run ~until:(Engine.now s.s_engine +. 1.) s.s_engine

(* Broker [broker]'s batch [number]: a 16-client dense range of its own,
   fresh for every [number]. *)
let solo_forge s ~broker ~number =
  Batch.forge_dense s.s_dir ~broker ~number ~first_id:(16 * broker) ~count:16
    ~msg_bytes:8 ~tag:(number + 1) ~straggler_count:0

(* Announce it to the server; its root. *)
let solo_batch s ~broker ~number =
  let batch = solo_forge s ~broker ~number in
  Server.receive_broker s.s_sv ~src_broker:broker
    (Proto.Batch_announce { batch; witness_requested = false });
  Batch.identity_root batch

let solo_witness s ~root ~broker ~number =
  let statement = Certs.witness_statement ~root ~broker ~number in
  Certs.assemble
    (List.map (fun i -> (i, Certs.sign_shard (fst s.s_keys.(i)) statement)) [ 1; 2 ])

let forged_witness () =
  Certs.assemble [ (1, Multisig.forge_garbage ()); (2, Multisig.forge_garbage ()) ]

let solo_ref s ~root ~broker ~number =
  Stob_item.Batch_ref
    { broker; number; root; witness = solo_witness s ~root ~broker ~number }

(* Order broker [broker]'s batch [number] under a valid witness. *)
let solo_order s ~broker ~number =
  let root = solo_batch s ~broker ~number in
  stob_deliver s (solo_ref s ~root ~broker ~number)

(* [peer]'s answer to a catch-up request from delivery position [from]. *)
let sync_from peer ~from =
  Server.receive_server peer.s_sv ~src:3 (Proto.Sync_request { from_position = from });
  settle peer;
  match
    List.find_opt
      (function Proto.Sync_response _ -> true | _ -> false)
      !(peer.s_sent)
  with
  | Some r -> r
  | None -> Alcotest.fail "the peer sent no Sync_response"

let gossip s =
  let c = Server.delivery_counter s.s_sv in
  for src = 1 to 3 do
    Server.receive_server s.s_sv ~src (Proto.Gc_status { delivered_counter = c })
  done

(* One broker whose number 3 is never ordered (a flight its crash left
   behind): the mark slides past the hole once the window is spanned, so
   neither the server's heap nor its checkpoints grow with the batches it
   delivers. *)
let test_ref_state_flat () =
  let s = solo () in
  let next = ref 0 in
  let deliver_upto n =
    while Server.delivery_counter s.s_sv < n do
      for _ = 1 to 100 do
        if !next = 3 then incr next;
        solo_order s ~broker:0 ~number:!next;
        incr next
      done;
      settle s;
      gossip s;
      s.s_tags := []
    done;
    checki "delivered" n (Server.delivery_counter s.s_sv);
    checki "checkpoint at the last delivery" n (Store.checkpoint_position s.s_store);
    checki "engine drained" 0 (Engine.pending s.s_engine);
    (* Net of the engine: its size follows the depth of its queue, not
       server state, and with nothing pending it reaches no server. *)
    ( Obj.reachable_words (Obj.repr s.s_sv)
      - Obj.reachable_words (Obj.repr s.s_engine),
      Store.last_checkpoint_bytes s.s_store )
  in
  let words_10k, ck_10k = deliver_upto 10_000 in
  let words_100k, ck_100k = deliver_upto 100_000 in
  (match Server.ref_windows s.s_sv with
   | [ (0, low, []) ] -> checki "mark past the hole" 100_001 low
   | _ -> Alcotest.fail "expected one window, empty above its mark");
  checki "checkpoint bytes: 100k deliveries cost what 10k do" ck_10k ck_100k;
  checki "server words: 100k deliveries cost what 10k do" words_10k words_100k

(* A fixed bound on the ref state, whatever a Byzantine broker sends: two
   brokers' windows, each spanning fewer than [ref_window] numbers. *)
let ref_state_bound = 2 * 8 * Server.ref_window

(* Case (a): a broker's verified refs jump 0, 1, 2^20, 2^40; forged
   ordered refs, near and far, change nothing; an honest broker alongside
   delivers every batch. *)
let test_byzantine_ref_jumps () =
  let s = solo () in
  let honest = ref 0 in
  let order_honest () =
    solo_order s ~broker:0 ~number:!honest;
    incr honest
  in
  List.iter
    (fun number ->
      order_honest ();
      solo_order s ~broker:1 ~number;
      settle s)
    [ 0; 1; 1 lsl 20; 1 lsl 40 ];
  let w = Server.ref_window in
  (match Server.ref_windows s.s_sv with
   | [ (0, 4, []); (1, low, [ top ]) ] ->
     checki "slid to n - W + 1" ((1 lsl 40) - w + 1) low;
     checki "top ref kept" (1 lsl 40) top
   | _ -> Alcotest.fail "unexpected windows after the jumps");
  let windows = Server.ref_windows s.s_sv in
  let delivered = Server.delivery_counter s.s_sv in
  checki "every verified ref delivered" 8 delivered;
  List.iter
    (fun (broker, number) ->
      let root = solo_batch s ~broker ~number in
      stob_deliver s
        (Stob_item.Batch_ref { broker; number; root; witness = forged_witness () });
      settle s)
    [ (0, !honest); (0, !honest + (4 * w)); (0, 1 lsl 50); (1, (1 lsl 40) + 1) ];
  checkb "forged refs leave the windows alone" true
    (windows = Server.ref_windows s.s_sv);
  checki "forged refs deliver nothing" delivered (Server.delivery_counter s.s_sv);
  for _ = 1 to 20 do order_honest () done;
  settle s;
  checki "the honest broker's next numbers still deliver" (delivered + 20)
    (Server.delivery_counter s.s_sv);
  checkb "ref state bounded" true (Server.ref_state_words s.s_sv < ref_state_bound)

(* Case (b): a broker floods Submits with garbage witnesses at rising
   numbers with gaps (so its relay mark cannot simply advance); none is
   relayed, its relay window slides instead of growing, and an honest
   broker's Submits in between all relay and deliver.  The witness checks
   take the brokers in turn, so each honest ref is relayed within the
   settle that follows it, not behind the flood's backlog. *)
let test_byzantine_submit_flood () =
  let s = solo () in
  let honest = ref 0 and late = ref 0 in
  for k = 0 to 10 * Server.ref_window do
    Server.receive_broker s.s_sv ~src_broker:1
      (Proto.Submit
         { root = Printf.sprintf "forged-%d" k; number = (3 * k) + 1;
           witness = forged_witness () });
    if k mod 400 = 0 then begin
      let number = !honest in
      let root = solo_batch s ~broker:0 ~number in
      Server.receive_broker s.s_sv ~src_broker:0
        (Proto.Submit { root; number; witness = solo_witness s ~root ~broker:0 ~number });
      incr honest;
      settle s;
      if !(s.s_relays) < !honest then incr late
    end
  done;
  checki "honest refs relayed after their settle" 0 !late;
  (* Every forged witness still costs a pairing: drain the CPU backlog. *)
  Engine.run s.s_engine;
  checki "only the honest refs relayed" !honest !(s.s_relays);
  checki "every honest batch delivered" !honest (Server.delivery_counter s.s_sv);
  checkb "ref state bounded" true (Server.ref_state_words s.s_sv < ref_state_bound)

(* Refs ordered live while a restarted server catches up, and applied by
   the state transfer, leave the order queue when catch-up ends: each
   batch is delivered once, and the first live ref behind them delivers
   next.  Refs 0-3 took slots 1-4, live refs 4-6 take slots 5-7, and the
   peer answers after slot 6. *)
let test_catch_up_drops_applied_refs () =
  let s = solo () in
  for number = 0 to 3 do solo_order s ~broker:0 ~number done;
  settle s;
  Server.cold_restart s.s_sv;
  settle s;
  checkb "catching up" true (Server.catching_up s.s_sv);
  checki "WAL replayed" 4 (Server.delivery_counter s.s_sv);
  (* Live refs 4-6 arrive while the gap is filled, their bodies not yet
     here. *)
  let roots =
    Array.init 7 (fun number -> Batch.identity_root (solo_forge s ~broker:0 ~number))
  in
  for number = 4 to 6 do
    stob_deliver s (solo_ref s ~root:roots.(number) ~broker:0 ~number)
  done;
  settle s;
  checki "queued, not delivered" 3 (Server.order_queue_depth s.s_sv);
  let records =
    List.map
      (fun number ->
        Proto.Wal_batch
          { w_position = number; w_broker = 0; w_number = number;
            w_root = roots.(number); w_ops = Proto.Wal_ops [||] })
      [ 4; 5 ]
  in
  Server.receive_server s.s_sv ~src:1
    (Proto.Sync_response
       { position = 6; stob_cursor = 6; backlog = 0; checkpoint = None; records });
  checkb "caught up" false (Server.catching_up s.s_sv);
  checki "applied refs dropped" 1 (Server.order_queue_depth s.s_sv);
  s.s_tags := [];
  (* The peers answer every fetch. *)
  for number = 4 to 6 do
    Server.receive_server s.s_sv ~src:1
      (Proto.Batch_response { batch = solo_forge s ~broker:0 ~number });
    settle s
  done;
  checki "delivered once each" 7 (Server.delivery_counter s.s_sv);
  checkb "only the live ref delivered" true (!(s.s_tags) = [ 7 ]);
  checkb "window covers 0-6" true (Server.ref_windows s.s_sv = [ (0, 7, []) ])

(* The peers ordered ref [4 + W] at slot 5, before live ref 4 at slot 6 —
   this server had ordered it too but crashed before delivering it, so its
   WAL lacks it — and so their window had slid past 4 and they dropped 4
   as a duplicate.  This server, its window stale, holds 4 during
   catch-up; a peer past slot 6 transfers the record of [4 + W], and 4
   must be dropped as well. *)
let test_catch_up_drops_slid_refs () =
  let s = solo () in
  for number = 0 to 3 do solo_order s ~broker:0 ~number done;
  settle s;
  incr s.s_slots; (* slot 5: ref [4 + W], ordered but lost in the crash *)
  Server.cold_restart s.s_sv;
  settle s;
  s.s_tags := [];
  solo_order s ~broker:0 ~number:4;
  settle s;
  checki "queued, not delivered" 1 (Server.order_queue_depth s.s_sv);
  let far = 4 + Server.ref_window in
  let far_root = Batch.identity_root (solo_forge s ~broker:0 ~number:far) in
  Server.receive_server s.s_sv ~src:1
    (Proto.Sync_response
       { position = 5; stob_cursor = 6; backlog = 0; checkpoint = None;
         records =
           [ Proto.Wal_batch
               { w_position = 4; w_broker = 0; w_number = far; w_root = far_root;
                 w_ops = Proto.Wal_ops [||] } ] });
  settle s;
  checkb "caught up" false (Server.catching_up s.s_sv);
  checki "slid-past ref dropped" 0 (Server.order_queue_depth s.s_sv);
  checki "delivered only the transfer" 5 (Server.delivery_counter s.s_sv);
  checkb "ref 4 never delivered" true (!(s.s_tags) = []);
  checkb "window as at the peers" true
    (Server.ref_windows s.s_sv = [ (0, 5, [ far ]) ])

(* A restarted server [s] and a never-crashed replica see the same slots.
   Refs 0-3 take slots 1-4; [s] restarts and holds every ref from slot 5
   on while it catches up from the replica, which answers after slot 6.
   Slots 5-6 (ref 4, and ref [5 + W], whose slide passes 5) are covered:
   the transfer applies them.  Slots 7-10 are not, and meet the dedup as
   they did at the replica: ref 5 (the transferred slide passed it),
   broker 1's batch 100 twice (an equivocation), and ref 6. *)
let test_catch_up_by_stob_position () =
  let peer = solo () and s = solo () in
  let both f = f peer; f s in
  for number = 0 to 3 do both (fun x -> solo_order x ~broker:0 ~number) done;
  both settle;
  Server.cold_restart s.s_sv;
  settle s;
  both (fun x -> x.s_tags := []);
  let far = 5 + Server.ref_window in
  both (fun x -> solo_order x ~broker:0 ~number:4);
  both (fun x -> solo_order x ~broker:0 ~number:far);
  settle peer;
  let response = sync_from peer ~from:4 in
  both (fun x -> solo_order x ~broker:0 ~number:5);
  both (fun x -> solo_order x ~broker:1 ~number:100);
  both (fun x ->
      let second =
        Batch.forge_dense x.s_dir ~broker:1 ~number:100 ~first_id:512 ~count:16
          ~msg_bytes:8 ~tag:999 ~straggler_count:0
      in
      Server.receive_broker x.s_sv ~src_broker:1
        (Proto.Batch_announce { batch = second; witness_requested = false });
      stob_deliver x
        (solo_ref x ~root:(Batch.identity_root second) ~broker:1 ~number:100));
  both (fun x -> solo_order x ~broker:0 ~number:6);
  both settle;
  checki "held, not delivered" 6 (Server.order_queue_depth s.s_sv);
  checki "the replica delivered 4, W + 5, batch 100 and 6" 8
    (Server.delivery_counter peer.s_sv);
  Server.receive_server s.s_sv ~src:1 response;
  settle s;
  checkb "caught up" false (Server.catching_up s.s_sv);
  checki "nothing left queued" 0 (Server.order_queue_depth s.s_sv);
  checki "same deliveries" (Server.delivery_counter peer.s_sv)
    (Server.delivery_counter s.s_sv);
  Alcotest.(check (list int)) "each batch once, in the replica's order"
    !(peer.s_tags) !(s.s_tags);
  checkb "windows as at the replica" true
    (Server.ref_windows peer.s_sv = Server.ref_windows s.s_sv)

(* The refetch re-sync: a live server whose next body every peer has
   collected re-enters catch-up with refs still queued.  Ref 4 (slot 5)
   lacks its body at [s]; ref 5 (slot 6) queues behind it, and ref 6
   (slot 7) is held.  The peer answers after slot 5 with its checkpoint
   at position 5: ref 4 is covered; ref 5, queued before catch-up, keeps
   its slot over the checkpoint's windows, and ref 6 passes the dedup. *)
let test_refetch_resync_keeps_later_refs () =
  let peer = solo ~checkpoint_every:5 () and s = solo () in
  let both f = f peer; f s in
  for number = 0 to 3 do both (fun x -> solo_order x ~broker:0 ~number) done;
  both settle;
  both (fun x -> x.s_tags := []);
  solo_order peer ~broker:0 ~number:4;
  let root = Batch.identity_root (solo_forge s ~broker:0 ~number:4) in
  stob_deliver s (solo_ref s ~root ~broker:0 ~number:4);
  settle peer;
  let response = sync_from peer ~from:4 in
  both (fun x -> solo_order x ~broker:0 ~number:5);
  (* Three fetch rounds for ref 4's body go unanswered. *)
  Engine.run ~until:(Engine.now s.s_engine +. 4.) s.s_engine;
  checkb "re-syncing" true (Server.catching_up s.s_sv);
  both (fun x -> solo_order x ~broker:0 ~number:6);
  both settle;
  checki "two queued, one held" 3 (Server.order_queue_depth s.s_sv);
  Server.receive_server s.s_sv ~src:1 response;
  settle s;
  checkb "caught up" false (Server.catching_up s.s_sv);
  checkb "installed the peer's checkpoint" true
    (Server.catch_up_checkpoint s.s_sv);
  checki "same deliveries" (Server.delivery_counter peer.s_sv)
    (Server.delivery_counter s.s_sv);
  Alcotest.(check (list int)) "refs 5 and 6 delivered once each" [ 7; 6 ]
    !(s.s_tags);
  Alcotest.(check (list int)) "the replica delivered 4, 5 and 6" [ 7; 6; 5 ]
    !(peer.s_tags);
  checkb "windows as at the replica" true
    (Server.ref_windows peer.s_sv = Server.ref_windows s.s_sv)

(* [s] takes slot 5 (ref 4, its body not here yet) and restarts: ref 4
   dies with its memory.  A peer short of slot 5 cannot bring it back, nor
   can [other], which lost ref 4 the same way and is catching up itself:
   their answers do not end catch-up.  A caught-up peer past slot 5 does,
   and ref 5 (slot 6) then delivers at the replica's position. *)
let test_catch_up_waits_past_restart () =
  let peer = solo () and other = solo () and s = solo () in
  let both f = f peer; f s in
  for number = 0 to 3 do both (fun x -> solo_order x ~broker:0 ~number) done;
  for number = 0 to 3 do solo_order other ~broker:0 ~number done;
  both settle;
  List.iter
    (fun x ->
      settle x;
      let root = Batch.identity_root (solo_forge x ~broker:0 ~number:4) in
      stob_deliver x (solo_ref x ~root ~broker:0 ~number:4);
      settle x;
      Server.cold_restart x.s_sv;
      settle x)
    [ other; s ];
  both (fun x -> x.s_tags := []);
  Server.receive_server s.s_sv ~src:1 (sync_from peer ~from:4);
  settle s;
  checkb "a peer short of slot 5 leaves it catching up" true
    (Server.catching_up s.s_sv);
  Server.receive_server s.s_sv ~src:2 (sync_from other ~from:4);
  settle s;
  checkb "so does a peer catching up itself" true (Server.catching_up s.s_sv);
  solo_order peer ~broker:0 ~number:4;
  settle peer;
  Server.receive_server s.s_sv ~src:1 (sync_from peer ~from:4);
  settle s;
  checkb "caught up" false (Server.catching_up s.s_sv);
  both (fun x -> solo_order x ~broker:0 ~number:5);
  both settle;
  checki "same deliveries" (Server.delivery_counter peer.s_sv)
    (Server.delivery_counter s.s_sv);
  Alcotest.(check (list int)) "refs 4 and 5, in the replica's order" [ 6; 5 ]
    !(s.s_tags);
  checkb "windows as at the replica" true
    (Server.ref_windows peer.s_sv = Server.ref_windows s.s_sv)

(* Two verified refs claim one (broker, number) slot — an equivocating
   broker's two batches, both witnessed: the first ordered is delivered,
   the second is dropped and never delivered. *)
let test_second_ref_for_a_slot_dropped () =
  let s = solo () in
  solo_order s ~broker:0 ~number:0;
  let other =
    Batch.forge_dense s.s_dir ~broker:0 ~number:0 ~first_id:512 ~count:16
      ~msg_bytes:8 ~tag:99 ~straggler_count:0
  in
  Server.receive_broker s.s_sv ~src_broker:0
    (Proto.Batch_announce { batch = other; witness_requested = false });
  stob_deliver s
    (solo_ref s ~root:(Batch.identity_root other) ~broker:0 ~number:0);
  settle s;
  checki "one delivery" 1 (Server.delivery_counter s.s_sv);
  checkb "only the first batch" true (!(s.s_tags) = [ 1 ]);
  checki "nothing left queued" 0 (Server.order_queue_depth s.s_sv)

(* A cold restart needs durable state: without a store it refuses. *)
let test_restart_without_store_raises () =
  let d =
    Deployment.create
      { Deployment.default_config with underlay = Deployment.Sequencer }
  in
  Deployment.crash_server d 3;
  match Deployment.restart_server d 3 with
  | () -> Alcotest.fail "a store-less cold restart returned"
  | exception Invalid_argument _ -> ()

(* --- chaos integration ---------------------------------------------------- *)

(* A cold-restart scenario's verdict includes its post-run checks: the
   restarted replica's app digest and per-broker ref windows equal a
   never-crashed peer's. *)
let test_chaos_restart name () =
  match Chaos.find name with
  | None -> Alcotest.failf "scenario %s not registered" name
  | Some s ->
    let v = s.Chaos.sc_run ~seed:7L ~scale:Chaos.Quick () in
    if not v.Chaos.v_pass then
      Alcotest.failf "%s failed: %s" name
        (String.concat "; " v.Chaos.v_violations);
    checki "all broadcasts completed" v.Chaos.v_expected v.Chaos.v_completed

let () =
  Alcotest.run "store"
    [ ("disk",
       [ Alcotest.test_case "write costs and queueing" `Quick test_disk_costs;
         Alcotest.test_case "read costs" `Quick test_disk_read ]);
      ("store",
       [ Alcotest.test_case "wal + checkpoint + load" `Quick
           test_store_wal_checkpoint;
         Alcotest.test_case "load without checkpoint" `Quick
           test_store_load_without_checkpoint ]);
      ("snapshots",
       [ Alcotest.test_case "payments round-trip" `Quick test_payments_roundtrip;
         Alcotest.test_case "auction round-trip" `Quick test_auction_roundtrip;
         Alcotest.test_case "pixelwar round-trip" `Quick test_pixelwar_roundtrip;
         Alcotest.test_case "sealed round-trip" `Quick test_sealed_roundtrip ]);
      ("recovery",
       [ Alcotest.test_case "crash -> cold restart -> convergence" `Quick
           test_catch_up_convergence;
         Alcotest.test_case "full WAL replay determinism" `Quick
           test_wal_replay_determinism;
         Alcotest.test_case "store on/off bit-identical without crashes"
           `Quick test_store_on_off_identical;
         Alcotest.test_case "cold restart without a store raises" `Quick
           test_restart_without_store_raises ]);
      ("gc",
       [ Alcotest.test_case "checkpoint unblocks collection" `Quick
           test_gc_unblocked_by_checkpoint;
         Alcotest.test_case "blocked without checkpoints (regression)" `Quick
           test_gc_still_blocked_without_checkpoints;
         Alcotest.test_case "sweep matches the full-table scan" `Quick
           test_gc_sweep_matches_full_scan ]);
      ("windows",
       [ Alcotest.test_case "server state flat past a permanent hole" `Quick
           test_ref_state_flat;
         Alcotest.test_case "byzantine ref jumps and forged witnesses" `Quick
           test_byzantine_ref_jumps;
         Alcotest.test_case "byzantine garbage-witness submit flood" `Quick
           test_byzantine_submit_flood;
         Alcotest.test_case "catch-up drops the refs it applied" `Quick
           test_catch_up_drops_applied_refs;
         Alcotest.test_case "catch-up drops refs a slide passed" `Quick
           test_catch_up_drops_slid_refs;
         Alcotest.test_case "catch-up judges held refs by STOB position" `Quick
           test_catch_up_by_stob_position;
         Alcotest.test_case "refetch re-sync keeps refs past the peer" `Quick
           test_refetch_resync_keeps_later_refs;
         Alcotest.test_case "catch-up waits for a peer past the restart" `Quick
           test_catch_up_waits_past_restart;
         Alcotest.test_case "second ref for a slot dropped" `Quick
           test_second_ref_for_a_slot_dropped ]);
      ("chaos",
       [ Alcotest.test_case "crash-cold-restart scenario passes" `Quick
           (test_chaos_restart "crash-cold-restart");
         Alcotest.test_case "lagging-restart scenario passes" `Quick
           (test_chaos_restart "lagging-restart") ]) ]
