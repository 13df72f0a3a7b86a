module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Deployment = Repro_chopchop.Deployment
module Client = Repro_chopchop.Client
module Server = Repro_chopchop.Server
module Broker = Repro_chopchop.Broker
module Proto = Repro_chopchop.Proto
module Payments = Repro_apps.Payments
module Rng = Repro_sim.Rng
module Generators = Repro_workload.Generators
module Spam = Repro_workload.Spam
module Doctor = Repro_prof.Doctor

(* --- fault schedule ------------------------------------------------------- *)

type event =
  | Crash_server of int
  | Recover_server of int
  | Restart_server of int
  | Join_server of int
  | Leave_server of int
  | Replace_server of int
  | Crash_broker of int
  | Recover_broker of int
  | Crash_client of int
  | Partition of int list list
  | Heal
  | Set_link_loss of int * int * float
  | Degrade_link of int * int * float
  | Byz_broker_equivocate of int
  | Byz_broker_garble of int
  | Byz_broker_malform of int
  | Byz_broker_withhold of int
  | Byz_server_bad_shares of int
  | Byz_server_refuse_witness of int
  | Byz_client_bad_share of int
  | Byz_client_mute of int

type schedule = (float * event) list

let describe = function
  | Crash_server i -> Printf.sprintf "crash-server %d" i
  | Recover_server i -> Printf.sprintf "recover-server %d" i
  | Restart_server i -> Printf.sprintf "restart-server %d (cold)" i
  | Join_server i -> Printf.sprintf "join-server %d (ordered)" i
  | Leave_server i -> Printf.sprintf "leave-server %d (ordered)" i
  | Replace_server i -> Printf.sprintf "replace-server %d (fresh identity)" i
  | Crash_broker i -> Printf.sprintf "crash-broker %d" i
  | Recover_broker i -> Printf.sprintf "recover-broker %d" i
  | Crash_client i -> Printf.sprintf "crash-client %d" i
  | Partition groups ->
    Printf.sprintf "partition %s"
      (String.concat "|"
         (List.map
            (fun g -> String.concat "," (List.map string_of_int g))
            groups))
  | Heal -> "heal"
  | Set_link_loss (s, d, p) -> Printf.sprintf "link-loss %d->%d %.2f" s d p
  | Degrade_link (s, d, l) -> Printf.sprintf "degrade %d->%d +%.3fs" s d l
  | Byz_broker_equivocate i -> Printf.sprintf "byz-broker-equivocate %d" i
  | Byz_broker_garble i -> Printf.sprintf "byz-broker-garble %d" i
  | Byz_broker_malform i -> Printf.sprintf "byz-broker-malform %d" i
  | Byz_broker_withhold i -> Printf.sprintf "byz-broker-withhold %d" i
  | Byz_server_bad_shares i -> Printf.sprintf "byz-server-bad-shares %d" i
  | Byz_server_refuse_witness i -> Printf.sprintf "byz-server-refuse-witness %d" i
  | Byz_client_bad_share i -> Printf.sprintf "byz-client-bad-share %d" i
  | Byz_client_mute i -> Printf.sprintf "byz-client-mute %d" i

(* Trace actor for chaos injections: far above servers (0..), brokers
   (1000+) and clients (2000+). *)
let chaos_actor = 9000

let apply d ~clients = function
  | Crash_server i -> Deployment.crash_server d i
  | Recover_server i -> Deployment.recover_server d i
  | Restart_server i -> Deployment.restart_server d i
  | Join_server i -> Deployment.join_server d i
  | Leave_server i -> Deployment.leave_server d i
  | Replace_server i -> Deployment.replace_server d i
  | Crash_broker i -> Deployment.crash_broker d i
  | Recover_broker i -> Deployment.recover_broker d i
  | Crash_client i -> Deployment.crash_client d clients.(i)
  | Partition groups -> Deployment.partition d groups
  | Heal -> Deployment.heal d
  | Set_link_loss (src, dst, p) -> Deployment.set_link_loss d ~src ~dst p
  | Degrade_link (src, dst, extra_latency) ->
    Deployment.degrade_link d ~src ~dst ~extra_latency
  | Byz_broker_equivocate i -> Broker.misbehave_equivocate (Deployment.broker d i)
  | Byz_broker_garble i -> Broker.misbehave_garble_reduction (Deployment.broker d i)
  | Byz_broker_malform i -> Broker.misbehave_malform (Deployment.broker d i)
  | Byz_broker_withhold i -> Broker.misbehave_withhold_certs (Deployment.broker d i)
  | Byz_server_bad_shares i -> Server.misbehave_bad_shares (Deployment.servers d).(i)
  | Byz_server_refuse_witness i ->
    Server.misbehave_refuse_witness (Deployment.servers d).(i)
  | Byz_client_bad_share i -> Client.misbehave_bad_share clients.(i)
  | Byz_client_mute i -> Client.misbehave_mute_reduction clients.(i)

let install d ~clients ?(on_event = fun _ -> ()) ?(after_event = fun _ -> ())
    schedule =
  let engine = Deployment.engine d in
  List.iter
    (fun (time, ev) ->
      Engine.schedule_at engine ~time (fun () ->
          (let s = Engine.trace engine in
           if Trace.enabled s then
             Trace.instant s ~now:(Engine.now engine) ~actor:chaos_actor
               ~cat:"chaos" ~name:"inject" ~id:0
               ~attrs:[ ("event", Trace.A_str (describe ev)) ]);
          on_event ev;
          apply d ~clients ev;
          after_event ev))
    schedule

(* --- invariant checking ---------------------------------------------------- *)

module Invariant = struct
  type op = Op of int * string | Bulk of int * int * int

  type vec = { mutable arr : op array; mutable len : int }

  let vec_push v x =
    if v.len = Array.length v.arr then begin
      let a = Array.make (max 16 (2 * Array.length v.arr)) x in
      Array.blit v.arr 0 a 0 v.len;
      v.arr <- a
    end;
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  type t = {
    n : int;
    logs : vec array; (* per-server delivery log, in delivery order *)
    seen : (int * string, unit) Hashtbl.t array; (* (client, msg) per server *)
    msgs : (string, unit) Hashtbl.t array; (* payloads per server *)
    muted : bool array; (* cold-restarted: excluded from log checks *)
    mutable violations : string list; (* newest first *)
  }

  let create ~n_servers =
    { n = n_servers;
      logs = Array.init n_servers (fun _ -> { arr = [||]; len = 0 });
      seen = Array.init n_servers (fun _ -> Hashtbl.create 256);
      msgs = Array.init n_servers (fun _ -> Hashtbl.create 256);
      muted = Array.make n_servers false;
      violations = [] }

  let violate t msg = t.violations <- msg :: t.violations

  (* A cold restart restores the last checkpoint without re-delivering the
     messages it covers, then replays the tail through the same deliver
     hook — so the server's observed log restarts mid-stream at an offset
     this checker cannot know.  Drop it from the index-aligned checks;
     cold-restart scenarios assert end-state application digests instead,
     which is the stronger statement. *)
  let reset_server t server =
    t.logs.(server).len <- 0;
    (* Clear the no-duplication and delivered-payload expectations too: a
       replaced server re-delivers its whole history under a fresh
       identity (checkpoint restore + replay through the same hook), and
       a joiner starts from zero — stale (client, msg) entries from the
       slot's previous life would trip false duplicates. *)
    Hashtbl.reset t.seen.(server);
    Hashtbl.reset t.msgs.(server);
    t.muted.(server) <- true

  let muted t server = t.muted.(server)

  let observe t ~server (d : Proto.delivery) =
    if t.muted.(server) then ()
    else
    let ops =
      match d with
      | Proto.Ops arr ->
        Array.to_list (Array.map (fun (id, m) -> Op (id, m)) arr)
      | Proto.Bulk { first_id; count; tag; msg_bytes = _ } ->
        [ Bulk (first_id, count, tag) ]
    in
    List.iter
      (fun op ->
        (* Integrity / no-duplication: each (client, message) is delivered
           at most once per server.  (Scenarios use globally unique
           payloads, so this subsumes the per-(client, seq) rule.) *)
        (match op with
         | Op (id, m) ->
           if Hashtbl.mem t.seen.(server) (id, m) then
             violate t
               (Printf.sprintf
                  "no-duplication: server %d delivered (client %d, %S) twice"
                  server id m)
           else Hashtbl.add t.seen.(server) (id, m) ();
           Hashtbl.replace t.msgs.(server) m ()
         | Bulk _ -> ());
        (* Agreement: every log is a prefix of a common total order.  Each
           append is compared against the longest log that already covers
           this position; pairwise-vs-longest is transitive because the
           longest log itself grew under the same check. *)
        let idx = t.logs.(server).len in
        let longest = ref (-1) and best = ref idx in
        for s = 0 to t.n - 1 do
          if s <> server && t.logs.(s).len > !best then begin
            best := t.logs.(s).len;
            longest := s
          end
        done;
        (if !longest >= 0 && t.logs.(!longest).arr.(idx) <> op then
           violate t
             (Printf.sprintf
                "agreement: server %d delivery %d diverges from server %d"
                server idx !longest));
        vec_push t.logs.(server) op)
      ops

  let attach t d =
    Deployment.server_deliver_hook d (fun server dl -> observe t ~server dl)

  let check_validity t ~expected ~correct_servers =
    List.iter
      (fun (label, msg) ->
        List.iter
          (fun s ->
            (* A muted (cold-restarted, joined or replaced) server's
               payload index restarted mid-stream at an unknown offset;
               such servers are held to end-state digest equality by the
               scenarios instead. *)
            if not t.muted.(s) then
              if not (Hashtbl.mem t.msgs.(s) msg) then
                violate t
                  (Printf.sprintf "validity: %s not delivered by server %d"
                     label s))
          correct_servers)
      expected

  let violations t = List.rev t.violations
  let ok t = t.violations = []
end

(* --- verdicts --------------------------------------------------------------- *)

type scale = Quick | Full

let scale_of_string = function
  | "quick" -> Some Quick
  | "full" -> Some Full
  | _ -> None

let scale_to_string = function Quick -> "quick" | Full -> "full"

type verdict = {
  v_name : string;
  v_pass : bool;
  v_violations : string list;
  v_expected : int; (* client broadcasts that must complete *)
  v_completed : int; (* client broadcasts that did complete *)
  v_delivered : int array; (* per-server delivered message counts *)
  v_rejections : (string * int) list; (* rejection instants, by name *)
  v_diagnosis : Doctor.diagnosis option;
      (* doctor post-mortem, present iff the run stalled, under-completed
         or violated an invariant *)
}

let reject_names =
  [ "reject_batch"; "reject_witness"; "reject_shard"; "reject_completion";
    "reject_cert"; "dup_ref"; "dup_submit"; "reject_unknown";
    "reject_admission" ]

let rejection_counts sink =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      match e.ev_phase with
      | Trace.I when List.mem e.ev_name reject_names ->
        Hashtbl.replace tbl e.ev_name
          (1 + Option.value (Hashtbl.find_opt tbl e.ev_name) ~default:0)
      | _ -> ())
    (Trace.Sink.events sink);
  List.filter_map
    (fun n ->
      match Hashtbl.find_opt tbl n with Some c -> Some (n, c) | None -> None)
    reject_names

let pp_verdict ppf v =
  Fmt.pf ppf "@[<v>%s: %s@," v.v_name (if v.v_pass then "PASS" else "FAIL");
  Fmt.pf ppf "  completed %d/%d broadcasts; delivered per server: %a@,"
    v.v_completed v.v_expected
    Fmt.(array ~sep:(any " ") int)
    v.v_delivered;
  (match v.v_rejections with
   | [] -> ()
   | rs ->
     Fmt.pf ppf "  rejections: %a@,"
       Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
       rs);
  List.iter (fun viol -> Fmt.pf ppf "  VIOLATION: %s@," viol) v.v_violations;
  (match v.v_diagnosis with
   | None -> ()
   | Some di -> Fmt.pf ppf "%a" Doctor.pp di);
  Fmt.pf ppf "@]"

(* --- scenario harness -------------------------------------------------------- *)

type scenario = {
  sc_name : string;
  sc_summary : string;
  sc_run : ?until:float -> seed:int64 -> scale:scale -> unit -> verdict;
}

(* Scenario dimensions: servers / interactive clients / messages each /
   simulated duration.  Quick is the CI size; full trades minutes of wall
   clock for n = 3f+1 with f = 2. *)
let dims = function Quick -> (4, 6, 2, 90.) | Full -> (7, 12, 3, 150.)

(* Build a deployment + clients, arm the schedule and the invariant
   checker, drive staggered client traffic through the faults, and reduce
   everything to a verdict.

   [make_schedule] runs after clients exist so it can resolve node ids;
   [crashed_clients]'s messages are excluded from the completion and
   validity expectations; [degraded_servers] (crashed, partitioned or
   recovered-with-a-gap nodes) are held to agreement/no-duplication but
   not to full delivery; [expect_rejects] are instants that must appear —
   an attack scenario where nobody rejected anything means the attack
   never fired, which is itself a failure; [post] contributes extra
   scenario-specific violations at the end.

   [store]/[checkpoint_every] enable the per-server durable-storage model
   (required by [Restart_server] events).  [apps] attaches one Payments
   replica per server — deliveries are applied through the deliver hook
   and the app rides server checkpoints via snapshot/restore — so [post]
   can compare application digests across servers.

   Membership and adversarial-load knobs: [spare_servers] provisions idle
   slots for [Join_server] (size [apps] to capacity when using them);
   [surge] = (time, count) signs up [count] extra clients at [time], each
   broadcasting one message that joins the completion and validity
   expectations (a flash crowd); [spam] = (t0, t1, greedy_rate,
   sybil_rate) floods the brokers between [t0] and [t1] with a
   correctly-signed greedy flood from dense identities and with
   unknown-identity sybil submissions ([dense_clients] > 0 required for
   the former); [duration] overrides the scale's default run length.

   Fleet knob (lib/fleet): [fleet] arms the broker-fleet client
   partitioning policy (clients home by hash instead of nearest-first;
   every broker reads the one Rank directory). *)
let run_case ?until ~name ~seed ~scale ~underlay ~n_brokers ?client_brokers
    ~make_schedule ?(crashed_clients = []) ?(degraded_servers = [])
    ?(expect_rejects = []) ?(store = false) ?(checkpoint_every = 0) ?apps
    ?(spare_servers = 0) ?(dense_clients = 0) ?surge ?spam
    ?fleet ?duration ?(post = fun _ _ -> []) () =
  let n_servers, n_clients, msgs_each, base_duration = dims scale in
  let duration = Option.value duration ~default:base_duration in
  (* [until] kills the run early (doctor post-mortems on a run cut short
     of delivery); expectations are NOT scaled down, so an early kill
     surfaces as an under-completion with a diagnosis attached. *)
  let run_until = match until with Some u -> Float.min u duration | None -> duration in
  let trace = Trace.Sink.memory () in
  let cfg =
    { Deployment.default_config with
      n_servers; spare_servers; n_brokers; underlay; seed; trace;
      dense_clients; fleet;
      store_enabled = store; checkpoint_every }
  in
  let d = Deployment.create cfg in
  let capacity = Deployment.capacity d in
  let inv = Invariant.create ~n_servers:capacity in
  let register_app i app =
    Deployment.set_server_app d i
      ~snapshot:(fun () -> Payments.snapshot app)
      ~restore:(fun s -> Payments.restore app s)
  in
  (match apps with
   | None -> Invariant.attach inv d
   | Some apps ->
     Deployment.server_deliver_hook d (fun server dl ->
         Invariant.observe inv ~server dl;
         if server < Array.length apps then
           ignore (Payments.apply_delivery apps.(server) dl));
     Array.iteri register_app apps);
  let clients =
    Array.init n_clients (fun _ -> Deployment.add_client d ?brokers:client_brokers ())
  in
  Array.iter Client.signup clients;
  (* Staggered waves keep traffic flowing while the faults are active:
     wave [j] enters every client's queue at [25 j] seconds, so mid-run
     crashes and partitions (injected between waves) always see traffic
     arriving after them. *)
  let engine = Deployment.engine d in
  let expected = ref [] in
  Array.iteri
    (fun i c ->
      for j = 0 to msgs_each - 1 do
        let m = Printf.sprintf "%s:c%d:m%d" name i j in
        if not (List.mem i crashed_clients) then
          expected := (Printf.sprintf "client %d message %d" i j, m) :: !expected;
        Engine.schedule_at engine
          ~time:(25. *. float_of_int j)
          (fun () -> Client.broadcast c m)
      done)
    clients;
  let expected = List.rev !expected in
  (* Flash crowd: a wave of brand-new clients — sign-up and all — lands
     at once; their broadcasts join the expectations. *)
  let surge_clients = ref [] in
  let surge_expected = ref [] in
  (match surge with
   | None -> ()
   | Some (time, count) ->
     Engine.schedule_at engine ~time (fun () ->
         for k = 0 to count - 1 do
           let c = Deployment.add_client d ?brokers:client_brokers () in
           Client.signup c;
           let m = Printf.sprintf "%s:surge%d" name k in
           surge_expected :=
             (Printf.sprintf "surge client %d" k, m) :: !surge_expected;
           Client.broadcast c m;
           surge_clients := c :: !surge_clients
         done));
  (* Spam floods: open-loop adversarial traffic through raw injector
     nodes.  Sybil submissions are shed at broker intake; greedy ones
     take their client's one pool slot per flush. *)
  (match spam with
   | None -> ()
   | Some (t0, t1, greedy_rate, sybil_rate) ->
     let rng = Rng.create (Int64.logxor seed 0x5eed_5eedL) in
     Engine.schedule_at engine ~time:t0 (fun () ->
         if greedy_rate > 0. && dense_clients > 0 then
           ignore
             (Spam.start_greedy ~deployment:d ~rng ~rate:greedy_rate
                ~first_id:0
                ~clients:(min 64 dense_clients)
                ~until:t1 ());
         if sybil_rate > 0. then
           ignore
             (Spam.start_sybil ~deployment:d ~rng ~rate:sybil_rate
                ~first_fake_id:(dense_clients + 1_000_000)
                ~until:t1 ())));
  install d ~clients
    ~on_event:(function
      | Restart_server i | Join_server i | Replace_server i ->
        Invariant.reset_server inv i
      | _ -> ())
    ~after_event:(function
      | Replace_server i ->
        (* The slot now holds a brand-new Server instance: re-register
           the app hooks on it, and reset the app replica itself — the
           fresh identity re-learns everything through state transfer
           (peer checkpoint restore and/or record replay). *)
        (match apps with
         | Some apps when i < Array.length apps ->
           Payments.restore apps.(i) None;
           register_app i apps.(i)
         | _ -> ())
      | _ -> ())
    (make_schedule d clients);
  let completed_now () =
    (Array.to_list clients
    |> List.mapi (fun i c -> if List.mem i crashed_clients then 0 else Client.completed c)
    |> List.fold_left ( + ) 0)
    + List.fold_left (fun acc c -> acc + Client.completed c) 0 !surge_clients
  in
  let static_expected =
    List.length expected
    + (match surge with Some (_, count) -> count | None -> 0)
  in
  let watchdog =
    Doctor.watch d ~progress:completed_now ~expected:static_expected ()
  in
  Deployment.run d ~until:run_until;
  let expected = expected @ List.rev !surge_expected in
  let correct_servers =
    List.filter
      (fun s -> not (List.mem s degraded_servers))
      (List.init n_servers Fun.id)
  in
  Invariant.check_validity inv ~expected ~correct_servers;
  let completed = completed_now () in
  let n_expected = List.length expected in
  if completed < n_expected then
    Invariant.violate inv
      (Printf.sprintf
         "liveness: only %d of %d client broadcasts completed within %.0f s"
         completed n_expected run_until);
  let rejections = rejection_counts trace in
  List.iter
    (fun rn ->
      if not (List.mem_assoc rn rejections) then
        Invariant.violate inv
          (Printf.sprintf "expected \"%s\" rejections, observed none" rn))
    expect_rejects;
  List.iter (Invariant.violate inv) (post d inv);
  let violations = Invariant.violations inv in
  let diagnosis =
    match Doctor.stalled watchdog with
    | Some di -> Some di
    | None ->
      let post_mortem reason =
        Some
          (Doctor.diagnose d ~progress:completed ~expected:n_expected
             ~last_progress_at:(Doctor.last_progress_at watchdog) ~reason)
      in
      if completed < n_expected then post_mortem "incomplete"
      else if violations <> [] then post_mortem "invariant"
      else None
  in
  { v_name = name;
    v_pass = violations = [];
    v_violations = violations;
    v_expected = n_expected;
    v_completed = completed;
    v_delivered =
      Array.map Server.delivered_messages (Deployment.servers d);
    v_rejections = rejections;
    v_diagnosis = diagnosis }

(* --- the scenarios ----------------------------------------------------------- *)

let sc_fig11a_crash =
  { sc_name = "fig11a-crash";
    sc_summary =
      "crash one PBFT server mid-run; the remaining 2f+1 keep delivering \
       (Fig. 11a)";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        run_case ?until ~name:"fig11a-crash" ~seed ~scale ~underlay:Deployment.Pbft
          ~n_brokers:2
          ~make_schedule:(fun _ _ -> [ (15., Crash_server (n_servers - 1)) ])
          ~degraded_servers:[ n_servers - 1 ] ()) }

let sc_broker_equivocation =
  { sc_name = "broker-equivocation";
    sc_summary =
      "broker 0 shows different halves of the server set conflicting \
       batches for the same (broker, number) slot; (broker, number) dedup \
       delivers exactly one, orphaned clients fail over (§4.4)";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"broker-equivocation" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~client_brokers:[ 0; 1 ]
          ~make_schedule:(fun _ _ -> [ (0., Byz_broker_equivocate 0) ])
          ~expect_rejects:[ "dup_ref" ] ()) }

let sc_broker_garble =
  { sc_name = "broker-garble";
    sc_summary =
      "all brokers but one are Byzantine (forged reduction multisig; \
       tampered payloads); servers refuse to witness and clients complete \
       through the last correct broker (§4.4.2 validity)";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"broker-garble" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:3
          ~client_brokers:[ 0; 1; 2 ]
          ~make_schedule:(fun _ _ ->
            [ (0., Byz_broker_garble 0); (0., Byz_broker_malform 1) ])
          ~expect_rejects:[ "reject_batch" ] ()) }

let sc_broker_withhold =
  { sc_name = "broker-withhold";
    sc_summary =
      "broker 0 completes batches but withholds delivery certificates; \
       clients resubmit elsewhere and complete via the exceptions path, \
       still delivered exactly once";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"broker-withhold" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~client_brokers:[ 0; 1 ]
          ~make_schedule:(fun _ _ -> [ (0., Byz_broker_withhold 0) ])
          ()) }

let sc_server_bad_shares =
  { sc_name = "server-bad-shares";
    sc_summary =
      "one server signs garbage witness shards and another refuses to \
       witness; brokers reject the bad shards and still assemble f+1 \
       quorums from honest servers";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"server-bad-shares" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~make_schedule:(fun _ _ ->
            [ (0., Byz_server_bad_shares 1); (0., Byz_server_refuse_witness 2) ])
          ~expect_rejects:[ "reject_shard" ] ()) }

let sc_partition_heal =
  { sc_name = "partition-heal";
    sc_summary =
      "isolate one PBFT server behind a partition, then heal; the \
       majority side keeps delivering, the isolated server stays a \
       correct prefix";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let majority = List.init (n_servers - 1) Fun.id in
        run_case ?until ~name:"partition-heal" ~seed ~scale ~underlay:Deployment.Pbft
          ~n_brokers:2
          ~make_schedule:(fun _ _ ->
            [ (12., Partition [ majority; [ n_servers - 1 ] ]); (30., Heal) ])
          ~degraded_servers:[ n_servers - 1 ] ()) }

let sc_lossy_wan =
  { sc_name = "lossy-wan";
    sc_summary =
      "heavy asymmetric loss on client links plus degraded inter-server \
       latency; the reliable-UDP layer retransmits and everything still \
       completes";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"lossy-wan" ~seed ~scale ~underlay:Deployment.Sequencer
          ~n_brokers:2
          ~make_schedule:(fun d clients ->
            let b0 = Deployment.broker_node_id d 0 in
            let b1 = Deployment.broker_node_id d 1 in
            let links =
              Array.to_list clients
              |> List.concat_map (fun c ->
                     match Deployment.node_of_client d c with
                     | None -> []
                     | Some node ->
                       [ (0., Set_link_loss (node, b0, 0.25));
                         (0., Set_link_loss (b0, node, 0.25));
                         (0., Set_link_loss (node, b1, 0.10)) ])
            in
            (0., Degrade_link (0, 1, 0.03))
            :: (0., Degrade_link (1, 0, 0.03))
            :: links)
          ~post:(fun d _ ->
            let retrans =
              Trace.Sink.counter (Engine.trace (Deployment.engine d))
                ~cat:"rudp" ~name:"retransmissions"
            in
            if Trace.Counter.value retrans = 0 then
              [ "expected reliable-UDP retransmissions under 25% loss, saw 0" ]
            else [])
          ()) }

let sc_kitchen_sink =
  { sc_name = "kitchen-sink";
    sc_summary =
      "everything at once: bad witness shards, withheld certificates, a \
       partition, a crash with recovery, and a lossy client link — \
       safety invariants hold and correct clients still complete";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let victim = n_servers - 1 in
        let majority = List.init (n_servers - 1) Fun.id in
        run_case ?until ~name:"kitchen-sink" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:3
          ~client_brokers:[ 0; 1; 2 ]
          ~make_schedule:(fun d clients ->
            let b0 = Deployment.broker_node_id d 0 in
            let loss =
              match Deployment.node_of_client d clients.(0) with
              | Some node ->
                [ (0., Set_link_loss (node, b0, 0.2));
                  (0., Set_link_loss (b0, node, 0.2)) ]
              | None -> []
            in
            loss
            @ [ (0., Byz_server_bad_shares 1);
                (0., Byz_broker_withhold 0);
                (8., Partition [ majority; [ victim ] ]);
                (12., Crash_server victim);
                (20., Heal);
                (30., Recover_server victim) ])
          ~degraded_servers:[ victim ]
          ~expect_rejects:[ "reject_shard" ] ()) }

(* Shared post-checks for the cold-restart scenarios: the restarted
   server must have finished catching up, and its application state (by
   digest) and per-broker ref windows must equal a never-crashed
   replica's. *)
let restart_post ~victim ~(apps : Payments.t array) d _inv =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if Deployment.server_catching_up d victim then
    err "recovery: server %d never finished catching up" victim;
  if Payments.digest apps.(victim) <> Payments.digest apps.(0) then
    err "recovery: server %d app digest diverges from never-crashed server 0"
      victim;
  let servers = Deployment.servers d in
  if Server.ref_windows servers.(victim) <> Server.ref_windows servers.(0) then
    err "recovery: server %d ref windows diverge from never-crashed server 0"
      victim;
  List.rev !errs

let sc_crash_cold_restart =
  { sc_name = "crash-cold-restart";
    sc_summary =
      "crash one server, cold-restart it from its simulated disk; it \
       replays the WAL from the last checkpoint, state-transfers the gap \
       from peers, ends live with the same app digest as a never-crashed \
       replica — and collection advanced past the crash window because \
       checkpoints stand in for the crashed server's counter";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let victim = n_servers - 1 in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        let collected_mid = ref 0 and collected_late = ref 0 in
        run_case ?until ~name:"crash-cold-restart" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~store:true ~checkpoint_every:4 ~apps
          ~make_schedule:(fun d _ ->
            let engine = Deployment.engine d in
            let survivor = (Deployment.servers d).(0) in
            Engine.schedule_at engine ~time:20. (fun () ->
                collected_mid := Server.collected_batches survivor);
            Engine.schedule_at engine ~time:34. (fun () ->
                collected_late := Server.collected_batches survivor);
            [ (15., Crash_server victim); (35., Restart_server victim) ])
          ~degraded_servers:[ victim ]
          ~post:(fun d inv ->
            let errs = restart_post ~victim ~apps d inv in
            if !collected_late <= !collected_mid then
              errs
              @ [ Printf.sprintf
                    "gc: collection did not advance while server %d was down \
                     (%d -> %d collected)"
                    victim !collected_mid !collected_late ]
            else errs)
          ()) }

let sc_lagging_restart =
  { sc_name = "lagging-restart";
    sc_summary =
      "a PBFT server lags behind a partition while the majority \
       checkpoints and collects past it, then crashes; its WAL alone \
       cannot cover the gap, so the cold restart must pull the peer \
       checkpoint and record tail via state transfer";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let victim = n_servers - 1 in
        let majority = List.init (n_servers - 1) Fun.id in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        run_case ?until ~name:"lagging-restart" ~seed ~scale ~underlay:Deployment.Pbft
          ~n_brokers:2 ~store:true ~checkpoint_every:2 ~apps
          ~make_schedule:(fun _ _ ->
            [ (10., Partition [ majority; [ victim ] ]);
              (26., Heal);
              (28., Crash_server victim);
              (40., Restart_server victim) ])
          ~degraded_servers:[ victim ]
          ~post:(fun d inv ->
            let errs = restart_post ~victim ~apps d inv in
            let sv = (Deployment.servers d).(victim) in
            (* The gap must have been covered by peer state: either WAL
               records or a whole peer checkpoint (which of the two depends
               on where the responder's checkpoint cadence fell). *)
            if Server.catch_up_records sv = 0
               && not (Server.catch_up_checkpoint sv)
            then
              errs
              @ [ Printf.sprintf
                    "recovery: expected state transfer (records or peer \
                     checkpoint) on server %d, saw neither"
                    victim ]
            else errs)
          ()) }

let sc_checkpoint_partition =
  { sc_name = "checkpoint-partition";
    sc_summary =
      "checkpoints keep being taken while one server is isolated — so \
       collection advances past its stalled counter — and a cold restart \
       after the heal installs a peer checkpoint ahead of the local WAL";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let victim = n_servers - 1 in
        let majority = List.init (n_servers - 1) Fun.id in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        let ck_mid = ref 0 and ck_late = ref 0 in
        run_case ?until ~name:"checkpoint-partition" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~store:true ~checkpoint_every:2 ~apps
          ~make_schedule:(fun d _ ->
            let engine = Deployment.engine d in
            Engine.schedule_at engine ~time:9. (fun () ->
                ck_mid := Deployment.server_checkpoints d 0);
            Engine.schedule_at engine ~time:29. (fun () ->
                ck_late := Deployment.server_checkpoints d 0);
            [ (8., Partition [ majority; [ victim ] ]);
              (30., Heal);
              (32., Restart_server victim) ])
          ~degraded_servers:[ victim ]
          ~post:(fun d inv ->
            let errs = restart_post ~victim ~apps d inv in
            if !ck_late <= !ck_mid then
              errs
              @ [ Printf.sprintf
                    "checkpointing stalled during the partition (%d -> %d \
                     checkpoints on server 0)"
                    !ck_mid !ck_late ]
            else errs)
          ()) }

(* Shared post-checks for the membership scenarios: every slot active at
   the end of the run must be caught up, at the expected epoch, and hold
   an application digest bit-identical to slot 0's (slot 0 never leaves:
   under the sequencer underlay it is the ordering node). *)
let reconfig_post ?expected_epoch ~(apps : Payments.t array) d _inv =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let active =
    Repro_chopchop.Membership.active_slots (Deployment.membership d)
  in
  List.iter
    (fun s ->
      if Deployment.server_catching_up d s then
        err "membership: server %d still catching up at end of run" s;
      (match expected_epoch with
       | Some e when Deployment.server_epoch d s <> e ->
         err "membership: server %d at epoch %d, expected %d" s
           (Deployment.server_epoch d s) e
       | _ -> ());
      if
        s < Array.length apps
        && Payments.digest apps.(s) <> Payments.digest apps.(0)
      then err "membership: server %d app digest diverges from server 0" s)
    active;
  List.rev !errs

let sc_reconfig_join =
  { sc_name = "reconfig-join";
    sc_summary =
      "a spare server joins through an ordered Reconfigure command: it \
       bootstraps via cold-restart state transfer, every replica rolls \
       the committee forward at the same rank, and the joiner ends with \
       the same app digest as the founding members";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let spare = n_servers in
        let apps = Array.init (n_servers + 1) (fun _ -> Payments.create ()) in
        run_case ?until ~name:"reconfig-join" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~store:true ~checkpoint_every:4 ~spare_servers:1 ~apps
          ~make_schedule:(fun _ _ -> [ (20., Join_server spare) ])
          ~post:(fun d inv ->
            let errs = reconfig_post ~expected_epoch:1 ~apps d inv in
            if
              not
                (Repro_chopchop.Membership.is_active (Deployment.membership d)
                   spare)
            then errs @ [ "membership: joined server not active" ]
            else errs)
          ()) }

let sc_reconfig_leave =
  { sc_name = "reconfig-leave";
    sc_summary =
      "a server leaves through an ordered Reconfigure command: it tears \
       itself down when the command reaches it in the total order, the \
       survivors shrink their quorums at the same rank, and traffic keeps \
       completing";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let leaver = n_servers - 1 in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        run_case ?until ~name:"reconfig-leave" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2 ~apps
          ~make_schedule:(fun _ _ -> [ (20., Leave_server leaver) ])
          ~degraded_servers:[ leaver ]
          ~post:(fun d inv ->
            let errs = reconfig_post ~expected_epoch:1 ~apps d inv in
            if
              Repro_chopchop.Membership.is_active (Deployment.membership d)
                leaver
            then errs @ [ "membership: departed server still active" ]
            else errs)
          ()) }

let sc_reconfig_replace =
  { sc_name = "reconfig-replace";
    sc_summary =
      "a server is replaced in place by a fresh identity (new multisig \
       key, empty disk, bumped generation): the ordered Replace rolls the \
       committee key and the newcomer re-learns the full history through \
       state transfer";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let victim = n_servers - 1 in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        run_case ?until ~name:"reconfig-replace" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~store:true ~checkpoint_every:4 ~apps
          ~make_schedule:(fun _ _ -> [ (22., Replace_server victim) ])
          ~post:(fun d inv ->
            let errs = reconfig_post ~expected_epoch:1 ~apps d inv in
            let gen =
              Repro_chopchop.Membership.generation (Deployment.membership d)
                victim
            in
            if gen <> 1 then
              errs
              @ [ Printf.sprintf
                    "membership: replaced server at generation %d, expected 1"
                    gen ]
            else errs)
          ()) }

let sc_rolling_upgrade =
  { sc_name = "rolling-upgrade";
    sc_summary =
      "rolling upgrade under sustained load: every server in sequence is \
       crashed and cold-restarted from its disk (including the ordering \
       node); each one state-transfers its gap and the fleet ends with \
       bit-identical app digests";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        let apps = Array.init n_servers (fun _ -> Payments.create ()) in
        run_case ?until ~name:"rolling-upgrade" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~store:true ~checkpoint_every:4 ~apps
          ~make_schedule:(fun _ _ ->
            List.concat
              (List.init n_servers (fun i ->
                   let t0 = 30. +. (12. *. float_of_int i) in
                   [ (t0, Crash_server i); (t0 +. 6., Restart_server i) ])))
          ~post:(fun d inv -> reconfig_post ~expected_epoch:0 ~apps d inv)
          ()) }

let sc_flash_crowd =
  { sc_name = "flash-crowd";
    sc_summary =
      "a 10x client surge lands mid-run — sign-ups and all — on top of \
       the steady workload; distillation absorbs the crowd and every \
       surge broadcast still completes";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let _, n_clients, _, _ = dims scale in
        run_case ?until ~name:"flash-crowd" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~surge:(30., 10 * n_clients)
          ~make_schedule:(fun _ _ -> [])
          ()) }

let sc_spam_sybil =
  { sc_name = "spam-sybil";
    sc_summary =
      "sybil submissions under unknown identities plus a correctly-signed \
       greedy flood from 64 dense identities; the sybil flood is shed at \
       broker intake (reject_unknown), the greedy flood is ordered at one \
       pool slot per client per flush, and the honest clients keep \
       completing";
    sc_run =
      (fun ?until ~seed ~scale () ->
        run_case ?until ~name:"spam-sybil" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~dense_clients:2048
          ~spam:(10., 55., 250., 120.)
          ~expect_rejects:[ "reject_unknown" ]
          ~make_schedule:(fun _ _ -> [])
          ()) }

let sc_fleet_broker_crash =
  { sc_name = "fleet-broker-crash";
    sc_summary =
      "crash the fleet's hottest home broker mid-run: its partition's \
       clients walk their failover rotation to brokers that read the same \
       directory, and every broadcast still completes; on recovery the \
       partition's clients rehome";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let victim = ref 0 in
        run_case ?until ~name:"fleet-broker-crash" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:3
          ~fleet:Repro_fleet.Fleet.Hash
          ~make_schedule:(fun d _ ->
            (* The fleet's client accounting is filled at add_client time,
               so the hottest partition is already known here. *)
            (match Deployment.fleet_hottest d with
             | Some (b, _) -> victim := b
             | None -> ());
            [ (15., Crash_broker !victim); (45., Recover_broker !victim) ])
          ~post:(fun d _ ->
            match Deployment.fleet d with
            | None -> [ "fleet: no fleet policy armed" ]
            | Some _ -> [])
          ()) }

let sc_fleet_hot_shard =
  { sc_name = "fleet-hot-shard";
    sc_summary =
      "a greedy flood aimed entirely at the fleet's hottest broker; the \
       servers check the brokers' witnesses in turn, so the sibling \
       partitions keep completing undisturbed";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let hot = ref 0 in
        run_case ?until ~name:"fleet-hot-shard" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:3
          ~fleet:Repro_fleet.Fleet.Hash
          ~dense_clients:2048
          ~make_schedule:(fun d _ ->
            (match Deployment.fleet_hottest d with
             | Some (b, _) -> hot := b
             | None -> ());
            let engine = Deployment.engine d in
            let rng = Rng.create (Int64.logxor seed 0xF1EE7F100DL) in
            Engine.schedule_at engine ~time:10. (fun () ->
                ignore
                  (Spam.start_greedy ~deployment:d ~rng ~rate:400.
                     ~first_id:0 ~clients:64 ~broker:!hot ~until:55. ()));
            [])
          ()) }

let sc_reconfig_kitchen_sink =
  { sc_name = "reconfig-kitchen-sink";
    sc_summary =
      "the full membership gauntlet under adversarial load: a spare joins \
       via state transfer, a founding member leaves, a rolling upgrade \
       cold-restarts every remaining server in sequence — all under a \
       10x flash crowd plus sybil and greedy spam — and the epoch \
       rolls forward deterministically with bit-identical app digests";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, n_clients, _, _ = dims scale in
        let spare = n_servers in
        let leaver = 1 in
        let apps = Array.init (n_servers + 1) (fun _ -> Payments.create ()) in
        let upgraded =
          (* Every slot that is still a member after the leave, spare
             included; slot 0 last so the sequencer stalls only once the
             others are already back. *)
          List.filter (fun s -> s <> leaver) (List.init n_servers Fun.id)
          @ [ spare ]
        in
        run_case ?until ~name:"reconfig-kitchen-sink" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:3
          ~client_brokers:[ 0; 1; 2 ]
          ~store:true ~checkpoint_every:4 ~spare_servers:1
          ~dense_clients:2048 ~apps
          ~surge:(40., 10 * n_clients)
          ~spam:(15., 60., 300., 100.)
          ~expect_rejects:[ "reject_unknown" ]
          ~duration:150.
          ~make_schedule:(fun _ _ ->
            [ (20., Join_server spare); (35., Leave_server leaver) ]
            @ List.concat
                (List.mapi
                   (fun k s ->
                     let t0 = 50. +. (12. *. float_of_int k) in
                     [ (t0, Crash_server s); (t0 +. 6., Restart_server s) ])
                   upgraded))
          ~degraded_servers:[ leaver ]
          ~post:(fun d inv ->
            let errs = reconfig_post ~expected_epoch:2 ~apps d inv in
            let m = Deployment.membership d in
            let active_count =
              Repro_chopchop.Membership.active_count m
            in
            if active_count <> n_servers then
              errs
              @ [ Printf.sprintf
                    "membership: %d active slots at end of run, expected %d"
                    active_count n_servers ]
            else errs)
          ()) }

let scenarios =
  [ sc_fig11a_crash; sc_broker_equivocation; sc_broker_garble;
    sc_broker_withhold; sc_server_bad_shares; sc_partition_heal; sc_lossy_wan;
    sc_kitchen_sink; sc_crash_cold_restart; sc_lagging_restart;
    sc_checkpoint_partition; sc_reconfig_join; sc_reconfig_leave;
    sc_reconfig_replace; sc_rolling_upgrade; sc_flash_crowd; sc_spam_sybil;
    sc_fleet_broker_crash; sc_fleet_hot_shard; sc_reconfig_kitchen_sink ]

let find name = List.find_opt (fun s -> s.sc_name = name) scenarios

(* Deliberately-failing diagnostic scenarios, kept OUT of [scenarios] so
   `chaos all`, sweeps and CI stay green.  stall-partition cuts every
   server off from the brokers (and clients) at t = 10 s and never heals:
   delivery stops dead, the in-run watchdog fires, and the verdict
   carries a diagnosis naming the partition — the doctor's worked
   example and the CI doctor smoke target. *)
let sc_stall_partition =
  { sc_name = "stall-partition";
    sc_summary =
      "DIAGNOSTIC (always fails): full servers-vs-brokers partition at \
       t = 10 s, never healed; the delivery watchdog must fire and name \
       the partition";
    sc_run =
      (fun ?until ~seed ~scale () ->
        let n_servers, _, _, _ = dims scale in
        run_case ?until ~name:"stall-partition" ~seed ~scale
          ~underlay:Deployment.Sequencer ~n_brokers:2
          ~make_schedule:(fun _ _ ->
            (* Group 0 is the implicit rest-of-the-world (brokers and
               clients); listing the servers as the second group cuts
               every server<->broker link at once. *)
            [ (10., Partition [ []; List.init n_servers Fun.id ]) ])
          ()) }

let diagnostics = [ sc_stall_partition ]

let find_any name =
  match find name with
  | Some s -> Some s
  | None -> List.find_opt (fun s -> s.sc_name = name) diagnostics

let run_all ~seed ~scale =
  List.map (fun s -> s.sc_run ~seed ~scale ()) scenarios
