module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Store = Repro_store.Store
module Disk = Repro_store.Disk
module Multisig = Repro_crypto.Multisig
module Trace = Repro_trace.Trace
module Rng = Repro_sim.Rng
module Lwm = Repro_sim.Lwm
module Int_table = Repro_sim.Int_table

type config = {
  self : int;
  n : int;
  clients : int;
}
(* [n] is the machine *capacity* (active servers plus spare slots); the
   active subset and the quorum thresholds live in {!Membership}. *)

(* An ordered batch reference awaiting delivery; [o_tag] is the underlay's
   cursor when it came up (just past its slot), [o_paired] set once the CPU
   job charged for its witness-certificate pairing has run. *)
type ordered = {
  o_broker : int;
  o_number : int;
  o_root : string;
  o_tag : int;
  mutable o_paired : bool;
}

(* A relayed [Submit] whose witness awaits its pairing check. *)
type check = { c_root : string; c_number : int; c_witness : Certs.quorum_cert }

type stored = {
  batch : Batch.t;
  bytes : int;
  mutable position : int option; (* global delivery position, once delivered *)
}

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  cfg : config;
  membership : Membership.t;
  dir : Directory.t;
  ms_sk : Multisig.secret_key;
  certs : Certs.checker; (* the deployment's *)
  set_server_pk : int -> Multisig.public_key -> unit;
  on_self_leave : unit -> unit;
  send_broker : broker:int -> bytes:int -> Proto.server_to_broker -> unit;
  send_server : dst:int -> bytes:int -> Proto.server_to_server -> unit;
  stob_broadcast : Stob_item.t -> unit;
  deliver_app : Proto.delivery -> unit;
  (* Durable state (lib/store): [None] replicates the paper's in-memory
     servers; [Some _] adds a WAL + checkpoints and enables cold restart. *)
  store : (Proto.checkpoint, Proto.wal_record) Store.t option;
  checkpoint_every : int; (* checkpoint every k deliveries; 0 = never *)
  stob_cursor : unit -> int; (* underlay's next-to-deliver slot *)
  stob_resume : int -> unit; (* fast-forward the underlay's cursor *)
  batches : (string, stored) Hashtbl.t; (* keyed by identity root *)
  mutable stored_bytes : int;
  (* (position, root) of every delivered batch, oldest first: positions
     only grow between cold restarts, so {!gc_sweep} pops its victims off
     the front instead of scanning [batches]. *)
  gc_order : (int * string) Queue.t;
  (* Per-broker ref windows, made on a broker's first ref (DESIGN.md §4b,
     item 14): numbers of verified ordered refs (the §4.4 dedup, the same
     at every replica) and of this server's own relays into the STOB. *)
  ordered_refs : (int, Lwm.t) Hashtbl.t;
  relayed_refs : (int, Lwm.t) Hashtbl.t;
  (* FIFO of ordered batch references whose batches may still be missing:
     delivery must follow STOB order exactly. *)
  order_queue : ordered Queue.t;
  (* Verified refs ordered while catching up, in STOB order: the windows
     are stale until the transfer ends, so {!finish_catch_up} judges them. *)
  held : ordered Queue.t;
  (* Per-client dedup, read for every delivered message; a checkpoint
     sorts what it folds out of either table. *)
  last_msg : (Types.sequence_number * string) Int_table.t; (* by client id *)
  (* dense ranges: first_id -> (last agg seq, last tag) *)
  dense_last : (int * int) Int_table.t;
  mutable delivery_counter : int;
  mutable delivered_messages : int;
  peer_counters : int array;
  mutable fetching : (string, unit) Hashtbl.t;
  seen_signups : (int, unit) Hashtbl.t;
  mutable delivering : bool;
  mutable crashed : bool;
  (* Cold-restart recovery state. *)
  mutable syncing : bool; (* catching up from a peer; delivery gated *)
  mutable sync_timer : Engine.timer option;
  mutable sync_peer : int;
  mutable sync_backoff : float; (* current retry delay, doubles to a cap *)
  sync_rng : Rng.t; (* private jitter stream for retry delays *)
  mutable sync_rounds : int;
  (* The underlay's cursor at the last cold restart: refs below it not yet
     delivered died with the wiped state, so catch-up needs a peer past it. *)
  mutable sync_floor : int;
  mutable catch_up_records : int;
  mutable catch_up_ck : bool; (* last catch-up installed a peer checkpoint *)
  mutable restarts : int; (* also the epoch guard for in-flight callbacks *)
  mutable collected_batches : int;
  mutable app_snapshot : (unit -> string) option;
  mutable app_restore : (string option -> unit) option;
  (* Witness checks of relayed [Submit]s (DESIGN.md §4b): one FIFO per
     broker, the brokers with a non-empty one in turn, and the checks on
     the CPU, at most one per lane. *)
  checks : (int, check Queue.t) Hashtbl.t;
  turns : int Queue.t;
  mutable checking : int;
  (* Byzantine fault injection (lib/chaos). *)
  mutable mis_bad_shares : bool;
  mutable mis_refuse_witness : bool;
  k_timer : int option; (* Engine kind of server timers, built once *)
  c_verify : Trace.Counter.t; (* signature-verification operations *)
  c_deliveries : Trace.Counter.t; (* batches delivered (all servers) *)
  c_messages : Trace.Counter.t; (* messages delivered (all servers) *)
}

(* Span of a broker's ref window, in batch numbers (DESIGN.md §4b). *)
let ref_window = 4096

let per_broker tbl broker make =
  match Hashtbl.find tbl broker with
  | v -> v
  | exception Not_found ->
    let v = make () in
    Hashtbl.add tbl broker v;
    v

let window tbl broker =
  per_broker tbl broker (fun () -> Lwm.create ~window:ref_window ())

let marked tbl broker number =
  match Hashtbl.find tbl broker with
  | w -> Lwm.mem w number
  | exception Not_found -> false

let sync_backoff_base = 1.0
let sync_backoff_cap = 8.0

let create ~engine ~cpu ~config ?store ?(checkpoint_every = 0)
    ?(stob_cursor = fun () -> 0) ?(stob_resume = fun _ -> ()) ?membership
    ?(set_server_pk = fun _ _ -> ()) ?(on_self_leave = fun () -> ())
    ~directory ~ms_sk ~certs ~send_broker ~send_server
    ~stob_broadcast ~deliver_app () =
  let membership =
    match membership with
    | Some m -> m
    | None -> Membership.create ~capacity:config.n ~initial:config.n
  in
  { engine; cpu; cfg = config; membership;
    dir = directory; ms_sk; certs; set_server_pk; on_self_leave;
    send_broker; send_server; stob_broadcast; deliver_app;
    store; checkpoint_every; stob_cursor; stob_resume;
    batches = Hashtbl.create 512; stored_bytes = 0; gc_order = Queue.create ();
    ordered_refs = Hashtbl.create 8; relayed_refs = Hashtbl.create 8;
    order_queue = Queue.create (); held = Queue.create ();
    last_msg = Int_table.create 4096; dense_last = Int_table.create 64;
    delivery_counter = 0; delivered_messages = 0;
    peer_counters = Array.make config.n 0;
    fetching = Hashtbl.create 16; seen_signups = Hashtbl.create 64;
    delivering = false; crashed = false;
    syncing = false; sync_timer = None; sync_peer = 0;
    sync_backoff = sync_backoff_base;
    sync_rng =
      Rng.create
        (Int64.logxor 0xBB67AE8584CAA73BL
           (Int64.mul (Int64.of_int (config.self + 1)) 0x9E3779B97F4A7C15L));
    sync_rounds = 0; sync_floor = 0;
    catch_up_records = 0; catch_up_ck = false;
    restarts = 0; collected_batches = 0;
    app_snapshot = None; app_restore = None;
    checks = Hashtbl.create 8; turns = Queue.create (); checking = 0;
    mis_bad_shares = false; mis_refuse_witness = false;
    k_timer = Some (Engine.kind engine "server.timer");
    c_verify =
      Trace.Sink.counter (Engine.trace engine) ~cat:"crypto" ~name:"verify_ops";
    c_deliveries =
      Trace.Sink.counter (Engine.trace engine) ~cat:"server" ~name:"deliveries";
    c_messages =
      Trace.Sink.counter (Engine.trace engine) ~cat:"server" ~name:"messages" }

let tr t = Engine.trace t.engine

let reject_instant t name ~id attrs =
  let s = tr t in
  if Trace.enabled s then
    Trace.instant s ~now:(Engine.now t.engine) ~actor:t.cfg.self ~cat:"server"
      ~name ~id ~attrs

let note_instant t name attrs =
  let s = tr t in
  if Trace.enabled s then
    Trace.instant s ~now:(Engine.now t.engine) ~actor:t.cfg.self ~cat:"store"
      ~name ~id:(Trace.key (string_of_int t.cfg.self)) ~attrs

let directory t = t.dir

let delivery_counter t = t.delivery_counter
let delivered_messages t = t.delivered_messages
let stored_batches t = Hashtbl.length t.batches
let stored_bytes t = t.stored_bytes
let catching_up t = t.syncing
let sync_rounds t = t.sync_rounds
let catch_up_records t = t.catch_up_records
let catch_up_checkpoint t = t.catch_up_ck
let restarts t = t.restarts
let collected_batches t = t.collected_batches
let membership t = t.membership
let epoch t = Membership.epoch t.membership

(* Quorum threshold of the *current* epoch's committee. *)
let quorum t = Membership.quorum t.membership

let broadcast_reconfigure t change ~ms_pk =
  t.stob_broadcast (Stob_item.Reconfigure { change; ms_pk })

let set_app_hooks t ~snapshot ~restore =
  t.app_snapshot <- Some snapshot;
  t.app_restore <- Some restore

let order_queue_depth t = Queue.length t.order_queue + Queue.length t.held

let ref_windows t =
  List.sort compare
    (Hashtbl.fold (fun b w acc -> (b, Lwm.low w, Lwm.above w) :: acc)
       t.ordered_refs [])

let ref_state_words t =
  Obj.reachable_words
    (Obj.repr (t.ordered_refs, t.relayed_refs))

(* --- durable state (lib/store) ------------------------------------------ *)

let wal_log t record =
  match t.store with
  | None -> ()
  | Some s ->
    Store.append s
      ~position:(Proto.wal_record_position record)
      ~bytes:(Store_wire.wal_record_bytes record)
      record

let take_checkpoint t s =
  let sorted l = List.sort compare l in
  let ck =
    { Proto.ck_position = t.delivery_counter;
      ck_messages = t.delivered_messages;
      ck_last_msg =
        sorted
          (Int_table.fold (fun id (seq, m) acc -> (id, seq, m) :: acc)
             t.last_msg []);
      ck_dense_last =
        sorted
          (Int_table.fold (fun fid (seq, tag) acc -> (fid, seq, tag) :: acc)
             t.dense_last []);
      ck_windows = ref_windows t;
      ck_signups =
        sorted (Hashtbl.fold (fun nonce () acc -> nonce :: acc) t.seen_signups []);
      ck_cards = Directory.explicit_cards t.dir;
      ck_app = Option.map (fun snap -> snap ()) t.app_snapshot;
      ck_epoch = (let e, _ = Membership.snapshot t.membership in e);
      ck_members = (let _, m = Membership.snapshot t.membership in m) }
  in
  let bytes = Store_wire.checkpoint_bytes ck in
  Store.checkpoint s ~position:t.delivery_counter ~bytes ck;
  note_instant t "checkpoint"
    [ ("position", Trace.A_int t.delivery_counter);
      ("bytes", Trace.A_int bytes) ]

let maybe_checkpoint t =
  match t.store with
  | Some s
    when t.checkpoint_every > 0
         && t.delivery_counter > 0
         && t.delivery_counter mod t.checkpoint_every = 0
         && t.delivery_counter > Store.checkpoint_position s ->
    take_checkpoint t s
  | Some _ | None -> ()

(* --- storage & GC ------------------------------------------------------- *)

let store_batch t batch =
  let root = Batch.identity_root batch in
  if not (Hashtbl.mem t.batches root) then begin
    let bytes = Batch.wire_bytes ~clients:t.cfg.clients batch in
    Hashtbl.add t.batches root { batch; bytes; position = None };
    t.stored_bytes <- t.stored_bytes + bytes
  end;
  root

let gc_sweep t =
  (* A batch delivered at position p is collectable once every server
     (ourselves included) reports a delivery counter beyond p — or, with
     durable state, once one of our checkpoints covers p: a crashed peer
     then recovers the batch's effects from checkpoint + WAL transfer
     instead of re-fetching the batch itself. *)
  (* Only active slots vote: a spare slot's counter is pinned at zero and
     would freeze collection forever. *)
  let gossip = ref max_int in
  for s = 0 to Membership.capacity t.membership - 1 do
    if Membership.is_active t.membership s && t.peer_counters.(s) < !gossip then
      gossip := t.peer_counters.(s)
  done;
  let horizon =
    match t.store with
    | Some s when t.checkpoint_every > 0 -> max !gossip (Store.checkpoint_position s)
    | Some _ | None -> !gossip
  in
  (* Cost O(batches collected).  An entry whose batch was collected and
     fetched again since, or re-positioned by catch-up, is checked against
     the batch's current position. *)
  while (not (Queue.is_empty t.gc_order)) && fst (Queue.peek t.gc_order) < horizon do
    let _, root = Queue.pop t.gc_order in
    match Hashtbl.find_opt t.batches root with
    | Some ({ position = Some p; _ } as stored) when p < horizon ->
      Hashtbl.remove t.batches root;
      t.stored_bytes <- t.stored_bytes - stored.bytes;
      t.collected_batches <- t.collected_batches + 1
    | Some _ | None -> ()
  done

(* Seconds between GC gossip rounds (delivery-counter exchange). *)
let gc_period = 0.5

let start t =
  Engine.every ?kind:t.k_timer t.engine ~period:gc_period (fun () ->
      if not t.crashed then begin
        t.peer_counters.(t.cfg.self) <- t.delivery_counter;
        for dst = 0 to t.cfg.n - 1 do
          if dst <> t.cfg.self && Membership.is_active t.membership dst then
            t.send_server ~dst ~bytes:(Wire.header_bytes + 8)
              (Gc_status { delivered_counter = t.delivery_counter })
        done;
        gc_sweep t
      end)

(* --- witnessing (#9, #10) ------------------------------------------------ *)

(* A witness request can race ahead of this replica's directory: the broker
   assigns identifiers from the orderer's view, which runs one delivery hop
   ahead of everyone else, so a batch may reference a freshly signed-up
   client whose ordered signup has not been delivered here yet.  The signup
   always precedes the batch in the total order, so the directory catches
   up — defer instead of refusing. *)
let batch_ready t (batch : Batch.t) =
  let n = Directory.size t.dir in
  (match batch.Batch.entries with
   | Batch.Explicit es -> Array.for_all (fun e -> e.Batch.e_id < n) es
   | Batch.Dense _ -> true)
  && Array.for_all (fun s -> s.Batch.s_id < n) batch.Batch.stragglers

(* Refuse to witness [batch] for good.  Its body leaves storage too, if
   the stored copy is this very batch and the order has not positioned it
   (only {!gc_sweep} collects a positioned one).  A copy under the same
   root that passes its check is stored again ({!keep_witnessed}), so a
   server never lacks the body of a root it witnessed, and a peer that
   lacks it fetches it from one that did. *)
let reject_batch t batch =
  let root = Batch.identity_root batch in
  reject_instant t "reject_batch" ~id:(Trace.key root)
    [ ("broker", Trace.A_int batch.Batch.broker);
      ("number", Trace.A_int batch.Batch.number) ];
  match Hashtbl.find_opt t.batches root with
  | Some ({ position = None; _ } as stored) when stored.batch == batch ->
    Hashtbl.remove t.batches root;
    t.stored_bytes <- t.stored_bytes - stored.bytes
  | Some _ | None -> ()

(* [batch] passed its check: it becomes the stored body of its root,
   unless the order has positioned a copy already.  The root covers
   neither the aggregate nor the straggler signatures, so a garbled copy
   stored first may have been refused and dropped, or may be refused
   after this.  A root absent while its ref is ordered here is left to
   the fetch path: the body was collected, or the order took another
   batch for that number. *)
let keep_witnessed t root batch =
  let put ~replaced =
    let bytes = Batch.wire_bytes ~clients:t.cfg.clients batch in
    Hashtbl.replace t.batches root { batch; bytes; position = None };
    t.stored_bytes <- t.stored_bytes - replaced + bytes
  in
  match Hashtbl.find_opt t.batches root with
  | Some { position = Some _; _ } -> ()
  | Some stored when stored.batch == batch -> ()
  | Some stored -> put ~replaced:stored.bytes
  | None when marked t.ordered_refs batch.Batch.broker batch.Batch.number -> ()
  | None -> put ~replaced:0

let rec witness_batch ?(attempt = 0) t batch =
  (* A syncing (bootstrapping) or inactive server must not witness: its
     committee share only counts once it is a caught-up active member. *)
  if (not t.mis_refuse_witness) && (not t.syncing)
     && Membership.is_active t.membership t.cfg.self
  then
  if not (batch_ready t batch) then begin
    note_instant t "defer_witness"
      [ ("root", Trace.A_int (Trace.key (Batch.identity_root batch)));
        ("attempt", Trace.A_int attempt) ];
    (* 100 × 0.2 s rides out an orderer outage (the signup rank cannot be
       delivered anywhere while the order itself is stalled). *)
    if attempt < 100 then
      Engine.schedule ?kind:t.k_timer t.engine ~delay:0.2 (fun () ->
          if not t.crashed then witness_batch ~attempt:(attempt + 1) t batch)
    else
      (* Identifiers the order never produced: a Byzantine broker made
         them up. *)
      reject_batch t batch
  end
  else begin
    let root = Batch.identity_root batch in
    let work = Batch.witness_cpu_work batch in
    let s = tr t in
    if Trace.enabled s then
      Trace.span_begin s ~now:(Engine.now t.engine) ~actor:t.cfg.self
        ~cat:"server" ~name:"witness_verify" ~id:(Trace.key root)
        ~attrs:[ ("cost", Trace.A_float (Cpu.total work)) ];
    Cpu.submit t.cpu ~work (fun () ->
        if Trace.enabled s then
          Trace.span_end s ~now:(Engine.now t.engine) ~actor:t.cfg.self
            ~cat:"server" ~name:"witness_verify" ~id:(Trace.key root);
        if not t.crashed then begin
          (* Aggregate check plus one per-straggler fallback signature.
             This counts the server's logical checks: [Batch.check] may
             reuse the verdict another server's check gave on the same
             batch and keys, but this server pays for its own. *)
          Trace.Counter.add t.c_verify (1 + Batch.straggler_count batch);
          if Batch.check t.dir batch then begin
            keep_witnessed t root batch;
            let statement =
              Certs.witness_statement ~root ~broker:batch.Batch.broker
                ~number:batch.Batch.number
            in
            let share =
              if t.mis_bad_shares then Multisig.forge_garbage ()
              else Certs.sign_shard t.ms_sk statement
            in
            t.send_broker ~broker:batch.Batch.broker ~bytes:Wire.witness_shard_bytes
              (Witness_shard { root; share })
          end
          else
            (* Garbled / malformed batch from a Byzantine broker: refuse to
               witness, loudly. *)
            reject_batch t batch
        end)
  end

(* --- delivery (#13–#16) -------------------------------------------------- *)

(* [deliver_explicit] and [deliver_dense] only decide a batch's outcome: its
   WAL op (the fresh messages) and its exceptions (the replays), against
   [last_msg] / [dense_last] as they stand; {!apply_batch} applies it.
   Deciding every entry first is safe: explicit ids are strictly
   ascending, so no entry of a batch sees another's update. *)
let deliver_explicit t (batch : Batch.t) entries =
  let exceptions = ref [] in
  let delivered = ref [] in
  let seqs = Batch.entry_seqs batch in
  Array.iteri
    (fun i e ->
      let id = e.Batch.e_id in
      let seq = seqs.(i) in
      let last = Int_table.find_opt t.last_msg id in
      let fresh =
        match last with
        | None -> true
        | Some (last_seq, last_m) -> seq > last_seq && e.e_msg <> last_m
      in
      if fresh then delivered := (id, seq, e.e_msg) :: !delivered
      else begin
        let last_seq = match last with Some (s, _) -> s | None -> -1 in
        exceptions := (id, last_seq) :: !exceptions
      end)
    entries;
  (List.rev !exceptions, Proto.Wal_ops (Array.of_list (List.rev !delivered)))

let deliver_dense t (batch : Batch.t) (d : Batch.dense) =
  (* The whole range shares one (sequence number, tag): the usual per-client
     rule collapses into a single range-level check. *)
  let last = Int_table.find_opt t.dense_last d.first_id in
  let fresh =
    match last with
    | None -> true
    | Some (last_seq, last_tag) -> batch.agg_seq > last_seq && d.tag <> last_tag
  in
  if fresh then
    ([],
     Proto.Wal_bulk
       { first_id = d.first_id; count = d.count; tag = d.tag;
         msg_bytes = d.msg_bytes; agg_seq = batch.agg_seq })
  else
    (* Whole-range replay: summarised as a single exception entry. *)
    ( [ (d.first_id, match last with Some (s, _) -> s | None -> -1) ],
      Proto.Wal_ops [||] )

let apply_wal_ops t (op : Proto.wal_op) =
  match op with
  | Proto.Wal_ops entries ->
    Array.iter
      (fun (id, seq, m) -> Int_table.replace t.last_msg id (seq, m))
      entries;
    if Array.length entries > 0 then
      t.deliver_app (Proto.Ops (Array.map (fun (id, _, m) -> (id, m)) entries));
    t.delivered_messages <- t.delivered_messages + Array.length entries
  | Proto.Wal_bulk { first_id; count; tag; msg_bytes; agg_seq } ->
    Int_table.replace t.dense_last first_id (agg_seq, tag);
    t.deliver_app (Proto.Bulk { first_id; count; tag; msg_bytes });
    t.delivered_messages <- t.delivered_messages + count

(* Apply batch [root]'s outcome at the next delivery position, which it
   returns: the one step live delivery, WAL replay and state transfer
   share.  It drives the application and the client dedup tables, and
   positions the batch's body, if stored here, for {!gc_sweep}. *)
let apply_batch t ~root ops =
  apply_wal_ops t ops;
  let position = t.delivery_counter in
  t.delivery_counter <- position + 1;
  (match Hashtbl.find t.batches root with
   | stored ->
     stored.position <- Some position;
     Queue.push (position, root) t.gc_order
   | exception Not_found -> ());
  position

let deliver_batch t ~broker ~number stored =
  let batch = stored.batch in
  let root = Batch.identity_root batch in
  let before_msgs = t.delivered_messages in
  let exceptions, wal_ops =
    match batch.entries with
    | Batch.Explicit entries -> deliver_explicit t batch entries
    | Batch.Dense d -> deliver_dense t batch d
  in
  let position = apply_batch t ~root wal_ops in
  Trace.Counter.incr t.c_deliveries;
  Trace.Counter.add t.c_messages (t.delivered_messages - before_msgs);
  t.peer_counters.(t.cfg.self) <- t.delivery_counter;
  wal_log t
    (Proto.Wal_batch
       { w_position = position; w_broker = broker; w_number = number;
         w_root = root; w_ops = wal_ops });
  maybe_checkpoint t;
  let counter = t.delivery_counter in
  let statement =
    Certs.completion_statement ~root ~counter
      ~exc_hash:(Certs.exceptions_hash exceptions)
  in
  let share = Certs.sign_shard t.ms_sk statement in
  t.send_broker ~broker:batch.broker
    ~bytes:(Wire.completion_shard_bytes ~exceptions:(List.length exceptions))
    (Completion_shard { root; counter; exceptions; share })

let dup_ref t o =
  reject_instant t "dup_ref" ~id:(Trace.key o.o_root)
    [ ("broker", Trace.A_int o.o_broker); ("number", Trace.A_int o.o_number) ]

(* The §4.4 dedup: the first verified ref in STOB order for a (broker,
   number) slot takes it and queues for delivery; a later one — a
   redundant relay or an equivocating broker's second batch — is dropped.
   This deduplication is what makes broker equivocation harmless. *)
let order_ref t o =
  if Lwm.add (window t.ordered_refs o.o_broker) o.o_number then begin
    (let s = tr t in
     if Trace.enabled s then
       Trace.instant s ~now:(Engine.now t.engine) ~actor:t.cfg.self
         ~cat:"server" ~name:"ordered" ~id:(Trace.key o.o_root)
         ~attrs:[ ("number", Trace.A_int o.o_number) ]);
    Queue.add o t.order_queue
  end
  else dup_ref t o

let rec send_sync_request t =
  let dst =
    (* Rotate over active peers. *)
    Option.value ~default:t.sync_peer
      (Membership.next_active t.membership ~from:t.sync_peer ~skip:(Some t.cfg.self))
  in
  t.sync_peer <- (dst + 1) mod t.cfg.n;
  t.send_server ~dst ~bytes:Wire.sync_request_bytes
    (Sync_request { from_position = t.delivery_counter });
  (* Seeded exponential backoff with a cap, so a restarter cut off from
     its peers (mid-partition join) does not hammer the network at a
     fixed period while it waits for the heal. *)
  let delay = t.sync_backoff *. (0.75 +. Rng.float t.sync_rng 0.5) in
  t.sync_backoff <- Float.min sync_backoff_cap (t.sync_backoff *. 2.0);
  let epoch = t.restarts in
  t.sync_timer <-
    Some
      (Engine.timer ?kind:t.k_timer t.engine ~delay (fun () ->
           (* Peer crashed or partitioned: rotate to the next one. *)
           if t.syncing && (not t.crashed) && t.restarts = epoch then begin
             note_instant t "sync_retry"
               [ ("peer", Trace.A_int dst);
                 ("delay", Trace.A_float delay);
                 ("position", Trace.A_int t.delivery_counter) ];
             send_sync_request t
           end))

let begin_catch_up t =
  t.syncing <- true;
  t.sync_peer <- (t.cfg.self + 1) mod t.cfg.n;
  t.sync_backoff <- sync_backoff_base;
  send_sync_request t

let rec drain_order_queue t =
  (* While catching up the queue must not deliver: the gap below it is
     being filled by state transfer, and delivering out of turn would
     assign wrong positions. *)
  if t.delivering || t.syncing then ()
  else
  match Queue.peek_opt t.order_queue with
  | None -> ()
  | Some ({ o_broker = broker; o_number = number; o_root = root; _ } as o) ->
    (match Hashtbl.find_opt t.batches root with
     | Some stored when stored.position = None && not o.o_paired ->
       () (* its pairing job drains the queue when it completes *)
     | Some stored when stored.position = None ->
       ignore (Queue.take t.order_queue);
       t.delivering <- true;
       let work = Batch.delivery_cpu_work stored.batch in
       let epoch = t.restarts in
       let s = tr t in
       if Trace.enabled s then
         Trace.span_begin s ~now:(Engine.now t.engine) ~actor:t.cfg.self
           ~cat:"server" ~name:"deliver" ~id:(Trace.key root);
       Cpu.submit t.cpu ~work (fun () ->
           if t.restarts = epoch then begin
             t.delivering <- false;
             if (not t.crashed) && (not t.syncing) && stored.position = None
             then begin
               deliver_batch t ~broker ~number stored;
               if Trace.enabled s then
                 Trace.span_end s ~now:(Engine.now t.engine) ~actor:t.cfg.self
                   ~cat:"server" ~name:"deliver" ~id:(Trace.key root);
               drain_order_queue t
             end
           end)
     | Some _ ->
       (* Already delivered through an earlier reference: skip. *)
       ignore (Queue.take t.order_queue);
       drain_order_queue t
     | None -> fetch_batch t ~number ~root)

(* The first target follows the batch number, so fetches for consecutive
   batches spread over the peers; each retry round moves one peer on. *)
and fetch_batch ?(rounds = 0) t ~number ~root =
  if rounds >= 3 && t.store <> None && not t.syncing then begin
    (* Every live peer has collected this body: their checkpoints moved
       past it while we trailed.  That is by design — the GC horizon
       assumes a laggard recovers the batch's *effects* through state
       transfer, not the batch itself — so stop fetching and re-enter
       catch-up, which drains this queue when it ends. *)
    note_instant t "refetch_resync"
      [ ("root", Trace.A_int (Trace.key root));
        ("position", Trace.A_int t.delivery_counter) ];
    begin_catch_up t
  end
  else if not (Hashtbl.mem t.fetching root) then begin
    Hashtbl.add t.fetching root ();
    let target =
      let n = t.cfg.n in
      let c0 = (t.cfg.self + 1 + ((number + rounds) mod (max 1 (n - 1)))) mod n in
      Option.value ~default:c0
        (Membership.next_active t.membership ~from:c0 ~skip:(Some t.cfg.self))
    in
    t.send_server ~dst:target ~bytes:Wire.witness_request_bytes
      (Request_batch { root });
    (* Retry from another peer if the batch does not show up. *)
    Engine.schedule ?kind:t.k_timer t.engine ~delay:1.0 (fun () ->
        if (not t.crashed) && Hashtbl.mem t.fetching root then begin
          Hashtbl.remove t.fetching root;
          fetch_batch ~rounds:(rounds + 1) t ~number ~root
        end)
  end

(* --- cold restart: WAL replay and peer state transfer -------------------- *)

let replay_record t (r : Proto.wal_record) =
  match r with
  | Proto.Wal_signup { w_nonce; w_card; w_id; w_pos = _ } ->
    if Hashtbl.mem t.seen_signups w_nonce then false
    else begin
      Hashtbl.add t.seen_signups w_nonce ();
      (* The directory object is shared with the brokers and survives the
         crash; re-append only when the entry is genuinely missing (a
         fresh-directory replay in tests), and never resend Signup_done. *)
      if Directory.size t.dir <= w_id then ignore (Directory.append t.dir w_card);
      true
    end
  | Proto.Wal_reconfig { w_change; w_ms_pk; w_rpos = _ } ->
    (* Changes already covered by the restored checkpoint are no-ops
       thanks to the {!Membership.applies} idempotence guard. *)
    if Membership.applies t.membership w_change then begin
      ignore (Membership.apply t.membership w_change);
      (match w_ms_pk, w_change with
       | Some pk, (Membership.Join i | Membership.Replace (i, _)) ->
         t.set_server_pk i pk
       | _ -> ());
      true
    end
    else false
  | Proto.Wal_batch { w_position; w_broker; w_number; w_root; w_ops } ->
    (* Contiguity: a record applies exactly at its position.  Records below
       the counter are duplicates (already covered by the checkpoint or an
       earlier response); records above would leave a gap.  A replayed
       batch resends no completion shard (the brokers got them the first
       time) and leaves the global trace delivery counters alone. *)
    if w_position <> t.delivery_counter then false
    else begin
      ignore (apply_batch t ~root:w_root w_ops);
      ignore (Lwm.add (window t.ordered_refs w_broker) w_number);
      true
    end

let restore_checkpoint t (ck : Proto.checkpoint) =
  Int_table.reset t.last_msg;
  Int_table.reset t.dense_last;
  Hashtbl.reset t.ordered_refs;
  Hashtbl.reset t.seen_signups;
  List.iter
    (fun (id, seq, m) -> Int_table.replace t.last_msg id (seq, m))
    ck.Proto.ck_last_msg;
  List.iter
    (fun (fid, seq, tag) -> Int_table.replace t.dense_last fid (seq, tag))
    ck.Proto.ck_dense_last;
  List.iter
    (fun (b, low, above) ->
      Hashtbl.replace t.ordered_refs b
        (Lwm.restore ~window:ref_window ~low ~above ()))
    ck.Proto.ck_windows;
  List.iter (fun nonce -> Hashtbl.replace t.seen_signups nonce ()) ck.Proto.ck_signups;
  (* Rebuild the explicit directory from the checkpoint: a joining server
     restores a *peer's* snapshot, and its signup records live below the
     checkpoint position, so the cards arrive only this way.  The
     directory object is append-only and shared with the brokers —
     existing ranks are left untouched. *)
  List.iteri
    (fun i card ->
      if Directory.size t.dir <= Directory.dense_count t.dir + i then
        ignore (Directory.append t.dir card))
    ck.Proto.ck_cards;
  Membership.restore t.membership (ck.Proto.ck_epoch, ck.Proto.ck_members);
  t.delivery_counter <- ck.Proto.ck_position;
  t.delivered_messages <- ck.Proto.ck_messages;
  match t.app_restore with
  | Some restore -> restore ck.Proto.ck_app
  | None -> ()

(* The one catch-up rule.  The peer answered with an empty backlog, so it
   had delivered or dropped every ref of the slots below its cursor: a ref
   tagged at or below that cursor is covered by the transfer and dropped.
   The rest come after the transferred state in STOB order.  A ref queued
   before catch-up (a refetch re-sync) passed the dedup then, and gets its
   mark back (a restored peer checkpoint may lack it); a held ref meets the
   dedup now, as the peers' did at its slot. *)
let finish_catch_up t ~peer_stob_cursor =
  t.syncing <- false;
  let covered o = o.o_tag <= peer_stob_cursor in
  let queued = Queue.create () in
  Queue.transfer t.order_queue queued;
  Queue.iter
    (fun o ->
      if not (covered o) then begin
        ignore (Lwm.add (window t.ordered_refs o.o_broker) o.o_number);
        Queue.add o t.order_queue
      end)
    queued;
  Queue.iter (fun o -> if not (covered o) then order_ref t o) t.held;
  Queue.clear t.held;
  (* Everything the peers ordered below their cursor reached us as state
     transfer; fast-forward the underlay past the slots missed while down
     so live slots from here on deliver.  (Slots ordered after the peer's
     response are already arriving at our recovered underlay.) *)
  t.stob_resume (max (t.stob_cursor ()) peer_stob_cursor);
  note_instant t "caught_up"
    [ ("position", Trace.A_int t.delivery_counter);
      ("rounds", Trace.A_int t.sync_rounds);
      ("records", Trace.A_int t.catch_up_records) ];
  drain_order_queue t

let cold_restart t =
  match t.store with
  | None -> invalid_arg "Server.cold_restart: no durable store attached"
  | Some s ->
    t.crashed <- false;
    t.restarts <- t.restarts + 1;
    t.syncing <- true; (* gate delivery for the whole recovery window *)
    t.sync_rounds <- 0;
    t.sync_floor <- t.stob_cursor ();
    t.catch_up_ck <- false;
    (* Wipe every in-memory structure: only the disk state survives. *)
    Hashtbl.reset t.batches;
    t.stored_bytes <- 0;
    Queue.clear t.gc_order;
    Hashtbl.reset t.ordered_refs;
    Hashtbl.reset t.relayed_refs;
    Queue.clear t.order_queue;
    Queue.clear t.held;
    Hashtbl.reset t.checks;
    Queue.clear t.turns;
    t.checking <- 0;
    Int_table.reset t.last_msg;
    Int_table.reset t.dense_last;
    t.delivery_counter <- 0;
    t.delivered_messages <- 0;
    Membership.reset t.membership;
    Array.fill t.peer_counters 0 t.cfg.n 0;
    Hashtbl.reset t.fetching;
    Hashtbl.reset t.seen_signups;
    t.delivering <- false;
    (match t.sync_timer with Some tm -> Engine.cancel tm | None -> ());
    t.sync_timer <- None;
    (match t.app_restore with Some restore -> restore None | None -> ());
    note_instant t "cold_restart" [];
    let epoch = t.restarts in
    Store.load s ~k:(fun ck records ->
        if (not t.crashed) && t.restarts = epoch then begin
          (match ck with Some ck -> restore_checkpoint t ck | None -> ());
          let bytes =
            (match ck with
             | Some ck -> Store_wire.checkpoint_bytes ck
             | None -> 0)
            + List.fold_left
                (fun acc r -> acc + Store_wire.wal_record_bytes r)
                0 records
          in
          (* Deserialize + re-apply cost, on the CPU after the disk read. *)
          Cpu.submit t.cpu
            ~work:(Cpu.parallel (Cost.serialize_per_byte *. float_of_int bytes))
            (fun () ->
              if (not t.crashed) && t.restarts = epoch then begin
                List.iter (fun r -> ignore (replay_record t r)) records;
                t.peer_counters.(t.cfg.self) <- t.delivery_counter;
                note_instant t "wal_replayed"
                  [ ("position", Trace.A_int t.delivery_counter);
                    ("records", Trace.A_int (List.length records)) ];
                begin_catch_up t
              end)
        end)

(* --- message handlers ----------------------------------------------------- *)

(* Hand the CPU the next broker's oldest witness check while a lane is
   free of them: an uncontended check starts at once, and a flooding
   broker holds at most its turn's share of the lanes. *)
let rec start_checks t =
  if t.checking < Cpu.cores t.cpu && not (Queue.is_empty t.turns) then begin
    let broker = Queue.pop t.turns in
    let fifo = Hashtbl.find t.checks broker in
    let { c_root = root; c_number = number; c_witness = witness } =
      Queue.pop fifo
    in
    if not (Queue.is_empty fifo) then Queue.add broker t.turns;
    t.checking <- t.checking + 1;
    let epoch = t.restarts in
    Cpu.submit t.cpu ~work:(Cpu.serial Cost.bls_verify) (fun () ->
        if t.restarts = epoch then begin
          t.checking <- t.checking - 1;
          if not t.crashed then begin
            Trace.Counter.incr t.c_verify;
            if
              Certs.check_witness t.certs ~root ~broker ~number ~quorum:(quorum t)
                witness
            then begin
              t.stob_broadcast (Stob_item.Batch_ref { broker; number; root; witness });
              t.send_broker ~broker ~bytes:(Wire.header_bytes + 32)
                (Submit_ack { root })
            end
            else
              reject_instant t "reject_witness" ~id:(Trace.key root)
                [ ("broker", Trace.A_int broker); ("number", Trace.A_int number) ]
          end;
          start_checks t
        end);
    start_checks t
  end

let receive_broker t ~src_broker msg =
  if not t.crashed then
    match msg with
    | Proto.Batch_announce { batch; witness_requested } ->
      if batch.Batch.broker = src_broker then begin
        ignore (store_batch t batch);
        if witness_requested then witness_batch t batch
      end
    | Proto.Witness_request { root } ->
      (match Hashtbl.find_opt t.batches root with
       | Some stored -> witness_batch t stored.batch
       | None -> ())
    | Proto.Relay_signup { card; nonce } ->
      t.stob_broadcast (Stob_item.Signup { card; reply_broker = src_broker; nonce })
    | Proto.Submit { root; number; witness } ->
      (* Relay the batch reference into the server-run STOB, once, after
         its witness checks out.  A ref already ordered is only
         acknowledged: a second relay would order a duplicate. *)
      let fifo = per_broker t.checks src_broker Queue.create in
      if marked t.ordered_refs src_broker number then begin
        (* Its slot is taken (§4.4): a retry whose ack went missing, or an
           equivocating broker's second batch.  Acknowledge, relay no
           duplicate. *)
        reject_instant t "dup_submit" ~id:(Trace.key root)
          [ ("broker", Trace.A_int src_broker);
            ("number", Trace.A_int number) ];
        t.send_broker ~broker:src_broker ~bytes:(Wire.header_bytes + 32)
          (Submit_ack { root })
      end
      else if Queue.length fifo >= ref_window then
        (* More checks queued than an honest broker has numbers out: shed
           it unmarked, so the broker's retry is judged afresh. *)
        reject_instant t "reject_admission" ~id:(Trace.key root)
          [ ("broker", Trace.A_int src_broker);
            ("number", Trace.A_int number) ]
      else begin
        let relayed = window t.relayed_refs src_broker in
        (* Relays the order has since covered need no mark of their own. *)
        (match Hashtbl.find t.ordered_refs src_broker with
         | w -> Lwm.advance relayed (Lwm.low w)
         | exception Not_found -> ());
        if Lwm.add relayed number then begin
          if Queue.is_empty fifo then Queue.add src_broker t.turns;
          Queue.add { c_root = root; c_number = number; c_witness = witness } fifo;
          start_checks t
        end
      end

let receive_server t ~src msg =
  if not t.crashed then
    match msg with
    | Proto.Request_batch { root } ->
      (match Hashtbl.find_opt t.batches root with
       | Some stored ->
         t.send_server ~dst:src ~bytes:stored.bytes
           (Batch_response { batch = stored.batch })
       | None -> ())
    | Proto.Batch_response { batch } ->
      let root = store_batch t batch in
      if Hashtbl.mem t.fetching root then begin
        Hashtbl.remove t.fetching root;
        drain_order_queue t
      end
    | Proto.Gc_status { delivered_counter } ->
      if delivered_counter > t.peer_counters.(src) then begin
        t.peer_counters.(src) <- delivered_counter;
        gc_sweep t
      end
    | Proto.Sync_request { from_position } ->
      (match t.store with
       | None -> () (* nothing durable to serve *)
       | Some s ->
         let checkpoint =
           if Store.checkpoint_position s > from_position then
             Store.latest_checkpoint s
           else None
         in
         let base =
           match checkpoint with
           | Some ck -> ck.Proto.ck_position
           | None -> from_position
         in
         let records = Store.records_from s ~position:base in
         (* A server catching up may lack refs its underlay has passed. *)
         let backlog =
           order_queue_depth t + (if t.delivering || t.syncing then 1 else 0)
         in
         let bytes = Store_wire.sync_response_bytes ~checkpoint ~records in
         let resp =
           Proto.Sync_response
             { position = t.delivery_counter; stob_cursor = t.stob_cursor ();
               backlog; checkpoint; records }
         in
         (* Serving state transfer streams the log back off the device. *)
         Disk.read (Store.disk s) ~bytes (fun () ->
             if not t.crashed then t.send_server ~dst:src ~bytes resp))
    | Proto.Sync_response { position; stob_cursor; backlog; checkpoint; records }
      ->
      if t.syncing then begin
        (match t.sync_timer with Some tm -> Engine.cancel tm | None -> ());
        t.sync_timer <- None;
        t.sync_backoff <- sync_backoff_base; (* progress: reset the backoff *)
        t.sync_rounds <- t.sync_rounds + 1;
        (match checkpoint with
         | Some ck when ck.Proto.ck_position > t.delivery_counter ->
           (* The peer's snapshot is ahead of everything we have: replace
              our state wholesale and replay its WAL suffix on top. *)
           restore_checkpoint t ck;
           t.catch_up_ck <- true;
           (match t.store with
            | Some s when Store.checkpoint_position s < ck.Proto.ck_position ->
              Store.checkpoint s ~position:ck.Proto.ck_position
                ~bytes:(Store_wire.checkpoint_bytes ck) ck
            | Some _ | None -> ())
         | Some _ | None -> ());
        List.iter
          (fun r ->
            if replay_record t r then begin
              t.catch_up_records <- t.catch_up_records + 1;
              wal_log t r;
              maybe_checkpoint t
            end)
          records;
        t.peer_counters.(t.cfg.self) <- t.delivery_counter;
        if t.delivery_counter >= position && backlog = 0
           && stob_cursor >= t.sync_floor
        then finish_catch_up t ~peer_stob_cursor:stob_cursor
        else begin
          (* The peer is still ahead, had deliveries in flight, or has not
             yet reached our restart's slots: let it advance a little and
             ask again. *)
          let epoch = t.restarts in
          Engine.schedule ?kind:t.k_timer t.engine ~delay:0.25 (fun () ->
              if t.syncing && (not t.crashed) && t.restarts = epoch then
                send_sync_request t)
        end
      end

let on_stob_deliver t item =
  if not t.crashed then
    match item with
    | Stob_item.Signup { card; reply_broker; nonce } ->
      if not (Hashtbl.mem t.seen_signups nonce) then begin
        Hashtbl.add t.seen_signups nonce ();
        let id = Directory.append t.dir card in
        wal_log t
          (Proto.Wal_signup
             { w_nonce = nonce; w_card = card; w_id = id;
               w_pos = t.delivery_counter });
        t.send_broker ~broker:reply_broker ~bytes:(Wire.header_bytes + 16)
          (Signup_done { nonce; id })
      end
    | Stob_item.Reconfigure { change; ms_pk } ->
      (* Ordered reconfiguration: every correct server applies the change
         at the same total-order position, so the active set, the multisig
         committee and the quorum thresholds roll forward in lockstep.
         A duplicate (rebroadcast, or already learned via state transfer)
         is a no-op through the idempotence guard. *)
      if Membership.applies t.membership change then begin
        ignore (Membership.apply t.membership change);
        (match ms_pk, change with
         | Some pk, (Membership.Join i | Membership.Replace (i, _)) ->
           t.set_server_pk i pk
         | _ -> ());
        wal_log t
          (Proto.Wal_reconfig
             { w_change = change; w_ms_pk = ms_pk;
               w_rpos = t.delivery_counter });
        note_instant t "reconfigure"
          [ ("epoch", Trace.A_int (Membership.epoch t.membership));
            ("change", Trace.A_str (Membership.describe change)) ];
        match change with
        | Membership.Leave i when i = t.cfg.self ->
          (* Ordered out: stop participating; the deployment hook tears
             down this node's network presence. *)
          t.crashed <- true;
          t.on_self_leave ()
        | _ -> ()
      end
    | Stob_item.Batch_ref { broker; number; root; witness } ->
      let o =
        { o_broker = broker; o_number = number; o_root = root;
          o_tag = t.stob_cursor (); o_paired = false }
      in
      if (not t.syncing) && marked t.ordered_refs broker number then
        (* A taken slot: dropped before its witness costs a pairing. *)
        dup_ref t o
      else begin
        Trace.Counter.incr t.c_verify;
        if
          Certs.check_witness t.certs ~root ~broker ~number ~quorum:(quorum t)
            witness
        then begin
          (* Only a verified ref takes its slot: a forged witness must not
             use up (or slide past) an honest broker's numbers.  While
             catching up the windows are stale: hold it until they are
             not. *)
          if t.syncing then Queue.add o t.held else order_ref t o;
          (* One serial pairing job per reference, charged now: consecutive
             references pair on different lanes instead of queueing behind
             each delivery (DESIGN.md §4c). *)
          let epoch = t.restarts in
          Cpu.submit t.cpu ~work:(Cpu.serial Cost.bls_verify) (fun () ->
              if t.restarts = epoch then begin
                o.o_paired <- true;
                if not t.crashed then drain_order_queue t
              end);
          drain_order_queue t
        end
        else
          reject_instant t "reject_witness" ~id:(Trace.key root)
            [ ("broker", Trace.A_int broker); ("number", Trace.A_int number) ]
      end

let crash t = t.crashed <- true

(* Warm recovery (fig. 11a): un-crash in place, keeping all in-memory state.
   The chopchop layer above the STOB resumes where it stopped; batches and
   references that were exchanged while down are re-obtainable through the
   fetch path, but STOB slots missed during the outage are not (see
   {!Repro_stob}), so a recovered server is prefix-correct, not live.  Use
   {!cold_restart} (durable state required) for a recovery that catches the
   server back up to its peers. *)
let recover t = t.crashed <- false

(* Byzantine switches (lib/chaos). *)

let misbehave_bad_shares t = t.mis_bad_shares <- true
let misbehave_refuse_witness t = t.mis_refuse_witness <- true
