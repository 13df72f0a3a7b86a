(** Chop Chop server (Appx. B.2.3, §5.2).

    A server stores batches received from brokers, witnesses those it is
    asked to (after fully verifying well-formedness), trusts witnesses for
    the rest, delivers batches in the total order decided by the
    underlying Atomic Broadcast, deduplicates per-client, answers with
    completion shards, and garbage-collects batches that every server has
    delivered.

    The module is a state machine over callbacks: the deployment wires
    [send_*] into the network model, [stob_broadcast] into the local STOB
    instance, and calls {!on_stob_deliver} from the STOB's deliver
    upcall.  CPU time for verification, deduplication and serialization is
    charged on the node's {!Repro_sim.Cpu} queue before effects happen.

    Brokers are untrusted, so the witness checks of their [Submit]s share
    the CPU round-robin: one FIFO per broker, at most one check per lane
    on the CPU, the next taken from the next broker in turn.  A FIFO holds
    at most {!ref_window} checks; a [Submit] past that is shed
    (["reject_admission"]) and its broker's retry judged afresh.

    With a {!Repro_store.Store} attached the server additionally keeps a
    durable WAL of delivery outcomes plus periodic checkpoints, and
    supports {!cold_restart}: wipe all in-memory state, replay the local
    log, then state-transfer the missed suffix from live peers until
    caught up. *)

type t

type config = {
  self : int;
  n : int; (* server slot capacity; f follows the active membership *)
  clients : int; (* directory size, for wire arithmetic *)
}

val create :
  engine:Repro_sim.Engine.t ->
  cpu:Repro_sim.Cpu.t ->
  config:config ->
  ?store:(Proto.checkpoint, Proto.wal_record) Repro_store.Store.t ->
  ?checkpoint_every:int ->
  ?stob_cursor:(unit -> int) ->
  ?stob_resume:(int -> unit) ->
  ?membership:Membership.t ->
  ?set_server_pk:(int -> Repro_crypto.Multisig.public_key -> unit) ->
  ?on_self_leave:(unit -> unit) ->
  directory:Directory.t ->
  ms_sk:Repro_crypto.Multisig.secret_key ->
  certs:Certs.checker ->
  send_broker:(broker:int -> bytes:int -> Proto.server_to_broker -> unit) ->
  send_server:(dst:int -> bytes:int -> Proto.server_to_server -> unit) ->
  stob_broadcast:(Stob_item.t -> unit) ->
  deliver_app:(Proto.delivery -> unit) ->
  unit ->
  t
(** [store] attaches durable state; [checkpoint_every] (deliveries,
    default 0 = never) controls snapshot density.  [stob_cursor] /
    [stob_resume] let cold restart fast-forward the ordering underlay
    past slots recovered through state transfer.  [membership] shares the
    dynamic server roster (defaults to a static full one);
    [set_server_pk] publishes a joining/replacing server's multisig key to
    the deployment, where [certs] reads the keys it checks witness
    certificates against; [on_self_leave] fires when an ordered [Leave] of
    this very slot is delivered. *)

val start : t -> unit
(** Arm the periodic GC gossip. *)

val receive_broker : t -> src_broker:int -> Proto.broker_to_server -> unit
val receive_server : t -> src:int -> Proto.server_to_server -> unit

val on_stob_deliver : t -> Stob_item.t -> unit
(** Upcall from the underlying Atomic Broadcast (#13). *)

val crash : t -> unit

val recover : t -> unit
(** Warm recovery: undo {!crash} keeping in-memory state.  Messages and
    STOB slots missed while down are not replayed: the recovered server
    remains a correct {e prefix} of the system but may stall at its
    delivery gap (lib/chaos marks such nodes degraded when checking
    liveness).  Use {!cold_restart} for full recovery. *)

val cold_restart : t -> unit
(** Restart from durable state: wipe every in-memory structure, replay
    checkpoint + WAL off the simulated disk, then pull the missed suffix
    from live peers (Sync_request/Sync_response) until the delivery
    counter reaches a peer's that is not catching up itself, has an empty
    ordering backlog, and whose underlay's cursor has passed this
    server's at the restart.  Refs ordered meanwhile are held, each tagged with the underlay's
    cursor; at the end those at or below the peer's cursor are dropped
    (the transfer covered them) and the rest meet the ordered-ref dedup
    in STOB order, as they did at the peers.
    @raise Invalid_argument when no store is attached. *)

val set_app_hooks :
  t -> snapshot:(unit -> string) -> restore:(string option -> unit) -> unit
(** Application state capture for checkpoints: [snapshot ()] serializes
    the app, [restore (Some s)] reinstates a snapshot, [restore None]
    resets the app to its initial state (cold restart, pre-replay). *)

(** {2 Byzantine fault injection}

    Switches flipped by [lib/chaos]; one-way, default honest.  Up to [f]
    servers may misbehave without affecting safety or liveness
    (n = 3f+1, witness quorum f+1, §4.3). *)

val misbehave_bad_shares : t -> unit
(** Witness normally but emit garbage multi-signature shares; correct
    brokers reject them ("reject_shard" instants) and gather the quorum
    from honest servers. *)

val misbehave_refuse_witness : t -> unit
(** Ignore all witness requests (fail-silent on the witnessing path while
    still ordering and delivering).  Brokers route around it via the
    witness-set extension timeout. *)

(* Introspection for experiments and tests. *)

val delivery_counter : t -> int
(** Batches delivered so far. *)

val delivered_messages : t -> int
(** Application messages delivered (after deduplication). *)

val order_queue_depth : t -> int
(** Ordered batch references not yet delivered (missing batch, CPU busy,
    or held while catching up) — the STOB→delivery backlog. *)

val ref_windows : t -> (int * int * int list) list
(** Each broker's ordered-ref window as [(broker, low, above)], ascending
    by broker: every number below [low] and each one in [above] names a
    verified ref this server saw ordered (or passed over by the window's
    slide).  It is a function of the total order, so every caught-up
    replica holds the same list; checkpoints carry it. *)

val ref_window : int
(** Span of a window in batch numbers: a verified ref at [n >= low +
    ref_window] slides the mark to [n - ref_window + 1] (DESIGN.md §4b). *)

val ref_state_words : t -> int
(** Heap words of all batch-ref dedup state, the ordered and relayed
    windows: O(brokers × {!ref_window}) whatever brokers send. *)

val stored_batches : t -> int
val stored_bytes : t -> int
(** Memory pressure: §8 calls out garbage collection under load as a
    limitation; Fig. 11a's crash experiment makes this grow. *)

val collected_batches : t -> int
(** Batches garbage-collected so far (GC-progress assertions). *)

val catching_up : t -> bool
(** True between {!cold_restart} and the end of state transfer. *)

val sync_rounds : t -> int
(** Sync_request round-trips used by the last catch-up. *)

val catch_up_records : t -> int
(** WAL records obtained from peers (cumulative across restarts). *)

val catch_up_checkpoint : t -> bool
(** Whether the last catch-up installed a peer checkpoint (as opposed to
    covering the gap with WAL records alone). *)

val restarts : t -> int
(** Cold restarts so far. *)

val directory : t -> Directory.t

(** {2 Dynamic membership} *)

val membership : t -> Membership.t

val epoch : t -> int
(** Membership epoch (ordered reconfigurations applied so far). *)

val quorum : t -> int
(** Current witness / completion quorum, [f+1] over the active set. *)

val broadcast_reconfigure :
  t -> Membership.change -> ms_pk:Repro_crypto.Multisig.public_key option -> unit
(** Inject a membership change into the ordering underlay; every server
    applies it at the same delivery rank. *)
