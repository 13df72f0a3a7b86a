(** Chop Chop broker (Appx. B.2.2, §5.1).

    Brokers are the untrusted distillation workhorses: they collect client
    submissions, propose a batch (Merkle root + aggregate sequence
    number), gather the clients' multi-signature shares, aggregate them,
    ship the distilled batch to the servers, drive the witness round, hand
    the batch reference to the server-run Atomic Broadcast, and finally
    distribute delivery certificates back to the clients.

    The §5.1 engineering is implemented: submissions are authenticated in
    bulk with Schnorr batch verification; reduction shares are verified in
    aggregate, with logarithmic tree-search isolation of invalid shares
    ({!Repro_crypto.Multisig.find_invalid}); legitimacy proofs are cached
    (only a certificate higher than the best seen is ever verified).

    Load brokers (§6.2) reuse the pipeline from {!submit_prebuilt}
    onwards, skipping the interactive distillation they pre-computed. *)

type t

type config = {
  broker_id : int;
  n_servers : int;
  clients : int; (* directory size, for wire arithmetic *)
  flush_period : float; (* batch collection window (1 s in §5.1) *)
  reduce_timeout : float; (* distillation timeout (1 s in §5.1) *)
  witness_margin : int; (* ask f+1+margin servers for shards (§6.2) *)
  max_batch : int; (* cap on entries per batch (65,536 in §6.2) *)
}

val default_config : n_servers:int -> clients:int -> config

val create :
  engine:Repro_sim.Engine.t ->
  cpu:Repro_sim.Cpu.t ->
  config:config ->
  ?membership:Membership.t ->
  directory:Directory.t ->
  certs:Certs.checker ->
  send_server:(dst:int -> bytes:int -> Proto.broker_to_server -> unit) ->
  send_client:(client:Types.client_id -> bytes:int -> Proto.broker_to_client -> unit) ->
  send_anon:(nonce:int -> bytes:int -> Proto.broker_to_client -> unit) ->
  stob_signup:(Stob_item.t -> unit) ->
  unit ->
  t
(** [directory] is a server's copy of the one Rank directory: every
    broker, in a broker fleet or not, resolves any client identifier
    through it. *)

val start : t -> unit
(** Arm the periodic flush. *)

val receive_client : t -> Proto.client_to_broker -> unit
val receive_server : t -> src:int -> Proto.server_to_broker -> unit

val submit_prebuilt : t -> Batch.t -> on_complete:(Certs.delivery_cert -> unit) -> unit
(** Inject a pre-distilled batch (load brokers): runs dissemination,
    witnessing, submission and completion, then invokes [on_complete]. *)

val crash : t -> unit

val recover : t -> unit
(** Undo {!crash}.  Brokers are stateless from the system's point of view
    (§4.4): the flush loop and retry timers were merely gated while down,
    so the broker resumes batching and driving its in-flight work. *)

(** {2 Byzantine fault injection}

    Switches flipped by [lib/chaos] to exercise the trustless-broker
    claims of §4.4.  They mirror {!Client.misbehave_bad_share}: one-way,
    default honest.  Each attack is observable through "reject_*" /
    "dup_ref" / "dup_submit" trace instants on the correct nodes that
    catch it. *)

val misbehave_equivocate : t -> unit
(** Distill each proposal into {e two} valid all-straggler batches that
    claim the same (broker, number) slot, announcing one to even-numbered
    servers and the other to odd-numbered ones, and submitting each to a
    different relay server.  Both can be witnessed and ordered — the
    servers' (broker, number) deduplication at STOB delivery is what
    keeps at most one on the totally ordered log. *)

val misbehave_garble_reduction : t -> unit
(** Replace the aggregate reduction multi-signature with garbage; correct
    servers fail [Batch.verify] and refuse to witness. *)

val misbehave_malform : t -> unit
(** Tamper with one client message after signing; no signature covers the
    altered payload, so correct servers refuse to witness. *)

val misbehave_withhold_certs : t -> unit
(** Complete batches but never distribute delivery certificates; clients
    must fall back to resubmitting through another broker. *)

(* Introspection. *)

val batches_in_flight : t -> int

val pool_depth : t -> int
(** Submissions waiting for the next flush: one per client, the one with
    the highest sequence number received (a lower or equal one is
    dropped). *)

val batches_completed : t -> int

val distillation_ratio : t -> float
(** Fraction of launched entries covered by the aggregate multi-signature
    (1.0 = fully distilled; drops when clients miss the reduction window,
    e.g. under packet loss, §4.2/§5.1). *)
