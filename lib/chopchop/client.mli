(** Chop Chop client (Appx. B.2.1).

    A client signs up through a broker (receiving its dense identifier
    from the directory), then broadcasts messages one at a time (client
    rule CR1): application messages queue locally and flush in bursts,
    Nagle-style (§4.2, "What if a client broadcasts too frequently?").

    For each broadcast the client: submits (id, seq, msg) with an
    individual fallback signature and its best legitimacy evidence (#2);
    on receiving an inclusion proof it checks the proof against the
    proposal root, checks the aggregate sequence number's legitimacy, and
    multi-signs the root (#5–#6); on receiving a delivery certificate it
    verifies the f+1 quorum and the inclusion proof, adopts the sequence
    number, and proceeds to its next message (#19).

    Timeouts re-submit the message, rotating to a different broker —
    validity survives any number of faulty brokers as long as one is
    correct (§4.4.2). *)

type t

type config = {
  brokers : int list; (* broker ids, in preference order *)
  clients : int; (* directory size, for wire arithmetic *)
}
(** Resubmissions back off exponentially from 8 s to a 60 s cap, with
    deterministic seeded jitter (±25%) so clients orphaned by the same
    broker crash fail over unsynchronized. *)

val create :
  engine:Repro_sim.Engine.t ->
  config:config ->
  keypair:Types.keypair ->
  membership:Membership.t ->
  certs:Certs.checker ->
  send_broker:(broker:int -> bytes:int -> Proto.client_to_broker -> unit) ->
  ?on_delivered:(Types.message -> latency:float -> unit) ->
  ?nonce:int ->
  unit ->
  t
(** [nonce] must be unique per client in the deployment (used to route the
    sign-up response); defaults are assigned by {!Deployment}.
    [membership] is the live committee view shared with the deployment:
    delivery certificates are verified, through the deployment's [certs],
    against the current epoch's quorum. *)

val signup : t -> unit
(** Start the sign-up; queued messages flow once the id is assigned. *)

val force_identity : t -> Types.client_id -> unit
(** Skip sign-up for pre-provisioned (dense) identities. *)

val broadcast : t -> Types.message -> unit
(** Queue a message for atomic broadcast. *)

val receive : t -> Proto.broker_to_client -> unit

val rehome : t -> unit
(** Point the broker rotation back at the head of the preference list and
    reset the resubmission backoff — called by the deployment when the
    client's home broker recovers (lib/fleet failover). *)

val id : t -> Types.client_id option
val pending : t -> int
val completed : t -> int
val last_sequence : t -> int
val crash : t -> unit

val misbehave_bad_share : t -> unit
(** Fault injection: make the client send garbage multi-signature shares
    (it then completes as a straggler via its fallback signature). *)

val misbehave_mute_reduction : t -> unit
(** Fault injection: never answer inclusion proofs (a crashed/slow client
    during distillation, §4.2). *)
