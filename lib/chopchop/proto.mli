(** Message vocabulary of the Chop Chop protocol (Fig. 5, steps #1–#19).

    These types are carried verbatim inside the deployment's network
    message union; wire sizes are computed by {!Wire} at the send site. *)

type client_to_broker =
  | Submission of {
      id : Types.client_id;
      seq : Types.sequence_number;
      msg : Types.message;
      tsig : Repro_crypto.Schnorr.signature;
          (* the individual fallback signature t_i over
             [Types.message_statement] (#2) *)
      evidence : Certs.delivery_cert option; (* legitimacy proof l_n *)
      ctx : Repro_trace.Trace.Ctx.t;
          (* causal trace context (root id + hop), propagated so one
             broadcast's path is reconstructable end to end; charged as
             [Wire.trace_ctx_bytes] *)
    }
  | Reduction of {
      id : Types.client_id;
      root : string;
      share : Repro_crypto.Multisig.signature; (* s_i on the proposal root (#6) *)
    }
  | Signup_request of { card : Types.keycard; nonce : int }

type broker_to_client =
  | Inclusion of {
      root : string; (* proposal (reduction) root *)
      proof : Repro_crypto.Merkle.proof;
      agg_seq : Types.sequence_number; (* k *)
      evidence : Certs.delivery_cert option; (* proves k legitimate (#4) *)
    }
  | Deliver_cert of {
      cert : Certs.delivery_cert;
      seq : Types.sequence_number; (* sequence number the batch carried *)
      proof : Repro_crypto.Merkle.proof option; (* inclusion in cert.root *)
    }
  | Signup_response of { nonce : int; id : Types.client_id }

type broker_to_server =
  | Batch_announce of {
      batch : Batch.t;
      witness_requested : bool; (* #8: only f+1+margin servers verify *)
    }
  | Witness_request of { root : string }
      (* extend the witnessing set after a timeout (§2.2) *)
  | Submit of {
      root : string;
      number : int;
      witness : Certs.quorum_cert; (* #12: hand to the server-run STOB *)
    }
  | Relay_signup of { card : Types.keycard; nonce : int }
      (* brokers are clients of the server-run STOB: sign-ups enter it
         through a server relay (Appx. C) *)

type server_to_broker =
  | Witness_shard of { root : string; share : Repro_crypto.Multisig.signature }
  | Completion_shard of {
      root : string;
      counter : int;
      exceptions : (Types.client_id * Types.sequence_number) list;
      share : Repro_crypto.Multisig.signature; (* #16 *)
    }
  | Submit_ack of { root : string }
  | Signup_done of { nonce : int; id : Types.client_id }

(** What a server hands to the application on delivery. *)
type delivery =
  | Ops of (Types.client_id * Types.message) array
  | Bulk of { first_id : int; count : int; tag : int; msg_bytes : int }
      (* dense ranges: applications regenerate the operations
         deterministically (they are random operations in the paper's
         workloads too, §6.8) *)

val delivery_count : delivery -> int

(** {2 Durable state}

    The concrete record and checkpoint types a server logs into its
    {!Repro_store.Store}.  A WAL op is the post-deduplication outcome of
    one batch delivery, with the sequence numbers needed to rebuild the
    deduplication tables on replay; [Wal_ops [||]] marks a position whose
    batch delivered nothing fresh. *)

type wal_op =
  | Wal_ops of (Types.client_id * Types.sequence_number * Types.message) array
  | Wal_bulk of {
      first_id : int;
      count : int;
      tag : int;
      msg_bytes : int;
      agg_seq : Types.sequence_number;
    }

type wal_record =
  | Wal_batch of {
      w_position : int; (* global delivery position *)
      w_broker : int;
      w_number : int;
      w_root : string;
      w_ops : wal_op;
    }
  | Wal_signup of {
      w_nonce : int;
      w_card : Types.keycard;
      w_id : Types.client_id;
      w_pos : int; (* delivery counter when the sign-up was ordered *)
    }
  | Wal_reconfig of {
      w_change : Membership.change;
      w_ms_pk : Repro_crypto.Multisig.public_key option;
      w_rpos : int; (* delivery position at which the change was ordered *)
    }

val wal_record_position : wal_record -> int

(** A checkpoint at [ck_position] is a full dump of the server's
    deduplication state plus an opaque application snapshot; WAL records
    at positions [>= ck_position] replay on top.  Batch refs are carried
    as each broker's ordered-ref window — its low-water mark and the
    numbers ordered above it — not as a history of deliveries, so a
    checkpoint costs O(brokers × window) however many batches it covers.
    A window may already hold refs ordered but not yet delivered at
    [ck_position]; a restorer gets their deliveries from the WAL records
    that follow, as the peer delivered them (DESIGN.md §4b). *)
type checkpoint = {
  ck_position : int;
  ck_messages : int; (* delivered messages *)
  ck_last_msg : (Types.client_id * Types.sequence_number * Types.message) list;
  ck_dense_last : (int * int * int) list; (* first_id, agg seq, tag *)
  ck_windows : (int * int * int list) list;
  (* per broker, ascending: (broker, low-water mark, numbers above it) *)
  ck_signups : int list; (* seen sign-up nonces *)
  ck_cards : Types.keycard list;
  (* explicit directory entries in rank order: a joining server restoring
     a peer's checkpoint rebuilds its directory from these (dense
     identities are derived, not stored) *)
  ck_app : string option; (* application snapshot (App_intf hook) *)
  ck_epoch : int; (* membership epoch at ck_position *)
  ck_members : (bool * int) list; (* per-slot (active, generation) *)
}

type server_to_server =
  | Request_batch of { root : string } (* #14 *)
  | Batch_response of { batch : Batch.t }
  | Gc_status of { delivered_counter : int }
      (* periodic gossip replacing the pseudocode's per-batch
         Collection/CollectionAccept exchange: a batch delivered at global
         position p is collectable once every server reports a counter > p
         (§5.2 batch garbage collection) *)
  | Sync_request of { from_position : int }
      (* cold-restart state transfer: send me your checkpoint (if it is
         ahead of from_position) and WAL records from there on *)
  | Sync_response of {
      position : int; (* responder's delivery counter *)
      stob_cursor : int; (* responder's STOB delivery cursor *)
      backlog : int; (* refs ordered at the responder, not yet delivered *)
      checkpoint : checkpoint option;
      records : wal_record list;
    }
