type client_to_broker =
  | Submission of {
      id : Types.client_id;
      seq : Types.sequence_number;
      msg : Types.message;
      tsig : Repro_crypto.Schnorr.signature;
      evidence : Certs.delivery_cert option;
      ctx : Repro_trace.Trace.Ctx.t;
    }
  | Reduction of {
      id : Types.client_id;
      root : string;
      share : Repro_crypto.Multisig.signature;
    }
  | Signup_request of { card : Types.keycard; nonce : int }

type broker_to_client =
  | Inclusion of {
      root : string;
      proof : Repro_crypto.Merkle.proof;
      agg_seq : Types.sequence_number;
      evidence : Certs.delivery_cert option;
    }
  | Deliver_cert of {
      cert : Certs.delivery_cert;
      seq : Types.sequence_number;
      proof : Repro_crypto.Merkle.proof option;
    }
  | Signup_response of { nonce : int; id : Types.client_id }

type broker_to_server =
  | Batch_announce of { batch : Batch.t; witness_requested : bool }
  | Witness_request of { root : string }
  | Submit of { root : string; number : int; witness : Certs.quorum_cert }
  | Relay_signup of { card : Types.keycard; nonce : int }

type server_to_broker =
  | Witness_shard of { root : string; share : Repro_crypto.Multisig.signature }
  | Completion_shard of {
      root : string;
      counter : int;
      exceptions : (Types.client_id * Types.sequence_number) list;
      share : Repro_crypto.Multisig.signature;
    }
  | Submit_ack of { root : string }
  | Signup_done of { nonce : int; id : Types.client_id }

type delivery =
  | Ops of (Types.client_id * Types.message) array
  | Bulk of { first_id : int; count : int; tag : int; msg_bytes : int }

let delivery_count = function
  | Ops a -> Array.length a
  | Bulk { count; _ } -> count

(* --- durable state (lib/store instantiation) --------------------------- *)

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
      w_position : int;
      w_broker : int;
      w_number : int;
      w_root : string;
      w_ops : wal_op;
    }
  | Wal_signup of {
      w_nonce : int;
      w_card : Types.keycard;
      w_id : Types.client_id;
      w_pos : int;
    }
  | Wal_reconfig of {
      w_change : Membership.change;
      w_ms_pk : Repro_crypto.Multisig.public_key option;
      w_rpos : int; (* delivery position at which the change was ordered *)
    }

let wal_record_position = function
  | Wal_batch { w_position; _ } -> w_position
  | Wal_signup { w_pos; _ } -> w_pos
  | Wal_reconfig { w_rpos; _ } -> w_rpos

type checkpoint = {
  ck_position : int;
  ck_messages : int;
  ck_last_msg : (Types.client_id * Types.sequence_number * Types.message) list;
  ck_dense_last : (int * int * int) list; (* first_id, agg seq, tag *)
  ck_windows : (int * int * int list) list; (* broker, low, above *)
  ck_signups : int list; (* seen sign-up nonces *)
  ck_cards : Types.keycard list;
  (* explicit directory entries in rank order: a peer restoring this
     checkpoint must be able to rebuild the directory, not just skip the
     replay (dense identities are derived, not stored) *)
  ck_app : string option; (* opaque application snapshot *)
  ck_epoch : int; (* membership epoch at ck_position *)
  ck_members : (bool * int) list; (* per-slot (active, generation) *)
}

type server_to_server =
  | Request_batch of { root : string }
  | Batch_response of { batch : Batch.t }
  | Gc_status of { delivered_counter : int }
  | Sync_request of { from_position : int }
  | Sync_response of {
      position : int; (* responder's delivery counter *)
      stob_cursor : int; (* responder's STOB delivery cursor *)
      backlog : int; (* refs ordered at the responder, not yet delivered *)
      checkpoint : checkpoint option;
      records : wal_record list;
    }
