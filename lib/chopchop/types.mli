(** Shared vocabulary of the Chop Chop layer. *)

type client_id = int
(** Dense identifier assigned by the {!Directory} (Rank): the client's
    position in the sign-up order. *)

type sequence_number = int

type message = string
(** Application payload (8 B in most of the evaluation). *)

type keycard = {
  sig_pk : Repro_crypto.Schnorr.public_key;   (* classic authentication *)
  ms_pk : Repro_crypto.Multisig.public_key;   (* distillation *)
}
(** A client's public identity, as stored in the directory. *)

type keypair = {
  sig_sk : Repro_crypto.Schnorr.secret_key;
  ms_sk : Repro_crypto.Multisig.secret_key;
  card : keycard;
}

val keypair_of_seed : string -> keypair
(** Deterministic identity; simulated clients derive theirs from their
    index so 257 M of them need no storage. *)

val dense_seed : int -> string
(** Canonical seed for the [i]-th pre-generated (load) client. *)

val dense_keypair : int -> keypair
(** The identity of dense client [i]: [keypair_of_seed (dense_seed i)].
    Pure and unmemoised; {!Directory.dense_keypair} memoises it. *)

val message_statement : id:client_id -> seq:sequence_number -> message -> string
(** Statement a client signs with its individual (Schnorr) key: binds the
    id, the sequence number and the message (the [t_i] of §4.2). *)

val reduction_statement : root:string -> string
(** Statement multi-signed during reduction (#5): the proposal root. *)
