(** Server-signed quorum certificates.

    Three kinds of statements circulate in Chop Chop, all multi-signed by
    servers and aggregated by brokers into f+1 quorum certificates:

    - {e witness} statements (#10–#11): a batch is well-formed and
      retrievable;
    - {e completion} statements (#16–#17): a batch was delivered as the
      [counter]-th one, with the given per-client exceptions;
    - {e legitimacy} is carried by completion certificates (§4.2): a
      certificate with delivery counter [n] proves every sequence number
      [< n] legitimate, bounding how far a Byzantine client can push the
      aggregate sequence number. *)

type quorum_cert = {
  signers : int list; (* distinct server indices *)
  agg : Repro_crypto.Multisig.signature;
}

val witness_statement : root:string -> broker:int -> number:int -> string

val completion_statement : root:string -> counter:int -> exc_hash:string -> string

val exceptions_hash : (Types.client_id * Types.sequence_number) list -> string

val sign_shard :
  Repro_crypto.Multisig.secret_key -> string -> Repro_crypto.Multisig.signature

val assemble : (int * Repro_crypto.Multisig.signature) list -> quorum_cert
(** Aggregate shards into a certificate (signer list is deduplicated and
    sorted). *)

val well_formed : capacity:int -> quorum:int -> quorum_cert -> bool
(** The part of {!verify} that reads no key: at least [quorum] signers,
    none twice, each a key slot in [[0, capacity)]. *)

val verify :
  statement:string ->
  server_ms_pk:(int -> Repro_crypto.Multisig.public_key) ->
  capacity:int ->
  quorum:int ->
  quorum_cert ->
  bool
(** At least [quorum] distinct signers, each a key slot in
    [[0, capacity)], and a valid aggregate.  [server_ms_pk] is read only
    for such signers. *)

type delivery_cert = {
  root : string;
  counter : int; (* global batch-delivery counter when signed *)
  exceptions : (Types.client_id * Types.sequence_number) list;
  qc : quorum_cert;
}
(** Completion certificate (#18): proves delivery of the batch committed
    to by [root]; doubles as the legitimacy proof [l_counter]. *)

val verify_delivery :
  server_ms_pk:(int -> Repro_crypto.Multisig.public_key) ->
  quorum:int ->
  delivery_cert ->
  bool
(** {!verify} with no slot bound: [server_ms_pk] is read for every
    signer, so it must be total over them.  The kernel of one client
    check; a deployment bounds the signers through {!check_delivery}. *)

(** {2 The deployment's checker}

    {!verify} and {!verify_delivery} are pure and execute every check.  A
    deployment holds one [checker], shared by its clients, brokers and
    servers.  It checks the quorum and the signer list on every call, and
    the multi-signature only when no verdict was given on the same
    inputs: the same certificate value (compared physically), the same
    statement fields and the same current key for every signer (through
    their aggregate, the only way the check reads them), so a replaced
    server's new key invalidates what its old key signed.  At most
    {!memo_bound} verdicts are kept, oldest out first.  Callers still
    charge the simulated cost of every logical check. *)

type checker

val checker :
  capacity:int -> server_ms_pk:(int -> Repro_crypto.Multisig.public_key) -> checker
(** [capacity] is the number of key slots: a certificate naming a signer
    outside [[0, capacity)] is rejected before any key is read.
    [server_ms_pk] is read at every check, so it must return each slot's
    current key. *)

val server_pk : checker -> int -> Repro_crypto.Multisig.public_key
(** The current key of one server slot. *)

val check_delivery : checker -> quorum:int -> delivery_cert -> bool
(** Same verdict as {!verify_delivery}. *)

val check_witness :
  checker -> root:string -> broker:int -> number:int -> quorum:int -> quorum_cert -> bool
(** Same verdict as {!verify} over {!witness_statement}. *)

val memo_bound : int
(** The most verdicts a checker keeps. *)

val memo_size : checker -> int
(** Verdicts kept now. *)

val legitimizes : delivery_cert option -> Types.sequence_number -> bool
(** [legitimizes evidence k]: [k = 0] needs no evidence; otherwise the
    certificate's counter must reach [k].  (§4.2 induction: the largest
    sequence number submitted to the (n+1)-th batch is n, so a
    certificate for n batches delivered legitimises k <= n — a strictly
    smaller bound would deadlock a lone client at its second message.) *)
