(** Rank — the directory assigning dense numeric identifiers to clients
    (§2.2, Appx. C).

    Clients sign up by announcing their public keys through the underlying
    Atomic Broadcast; every correct server appends the keycard at the same
    position thanks to total order, so a client's identifier is simply its
    sign-up rank.  Identifiers then replace 32 B public keys on the wire
    (3.5 B at 257 M clients).  It is one logical map: every broker, in a
    fleet or not, resolves identifiers through a server's copy.

    Two populations coexist:

    - {e explicit} clients signed up at run time ({!append});
    - {e dense} clients: a pre-provisioned range [0, dense_count) of
      deterministic identities standing in for the paper's 13 TB of
      pre-generated workload.  Range queries over dense identities are
      served from prefix sums, so aggregating a 65,536-key range costs
      O(1) {e real} work while the simulated cost is still charged per key
      by {!Repro_sim.Cost.bls_aggregate_pks}.

    Dense keypairs and prefix sums are memoised per population: {!create}
    starts one and its {!replica}s share it. *)

type t

val create : ?dense_count:int -> unit -> t
(** [dense_count] pre-provisions that many deterministic identities with
    ids [0 .. dense_count-1] (default 0). *)

val replica : t -> t
(** A directory with the same dense population (and its memo) and no
    explicit cards: one server's copy in a deployment. *)

val dense_count : t -> int
val size : t -> int
(** Total number of registered identities (dense + explicit). *)

val append : t -> Types.keycard -> Types.client_id
(** Register a key card; returns the assigned identifier.  Called by every
    server in STOB delivery order, so ranks agree. *)

val explicit_cards : t -> Types.keycard list
(** The explicitly registered key cards in rank order (checkpoint
    payload; dense identities are derived, never stored). *)

val find : t -> Types.client_id -> Types.keycard option

val sig_pk : t -> Types.client_id -> Repro_crypto.Schnorr.public_key
(** @raise Not_found for unknown ids. *)

val ms_pk : t -> Types.client_id -> Repro_crypto.Multisig.public_key

val aggregate_ms_pks : t -> Types.client_id list -> Repro_crypto.Multisig.public_key
(** Aggregate multi-signature public key of the given clients. *)

val aggregate_ms_pks_range : t -> first:int -> count:int -> Repro_crypto.Multisig.public_key
(** O(1) aggregate over a dense range: the public key of the range's
    secret-scalar sum (prefix sums), which equals the sum of its public
    keys because pk = x·G is linear.
    @raise Invalid_argument if the range leaves the dense population. *)

val dense_keypair : t -> int -> Types.keypair
(** {!Types.dense_keypair}, memoised per directory (simulation-only:
    workload generators use it to pre-sign batches, mirroring the paper's
    pre-generated message files). *)

val aggregate_dense_ms_sks_range :
  t -> first:int -> count:int -> Repro_crypto.Multisig.secret_key
(** Sum of dense secret scalars over a range (prefix sums).  Used only by
    the workload generator to materialise the aggregate multi-signature a
    real population of clients would have produced. *)
