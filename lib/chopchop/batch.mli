(** Distilled batches (§3).

    A batch carries its entries, one aggregate sequence number, one
    aggregate multi-signature covering every {e reduced} entry, and an
    individual (sequence number, signature) exception for every
    {e straggler} — a client that failed to multi-sign the proposal root
    in time (§4.2).  A fully distilled batch has no stragglers; a batch
    where {e every} entry is a straggler degenerates to a classic batch
    (the two endpoints of Fig. 8a).

    Two entry representations flow through the same server code:

    - [Explicit]: materialised entries, real Merkle roots and inclusion
      proofs — used by real clients, the examples and the tests;
    - [Dense]: a contiguous range of pre-provisioned identities sharing
      one synthetic message generator — the stand-in for the paper's
      pre-generated load-broker batches (§6.2).  Aggregate verification is
      real (against the directory's range-aggregated key); roots are
      synthetic commitments; CPU cost is charged for the full count.

    Two roots are derived from a batch (Appx. B.2.3):

    - the {e reduction root}, over leaves all carrying the aggregate
      sequence number — this is what reducing clients multi-signed;
    - the {e identity root}, with each straggler's leaf carrying its own
      sequence number — this names the batch everywhere else. *)

type straggler = {
  s_id : Types.client_id;
  s_seq : Types.sequence_number;
  s_sig : Repro_crypto.Schnorr.signature; (* over Types.message_statement *)
}

type entry = { e_id : Types.client_id; e_msg : Types.message }

type dense = {
  first_id : int;
  count : int;
  msg_bytes : int;
  tag : int; (* differentiates message content between rounds *)
  straggler_count : int; (* the LAST [straggler_count] ids of the range *)
  straggler_sample : (Types.client_id * Repro_crypto.Schnorr.signature) array;
      (* real signatures for a sample of the stragglers; the full
         verification cost is charged regardless *)
}

type entries =
  | Explicit of entry array (* sorted by id, distinct *)
  | Dense of dense

type roots
(** The memoised {!reduction_root}, {!identity_root} and {!check} verdict
    of a batch, tagged with the [entries], [stragglers], [agg_seq] and
    [agg_sig] they were derived from. *)

type t = {
  broker : int;
  number : int; (* broker-local batch number *)
  entries : entries;
  agg_seq : Types.sequence_number;
  stragglers : straggler array; (* Explicit only; sorted by id *)
  agg_sig : Repro_crypto.Multisig.signature option;
  mutable roots : roots;
      (* root and verdict memo, owned by this module: a batch rebuilt
         with [{ b with entries | stragglers | agg_seq | agg_sig = ... }]
         re-derives them instead of inheriting stale ones.  The [entries] and
         [stragglers] arrays must not be mutated once wrapped in a batch. *)
}

val count : t -> int
val straggler_count : t -> int
val reduced_count : t -> int

val dense_message : dense -> Types.client_id -> Types.message
(** Deterministic message content of a dense entry. *)

val leaf : id:Types.client_id -> seq:Types.sequence_number -> Types.message -> string

val reduction_root : t -> string
val identity_root : t -> string
(** Both roots are computed once per batch value and memoised on it (see
    the [roots] field); the simulated cost of recomputing them is charged
    by {!witness_cpu_work}, not by these functions.  When every straggler
    carries [agg_seq] the two roots commit to the same leaves, and the
    identity root is the reduction root. *)

val entry_seqs : t -> Types.sequence_number array
(** Explicit batches only: the sequence number each entry carries in the
    identity root, in entry order — that of the first straggler with the
    entry's id, otherwise [agg_seq].  O((n + s) log s) for any straggler
    list, sorted or not.
    @raise Invalid_argument on a dense batch. *)

val reducer_ids : t -> Types.client_id list
(** Entries without a straggler, in entry order.  Explicit batches only;
    Dense reducers are the leading range. *)

val wire_bytes : clients:int -> t -> int
(** Bytes on the wire per {!Wire.distilled_batch_bytes}. *)

val verify : Directory.t -> t -> bool
(** Full well-formedness check, as performed by a witnessing server (#9):
    identifiers strictly increasing (hence distinct) and registered in the
    directory, every straggler's individual signature valid, and the
    aggregate multi-signature valid over the reduction root for exactly
    the reduced identities.  Pure and unmemoised: every call runs every
    signature check, and perfbench's [batch.verify_ms] kernel times it. *)

val check : Directory.t -> t -> bool
(** {!verify}'s verdict, executed once per batch value and directory keys:
    what a witnessing server calls.  Every call does the checks that need
    no cryptography and reads every directory key {!verify} reads (each
    straggler's signature key, the reducers' aggregate key, and for a
    dense batch the population bound and range aggregate); it reuses the
    verdict kept on the batch only if those keys equal the ones it was
    given under, and otherwise checks the signatures and keeps the new
    verdict.  The verdict lives on the batch (see the [roots] field), is
    freed with it, and a copy rebuilt with a new [entries], [stragglers],
    [agg_seq] or [agg_sig] does not inherit it.  The simulated cost stays
    with {!witness_cpu_work}, which every checking server is charged. *)

val witness_cpu_work : t -> Repro_sim.Cpu.work
(** Simulated CPU work of {!verify} on a server, from {!Repro_sim.Cost}:
    straggler batch-verification, pk aggregation and deserialization are
    divisible across lanes; the aggregate pairing check is serial. *)

val delivery_cpu_work : t -> Repro_sim.Cpu.work
(** Work on a server that trusts the witness instead of verifying:
    deserialization + deduplication, divisible across lanes.  The witness
    certificate's pairing check is charged separately, once per ordered
    reference, when the reference is ordered. *)

val make_explicit :
  broker:int ->
  number:int ->
  entries:entry array ->
  agg_seq:int ->
  stragglers:straggler array ->
  agg_sig:Repro_crypto.Multisig.signature option ->
  t
(** @raise Invalid_argument if entries are not sorted strictly by id. *)

val of_reduction_tree :
  broker:int ->
  number:int ->
  entries:entry array ->
  agg_seq:int ->
  stragglers:straggler array ->
  agg_sig:Repro_crypto.Multisig.signature option ->
  Repro_crypto.Merkle.t ->
  t
(** {!make_explicit} for the broker that proposed the batch: the tree must
    be {!Repro_crypto.Merkle.build} over [leaf ~id ~seq:agg_seq] of every
    entry, in order.  The batch takes its root as the reduction root
    instead of hashing the entries again, and keeps no reference to the
    tree.
    @raise Invalid_argument if the tree and [entries] differ in length. *)

val forge_dense :
  Directory.t ->
  broker:int ->
  number:int ->
  first_id:int ->
  count:int ->
  msg_bytes:int ->
  tag:int ->
  straggler_count:int ->
  t
(** Pre-generate a well-formed dense batch: the aggregate multi-signature
    is materialised from the range's aggregated secret scalar (what the
    population of simulated clients would have produced), and a sample of
    straggler signatures is genuinely signed.  This is the equivalent of
    the paper's 13 TB of pre-generated workload files. *)
