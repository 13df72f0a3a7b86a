(** Simulation-grade aggregatable multi-signatures — the BLS12-381 stand-in.

    Exactly the API shape Chop Chop needs from BLS (§3 of the paper):

    - signers independently produce shares on the {e same} message;
    - any third party (the broker) aggregates shares and public keys
      non-interactively, by a single group operation per element;
    - an aggregate signature verifies in constant time against the
      aggregate public key;
    - partial aggregates can themselves be aggregated (the broker's
      tree-search for invalid shares in §5.1 relies on this).

    The instantiation is linear over {!Field61}: sk [x], pk [x·G], share on
    [m] is [x·H(m)].  Aggregation is field addition, so the homomorphism
    the protocol depends on holds by construction.  Like {!Schnorr}, this
    is a functional model, not production cryptography (see DESIGN.md §1);
    experiment CPU costs come from the calibrated model, and wire sizes use
    the paper's BLS constants (96/192 B signatures). *)

type secret_key
type public_key = Field61.t

type signature
(** A multi-signature share or an aggregate of shares — the type does not
    distinguish them, mirroring BLS. *)

val keygen : (unit -> int64) -> secret_key * public_key
val keygen_deterministic : seed:string -> secret_key * public_key
val public_key_of_secret : secret_key -> public_key

val sign : secret_key -> string -> signature
(** Produce this signer's share on [msg]. *)

val aggregate_signatures : signature list -> signature
(** Sum of shares; associative, so partial aggregates compose. *)

val aggregate_public_keys : public_key list -> public_key

val verify : public_key -> string -> signature -> bool
(** [verify agg_pk msg agg_sig] — constant-time check of an aggregate
    (or a single share, which is a singleton aggregate). *)

val verify_multi : public_key list -> string -> signature -> bool
(** Convenience: aggregate the keys then {!verify}.  Linear in the number
    of keys, constant in everything else — the cost profile the paper's
    servers exploit (§3.2). *)

val signature_equal : signature -> signature -> bool
val pp_signature : Format.formatter -> signature -> unit

val aggregate_secret_keys : secret_key list -> secret_key
(** Simulation-only helper: the sum of secret scalars signs exactly like
    the aggregate of the individual shares would.  Workload generators use
    it (together with {!diff_secret_keys} and prefix sums) to materialise
    in O(1) the aggregate signature that a dense range of simulated
    clients would have produced — the stand-in for the paper's 13 TB of
    pre-generated batches. *)

val diff_secret_keys : secret_key -> secret_key -> secret_key
(** [diff_secret_keys a b] = the scalar difference a − b (prefix-sum
    range queries). *)

val find_invalid : (public_key * signature) list -> string -> int list
(** Tree-search identification of invalid shares among matching
    multi-signatures on the same message (§5.1 "Tree-search invalid
    multi-signatures"): verifies the aggregate of the whole range, recurses
    into halves only when a range fails, and returns the indices of bad
    shares in ascending order.  Verification count is O(b log n) for b
    bad shares. *)

val drop_indices : int list -> 'a list -> 'a list
(** [drop_indices bad l] is [l] without the elements at the positions in
    [bad], which must be ascending (as {!find_invalid} returns them).  One
    merge pass, O(|l| + |bad|): Byzantine signers choose how long [bad]
    is. *)

val forge_garbage : unit -> signature
