(** Simulation-grade Schnorr signatures — the repository's Ed25519 stand-in.

    The scheme is key-prefixed Schnorr with a Fiat–Shamir challenge over
    SHA-256, instantiated in the additive group of {!Field61} (see DESIGN.md
    §1): the algebra, API and batch-verification contract are exactly
    those of Ed25519, but the group is 61-bit and linear, so the scheme is
    {b not} secure against an adversary willing to divide field elements.
    Experiments charge CPU time for these operations from the calibrated
    cost model ({!Repro_sim.Cost}), never from wall-clock time of this code.

    Wire sizes reported by {!Repro_chopchop.Wire} use the paper's Ed25519
    constants (32 B public keys, 64 B signatures) regardless of the
    in-memory representation here. *)

type secret_key
type public_key = Field61.t
type signature = { r : Field61.t; s : Field61.t }

val generator : Field61.t

val keygen : (unit -> int64) -> secret_key * public_key
(** Derive a fresh key pair from the given 64-bit randomness source. *)

val keygen_deterministic : seed:string -> secret_key * public_key
(** Key pair derived deterministically from a seed string; used to give
    millions of simulated clients stable identities without storing them. *)

val public_key_of_secret : secret_key -> public_key

val sign : secret_key -> string -> signature
(** Deterministic signing (nonce derived from the secret key and message,
    as in Ed25519). *)

val verify : public_key -> string -> signature -> bool

val batch_verify : (public_key * string * signature) list -> bool
(** Accepts iff every entry verifies: the contract of [ed25519-dalek]'s
    [verify_batch], which the paper's brokers rely on (§5.1).  Each entry
    is checked on its own, which in this group is cheaper than a random
    linear combination; the batching speed-up is charged by
    {!Repro_sim.Cost.ed25519_batch_verify}. *)

val pp_signature : Format.formatter -> signature -> unit

val signature_equal : signature -> signature -> bool

val forge_garbage : unit -> signature
(** An arbitrary signature that verifies under no honest key/message pair
    (up to hash collisions); used by fault-injection tests. *)
