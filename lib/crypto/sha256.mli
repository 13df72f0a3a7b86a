(** SHA-256 (FIPS 180-4), implemented from scratch on native ints.

    Digests are returned as 32-byte binary strings.  This module is the
    repository's only hash function: Merkle trees, Fiat–Shamir challenges
    and batch commitments all go through it (the paper uses blake3; any
    collision-resistant hash preserves behaviour). *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_char : ctx -> char -> unit
(** Absorb one byte, e.g. a domain-separation prefix, without allocating
    a one-byte string. *)

val finalize : ctx -> string
(** Produce the 32-byte digest.  The context must not be reused. *)

val digest : string -> string
(** One-shot [digest s = finalize (feed (init ()) s)]. *)

val digest_list : string list -> string
(** Digest of the concatenation, without building the concatenation. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104). *)

val to_hex : string -> string
(** Lowercase hex rendering of a binary digest. *)
