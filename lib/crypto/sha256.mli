(** SHA-256 (FIPS 180-4).

    Digests are returned as 32-byte binary strings.  This module is the
    repository's only hash function: Merkle trees, Fiat–Shamir challenges
    and batch commitments all go through it (the paper uses blake3; any
    collision-resistant hash preserves behaviour).

    When the CPU reports SHA, SSSE3 and SSE4.1 (checked once when the
    module is initialised), each one-shot digest ({!digest},
    {!digest_list}, {!digest_tagged}) is one C call on the x86 SHA
    extensions ([sha256_stubs.c]) that allocates only its result.
    Everywhere else they run the streaming context below, which always
    compresses in OCaml on native ints.  Nothing selects the path but the
    CPU, and both give the same digests. *)

val digest : string -> string
(** One-shot [digest s = finalize (feed (init ()) s)]. *)

val digest_list : string list -> string
(** Digest of the concatenation, without building the concatenation. *)

val digest_tagged : char -> string -> string -> string
(** [digest_tagged tag a b] is the digest of the byte [tag] followed by
    [a] and [b] (Merkle's domain-separated leaf and node hashes), without
    building the concatenation. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104). *)

val to_hex : string -> string
(** Lowercase hex rendering of a binary digest. *)

(** {2 Streaming, in OCaml}

    The fallback of the one-shot digests and the reference they are
    tested against: it compresses in OCaml whatever the CPU. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val finalize : ctx -> string
(** Produce the 32-byte digest.  The context must not be reused. *)

(** {2 For tests} *)

val reference_digest : string -> string
(** [digest] through the streaming context whatever the CPU: the
    reference the SHA-NI kernel is tested against. *)

val kernel : unit -> string
(** The compression in use: ["sha-ni"] or ["ocaml"]. *)
