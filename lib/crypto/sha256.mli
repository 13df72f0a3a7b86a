(** SHA-256 (FIPS 180-4).

    Digests are returned as 32-byte binary strings.  This module is the
    repository's only hash function: Merkle trees, Fiat–Shamir challenges
    and batch commitments all go through it (the paper uses blake3; any
    collision-resistant hash preserves behaviour).

    Blocks are compressed by the x86 SHA extensions (SHA-NI, one C
    function in [sha256_stubs.c]) when the CPU reports SHA, SSSE3 and
    SSE4.1, checked once when the module is initialised, and by an OCaml
    implementation on native ints everywhere else.  Nothing selects the
    path but the CPU, and both give the same digests. *)

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

(** {2 For tests} *)

val reference_digest : string -> string
(** [digest] through the OCaml compression whatever the CPU: the
    reference the SHA-NI kernel is tested against. *)

val kernel : unit -> string
(** The compression in use: ["sha-ni"] or ["ocaml"]. *)
