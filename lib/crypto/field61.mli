(** Arithmetic in the prime field Z_p with p = 2^61 - 1 (a Mersenne prime).

    Elements are represented as native [int] values in the canonical range
    [0, p-1].  The Mersenne structure lets every operation stay within the
    63-bit native integer without an external bignum dependency, which is
    the reason this field underlies the simulation-grade signature schemes
    (see {!Schnorr} and {!Multisig}).

    All functions expect canonical inputs and produce canonical outputs;
    [of_int] canonicalises arbitrary integers. *)

type t = private int

val p : int
(** The modulus, [2^61 - 1]. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] reduces [n] modulo [p] (correct for any native [int],
    including negative values). *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Full 61x61-bit modular multiplication via 31/30-bit limb splitting. *)

val mul_slow : t -> t -> t
(** Reference implementation of {!mul} by double-and-add; used by the
    property tests to cross-check the limb arithmetic. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0], square-and-multiply. *)

val inv : t -> t
(** Multiplicative inverse by Fermat's little theorem.
    @raise Division_by_zero on [zero]. *)

val of_bytes : string -> t
(** Folds an arbitrary byte string (e.g. a SHA-256 digest) into a field
    element, 7 little-endian bytes at a time.  The empty string gives
    [one]. *)

val random : (unit -> int64) -> t
(** [random next64] draws a uniformly distributed element using the given
    64-bit generator (rejection sampling on the top bits). *)

val pp : Format.formatter -> t -> unit
