(** Merkle trees over byte-string leaves (the zebra stand-in, §4.2).

    Chop Chop brokers commit to a batch by the Merkle root of its payload
    vector and hand each client an O(log b) inclusion proof instead of the
    whole batch.  Leaf and internal hashes are domain-separated so a leaf
    cannot be confused with an internal node. *)

type t
(** An immutable tree built over a fixed leaf vector. *)

type root = string
(** 32-byte commitment. *)

type proof
(** Inclusion proof: the sibling path from a leaf to the root. *)

val build : string array -> t
(** Build a tree over the given leaves.  The array must be non-empty.
    Odd nodes are promoted unchanged to the next level. *)

val root : t -> root
val leaf_count : t -> int

val prove : t -> int -> proof
(** [prove t i] is the inclusion proof for leaf [i].
    @raise Invalid_argument if [i] is out of range. *)

val verify : root -> leaf:string -> proof -> bool
(** [verify root ~leaf proof] checks that [leaf] is committed under [root]
    at the position recorded in [proof]. *)

val proof_equal : proof -> proof -> bool
(** Same position and same sibling path: a proof equal to one that
    {!verify} accepted for a root and a leaf is accepted for them again. *)

val proof_index : proof -> int
(** Position of the proven leaf in the committed vector. *)

val proof_length : proof -> int
(** Number of siblings in the path, i.e. ⌈log2 leaf_count⌉ for full
    levels. *)

val proof_size_bytes : proof -> int
(** Wire size of the proof: 32 B per sibling plus an 8 B index — the
    figure used by the network model when a broker sends inclusion
    proofs to clients. *)

val root_equal : root -> root -> bool
