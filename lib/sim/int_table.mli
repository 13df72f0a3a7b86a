(** Hash tables keyed by [int], for the lookups made once or more per
    simulated message: node ids, client ids, sequence numbers and packed
    pairs of them.

    A lookup costs one multiply and an int comparison per entry of its
    bucket, where the Stdlib's polymorphic table calls the generic
    [caml_hash] and [compare] (and a tuple key allocates on every
    lookup).  The hash mixes the key's high bits into the low bits that
    pick a bucket, so keys that differ only above bit 31 — a pair packed
    as [(a lsl 31) lor b] — still spread over the buckets.

    Iteration order follows the hash, not the polymorphic table's: a
    table whose [iter] or [fold] order could reach the simulation (a
    message's contents, the order events are scheduled in) stays a
    generic [Hashtbl] or sorts what it folds. *)

include Hashtbl.S with type key = int
