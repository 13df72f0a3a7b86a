(** Keyed token buckets: admission control by rate and burst.

    One bucket per key, created full on the key's first request, refilled
    continuously at [rate] tokens/s up to [burst].  Each admitted request
    spends one token.  The broker keys them by client: spam past a
    client's rate is shed at admission. *)

type 'k t

val create : rate:float -> burst:float -> 'k t
(** [rate <= 0.] disables the gate: {!admit} always answers [true]. *)

val admit : 'k t -> now:float -> 'k -> bool
(** Refill [key]'s bucket up to [now], then spend one token if one is
    there. *)
