(** Broker-fleet partitioning policy: deterministic assignment of clients
    to home brokers with ordered failover, the substrate of multi-broker
    scale-out.

    Every decision is a pure function of (seed, client key, roster), so
    clients and observers agree on the partitioning without coordination.
    It decides only where a client is homed: every broker resolves
    identifiers through the servers' one Rank directory, so a client's
    failover broker can serve it at once.  The deployment owns one
    instance; components query it. *)

type mode = Hash
(** Seeded hash of the client key, uniform across the fleet.  The only
    policy; it stays a type because deployment configs name it
    ([fleet = Some Hash]). *)

type t

val create : ?seed:int64 -> unit -> t
(** Empty fleet; brokers join through {!register} (default seed 42). *)

val size : t -> int

val register : t -> int
(** Add a broker to the roster; returns its fleet id (= deployment broker
    id when registered in installation order). *)

val mix : t -> int -> int
(** The seeded SplitMix64 avalanche of a client key (non-negative).
    Exposed so tests can assert assignment = mix mod fleet size. *)

val assignment : t -> key:int -> unit -> int list
(** Home broker first, then the ordered failover walk; a permutation of
    the whole roster. *)

val home : t -> key:int -> unit -> int
(** Head of {!assignment}.  @raise Invalid_argument on an empty fleet. *)

val note_client : t -> int -> unit
(** Record one client homed on broker [b] (partition-load accounting). *)

val hottest : t -> (int * int) option
(** [(broker, clients)] of the most loaded partition (None when empty). *)
