(** A quorum tally: the set of distinct voters among replicas [0, n) and
    its size.  Every vote-counting site — the STOB protocols and the
    Narwhal mempool — uses it. *)

val quorum_f : int -> int
(** [quorum_f n = (n - 1) / 3]: the faults a committee of [n] tolerates;
    its quorums are [2f + 1] (PBFT, Narwhal) or [n - f] (HotStuff). *)

type t

val create : int -> t
(** [create n] is an empty tally over voters [0, n). *)

val add : t -> int -> unit
(** Record a vote; a second vote from the same voter changes nothing.
    @raise Invalid_argument if the voter is outside [0, n). *)

val count : t -> int
(** Distinct voters so far. *)

val clear : t -> unit
(** Forget every vote. *)
