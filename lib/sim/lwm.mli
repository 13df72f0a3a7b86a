(** Low-water-mark sets of non-negative integers: a mark below which every
    number is in the set, plus the members above it.

    Numbers issued in order and seen in (roughly) that order keep the set
    above the mark empty, so the state does not grow with the numbers
    seen.  The reliable-UDP receiver dedups sequence numbers with one
    (unbounded); each Chop Chop server dedups batch references with
    windowed ones, two per broker. *)

type t

val create : ?window:int -> unit -> t
(** An empty set (mark 0).  With [window = w], adding [n >= low + w]
    first slides the mark to [n - w + 1] — every number below it counts
    as a member from then on — so the members above the mark always
    span fewer than [w] numbers.  Without it the set is unbounded. *)

val mem : t -> int -> bool
(** [n] is below the mark or a member above it. *)

val add : t -> int -> bool
(** Add [n]; [false] (and no change) if it was already a member. *)

val advance : t -> int -> unit
(** Raise the mark to at least [low] (never lowers it): every number below
    it becomes a member, and the mark runs on over members it then
    touches. *)

val low : t -> int

val above : t -> int list
(** The members above the mark, ascending. *)

val restore : ?window:int -> low:int -> above:int list -> unit -> t
(** The set a {!low}/{!above} pair describes. *)
