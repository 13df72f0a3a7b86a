(** Geographic model of the paper's cross-cloud deployment (§6.2, Fig. 6).

    The 14 AWS regions hosting servers, the broker/client extras (Tokyo,
    Sydney) and the OVH sites hosting load brokers.  One-way latency
    between two regions is derived from great-circle distance at the speed
    of light in fibre with a routing-inflation factor, plus a fixed local
    hop — the standard first-order model for WAN latency. *)

type t =
  | Cape_town
  | Sao_paulo
  | Bahrain
  | Canada
  | Frankfurt
  | N_virginia
  | N_california
  | Stockholm
  | Ohio
  | Milan
  | Oregon
  | Ireland
  | London
  | Paris
  | Tokyo
  | Sydney
  | Ovh_gravelines
  | Ovh_beauharnois

val all : t list

val server_regions_for : int -> t list
(** [server_regions_for n] assigns [n] servers round-robin; for n = 8 the
    paper uses the first 8 regions of the list — "the most adversarial
    setup with the highest pairwise latency". *)

val broker_regions : t list
(** One broker per continent (§6.2). *)

val client_regions : t list
(** One measurement client in each of the 14 server regions plus Tokyo and
    Sydney. *)

val load_broker_regions : t list
(** OVH sites. *)

val coords : t -> float * float
(** (latitude, longitude) in degrees. *)

val local_hop_s : float
(** Latency within one region, and the fixed part of every WAN hop. *)

val latency : t -> t -> float
(** One-way network latency in seconds: [local_hop_s] plus the
    great-circle distance between the two sites' {!coords}, inflated by
    1.4 for real routes, at 200,000 km/s.  Read from a table built once,
    so a message pays a lookup, not the formula. *)

val count : int
(** Number of regions. *)

val index : t -> int
(** Position of a region in {!all}: [0 .. count - 1]. *)

val latency_table : float array
(** [latency_table.((index a * count) + index b) = latency a b]; read-only.
    A caller that keeps region indices reads an unboxed float here, where
    a call to {!latency} from another module returns a boxed one. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
