(** Decimal rendering of native integers for hashed input. *)

val of_int : int -> string
(** [of_int n = string_of_int n] for every [int], [min_int] included,
    without going through the format interpreter. *)
