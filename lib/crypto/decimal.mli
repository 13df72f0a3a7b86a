(** Decimal rendering of native integers for hashed input. *)

val of_int : int -> string
(** [of_int n = string_of_int n] for every [int], [min_int] included,
    without going through the format interpreter. *)

val fields : int -> int -> string -> string
(** [fields a b rest = of_int a ^ "|" ^ of_int b ^ "|" ^ rest],
    written into one string: a Merkle leaf, made several times per
    message, builds no part strings, list or second copy. *)
