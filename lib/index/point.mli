(** Points in the d-dimensional attribute space.

    Attribute vectors are dense [float array]s; the distance-based
    similarities are functions of {!dist}. *)

type t = float array

val dist2 : t -> t -> float
(** Squared Euclidean distance. Requires equal dimensions. *)

val dist : t -> t -> float
(** Euclidean distance. *)

val pp : Format.formatter -> t -> unit
