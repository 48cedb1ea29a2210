(** Exact nearest-neighbour queries by a full sort per query.

    The correctness oracle for {!Geacc_index.Nn_stream}: no quickselect, no
    incremental prefix. Ties in distance are broken by point index, so
    results are deterministic. *)

type t

val create : Geacc_index.Point.t array -> t
(** The array is not copied; callers must not mutate the points. *)

val nearest : t -> Geacc_index.Point.t -> k:int -> (int * float) array
(** [nearest t q ~k] returns up to [k] (index, distance) pairs in ascending
    (distance, index) order. *)

val nearest_within : t -> Geacc_index.Point.t -> k:int -> max_dist:float -> (int * float) array
(** Like {!nearest} but drops results with distance >= [max_dist]. *)

val nth_nearest : t -> Geacc_index.Point.t -> int -> (int * float) option
(** [nth_nearest t q j] is the [j]-th nearest point (1-based), or [None] if
    [j > size t]. *)
