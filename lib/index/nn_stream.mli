(** Cached random-access view of a nearest-neighbour enumeration.

    Greedy-GEACC and Prune-GEACC repeatedly ask for "the j-th nearest
    neighbour of node x" with j advancing independently per node. The paper
    treats the index answering these queries as a black box with per-query
    cost σ(S); this is the one implementation. A stream computes every
    in-range distance once (a linear scan — at the paper's d = 20 no tree
    index prunes anything) and then serves ranks from a prefix sorted
    incrementally by quickselect: a stream drained to depth m costs
    O(n + m log m). *)

type t

val create : ?max_dist:float -> Point.t array -> Point.t -> t
(** [create ?max_dist points query] is the stream of [points] (the array is
    not copied) in ascending (distance to [query], index) order, cut off at
    [max_dist] (exclusive; default [infinity]). Computes all distances. *)

val get : t -> int -> (int * float) option
(** [get t j] is the [j]-th nearest neighbour (1-based) as
    [(point index, distance)], or [None] if fewer than [j] neighbours exist
    within the cutoff. Ranks may be read in any order. *)
