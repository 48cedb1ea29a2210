(** Cached random-access view of a best-first neighbour enumeration.

    Greedy-GEACC and Prune-GEACC repeatedly ask for "the j-th most similar
    neighbour of node x" with j advancing independently per node. The paper
    treats the index answering these queries as a black box with per-query
    cost σ(S); this is the one implementation. A stream computes every
    candidate's score once (a linear scan — at the paper's d = 20 no tree
    index prunes anything) and then serves ranks from a prefix sorted
    incrementally by quickselect: a stream drained to depth m costs
    O(n + m log m).

    The stream ranks on the score itself, not on a distance it was derived
    from, so its order is exactly the order the solvers compare on:
    descending score, ties by ascending index. *)

type t

val create : int -> (int -> float) -> t
(** [create n score] is the stream of the indices [0, n) whose score
    [score i] is positive, in descending (score, then ascending index)
    order. Calls [score] once per index, in ascending order; indices with
    a score [<= 0] (or NaN) are dropped. *)

val get : t -> int -> (int * float) option
(** [get t j] is the [j]-th ranked entry (1-based) as [(index, score)], or
    [None] if fewer than [j] indices have a positive score. Ranks may be
    read in any order. *)
