(** Exact best-first ranking by a full sort per query.

    The correctness oracle for {!Geacc_index.Nn_stream}: no quickselect, no
    incremental prefix. Only positive scores are ranked; ties in score are
    broken by index (a stable sort of the index-ordered candidates), so
    results are deterministic. *)

type t

val create : float array -> t
(** [create scores] ranks the indices of [scores]. The array is not
    copied; callers must not mutate it. *)

val nearest : t -> k:int -> (int * float) array
(** [nearest t ~k] returns up to [k] (index, score) pairs with positive
    score in descending (score, then ascending index) order. *)

val nth_nearest : t -> int -> (int * float) option
(** [nth_nearest t j] is the [j]-th ranked pair (1-based), or [None] if
    fewer than [j] scores are positive. *)
