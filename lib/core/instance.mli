(** A GEACC problem instance (paper Definition 5).

    Bundles the event side, the user side, the conflict set and the
    similarity function, and provides the neighbour-enumeration services the
    solvers are built on: the rank-[j] most similar counterpart of a node,
    restricted to strictly positive similarity, in deterministic order
    (descending similarity, ties by id).

    Neighbour enumeration is stream-backed: on first use each node opens a
    {!Geacc_index.Nn_stream} that scores the whole other side with
    {!Similarity.eval} and materialises only the prefix of neighbours it
    actually visits. The stream ranks on the similarity itself, so the
    enumeration order is exactly the (similarity desc, id asc) order the
    solvers compare on, for every similarity. *)

type t

val create :
  sim:Similarity.t ->
  events:Entity.t array ->
  users:Entity.t array ->
  conflicts:Conflict.t ->
  unit ->
  t
(** Validates that all attribute vectors share one dimension, that entity
    ids equal their array positions, and that [conflicts] ranges over the
    event ids. @raise Invalid_argument otherwise. *)

val n_events : t -> int
val n_users : t -> int
val event : t -> int -> Entity.t
val user : t -> int -> Entity.t
val events : t -> Entity.t array
val users : t -> Entity.t array
val conflicts : t -> Conflict.t
val similarity : t -> Similarity.t
val dim : t -> int

val sim : t -> v:int -> u:int -> float
(** Interestingness of event [v] for user [u]. *)

val event_capacity : t -> int -> int
val user_capacity : t -> int -> int
val sum_event_capacity : t -> int
val sum_user_capacity : t -> int
val max_event_capacity : t -> int
(** 0 when there are no events. *)

val max_user_capacity : t -> int
(** The α of the approximation ratios; 0 when there are no users. *)

val event_neighbor : t -> v:int -> rank:int -> (int * float) option
(** [event_neighbor t ~v ~rank] is the [rank]-th (1-based) most similar user
    of event [v] as [(user id, similarity)], considering only users with
    positive similarity, in descending similarity with ties by ascending
    user id. The similarity is bitwise {!sim} without a fault plan; ranks
    are always computed from clean values. [None] when fewer such users
    exist. *)

val user_neighbor : t -> u:int -> rank:int -> (int * float) option
(** Symmetric: the [rank]-th most similar event of user [u], ties by
    ascending event id. *)

val prepare_event_queries : t -> unit
(** Does nothing: every neighbour query scans on demand, so no shared
    state needs building ahead of {!candidate_users}. Kept as the
    index-build step that [geaccbench] times. *)

val candidate_users : t -> v:int -> (int * float) array
(** The similarity-pruned candidate users of event [v]: every [(u, s)] with
    [s = sim t ~v ~u] and [s > 0], in ascending user id. Similarities are
    bitwise-identical to {!sim}; under a fault plan each read passes
    through the same [sim.*] injection point as {!sim} when its clean
    similarity is positive. Unlike {!event_neighbor} this opens no
    neighbour stream. *)

val with_conflicts : t -> Conflict.t -> t
(** The same instance (entities, similarity and opened neighbour streams
    all shared) under a different conflict graph. Used by the serving
    layer to refresh its cached instance on conflict-only batches without
    reopening the neighbour streams. *)

val neighbor_work : t -> int * int
(** Diagnostic: how many (event-side, user-side) neighbour streams have
    been opened so far on this instance. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line description: sizes, capacities, conflict ratio, similarity. *)
