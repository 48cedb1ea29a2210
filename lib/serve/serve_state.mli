(** The serving loop's mutable world: a growing instance plus its canonical
    arrangement.

    The state owns dynamic user/event sides (ids assigned by arrival order,
    never reused — departures and closures become capacity-0 {e tombstones},
    so every historical id stays addressable), the conflict set, the
    committed arrangement and the replay bookkeeping ([seq] of the last
    applied batch, [cursor] of the first not-fully-served user).

    {2 The canonical arrangement, and why repair is exact}

    The arrangement maintained is {e defined} as what [Online] greedy
    produces when the current users are served in id order against the
    current events. Because each user's walk depends only on the state left
    by smaller ids (prefix stability), the arrangement after any batch can
    be recomputed from any position [p] that is at or below the first user
    whose walk could have changed: keep the committed pairs of users
    [< p], replay users [>= p]. {!apply_batch} maintains that first-dirty
    bound per operation — an arrival or departure dirties its own id; a
    newly opened event its smallest candidate user (positive similarity); a
    close its smallest holder; a capacity decrease to [c] its [(c+1)]-th
    holder; an increase the smallest candidate not already holding the
    event; a new conflict the smallest user that is a candidate of both
    ends (only such a user can hold one end while attempting the other) —
    so {!repair} from the bound is bit-identical to a full re-solve,
    [repair ~from:0] (the serve tests check this at every batch of several
    generated traces). Budget expiry mid-repair is safe for the same
    reason: re-walking a partially served user skips its held events as
    duplicates and continues where the walk stopped, so the [cursor] marks
    an exact resume point. *)

type t

val create : sim:Geacc_core.Similarity.t -> t
(** Empty world: no entities, no conflicts, empty arrangement, [seq = 0]. *)

val seq : t -> int
(** Sequence number of the last applied batch (0 initially). *)

val cursor : t -> int
(** First user id not fully served by the committed arrangement
    ([n_users] when the last repair completed). *)

val n_users : t -> int
(** User ids assigned so far, tombstones included. *)

val n_events : t -> int

val live_users : t -> int
(** Users that have arrived and not departed. *)

val live_events : t -> int

val n_conflicts : t -> int

val pairs : t -> (int * int) list
(** The committed arrangement, sorted lexicographically. *)

val instance : t -> Geacc_core.Instance.t option
(** The current world as a solver instance (tombstones included as
    capacity-0 entities), [None] while no entity exists. Cached until the
    next mutation; safe to hold across mutations — the entity arrays are
    copied out. *)

val maxsum : t -> float
(** MaxSum of the committed arrangement, summed in canonical (lex pair)
    order — the value digests and replay-equivalence checks compare. *)

val dirty_from : t -> int
(** The position {!repair} would replay from: the maintained first-dirty
    bound, capped by {!cursor} and [n_users]. Equal to [n_users] when the
    state is clean and fully served. *)

val apply_batch : t -> Trace.batch -> (unit, Geacc_robust.Error.t) result
(** Validates every operation of the batch against the current state
    (unknown or tombstoned ids, attribute-dimension mismatches, duplicate
    conflicts — arrivals earlier in the batch are visible to later
    operations), then applies them all and advances [seq]. On [Error]
    ([Invalid_input]) the state is untouched: validation precedes every
    mutation, so journal replay rejects exactly the batches the live run
    rejected. *)

type repair = {
  matching : Geacc_core.Matching.t option;
      (** The repaired arrangement ([None] when the world has no
          entities). *)
  served_to : int;  (** First user not fully served; the new cursor. *)
  complete : bool;  (** [served_to = n_users] and no deadline expiry. *)
  replayed_from : int;
      (** Position the replay actually started at (after the defensive
          fallback, if it fired). *)
}

val repair : ?from:int -> t -> deadline:Geacc_robust.Budget.t -> repair
(** Rebuilds the arrangement from [from] (default {!dirty_from}; an
    explicit value is clamped into [[0, dirty_from]], so callers can only
    ask for {e more} replay — [~from:0] is the full re-solve): re-adds
    committed pairs of users below the bound, then serves users from the
    bound onward until
    done or the deadline expires. Defensively falls back to replaying from
    0 should a committed prefix pair fail to re-add (which the dirty-bound
    argument rules out — the fallback turns a latent bug into a slow batch
    instead of a wrong arrangement). Does not mutate the state: call
    {!commit} to adopt the result, or drop it (retries, comparisons). *)

val commit : t -> repair -> unit
(** Adopts a repair: committed pairs, cursor, and the dirty bound is
    cleared. *)

val digest : t -> string
(** FNV-1a 64 over a canonical rendering of the whole state — entities,
    capacities, tombstones, sorted conflicts, pairs, MaxSum bits, [seq] and
    [cursor]. Two states with equal digests went through equivalent
    histories; crash-recovery fuzz compares these. *)

val save : t -> string
(** Snapshot payload: a [geacc-serve-state 2] header,
    [seq]/[cursor]/[dirty]/[sim] lines, then length-prefixed embedded
    [Instance_io] instance and matching texts plus the tombstone id lists.
    The dirty bound is part of the payload because a snapshot may be taken
    while a repair is pending (a rejected or degraded batch since the last
    commit); [n_users] encodes the clean state. *)

val load : string -> (t, Geacc_robust.Error.t) result
(** Inverse of {!save}, strict in the [Instance_io] way. {!dirty_from} of
    the loaded state equals that of the saved one, so recovery repairs
    from the same position the live process would have. *)
