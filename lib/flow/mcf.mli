(** Minimum-cost flow by successive shortest paths (SSP) with potentials,
    over the integer {!Graph.icost} column.

    Each augmentation pushes flow along a minimum-cost residual path, so
    after the k-th unit the network carries a min-cost flow of amount k —
    the per-Δ prefix property MinCostFlow-GEACC relies on (see DESIGN.md
    §5). Every pass is one {!Shortest_path.dijkstra_int} on reduced costs
    with integer Johnson potentials, starting from the all-zero potential
    (costs are non-negative, so no Bellman–Ford seeding is needed), giving
    O(F · E · 63) for total flow F.

    {2 Overflow bound}

    All arithmetic is in OCaml's 63-bit [int] ([max_int = 2^62 - 1]). Let
    [C = max_cost = 2^30] and [n] the node count. {!solve_int} requires at
    entry that every arc with residual capacity costs in [\[0, C\]]
    (residual partners of unused arcs have no capacity, so their negated
    costs are never read). Then, at every pass:
    - the residual network has no negative cycle (the SSP invariant), so
      the true shortest distance [D(v)] of every reached node is the cost
      of a simple path of at most [n - 1] arcs of cost at most [C] in
      absolute value: [|D(v)| <= (n - 1)·C];
    - potentials start at 0, only grow, and never exceed the sink's
      ([pi(v) <= pi(sink) = D(sink)] by induction over the capped update),
      so [0 <= pi(v) <= (n - 1)·C];
    - a reduced arc cost is [icost + pi(u) - pi(v) <= C + (n - 1)·C = n·C]
      (its partial sum [icost + pi(u)] too), a settled reduced distance is
      [D(u) - pi(u) <= (n - 1)·C], so every key [d + rc] stays below
      [2·n·C];
    - the path cost [D(sink)] and every updated potential stay within
      [(n - 1)·C].
    Every value is therefore below [2·n·C = n·2^31], which fits in
    [max_int] exactly when [n < 2^31] ({!max_nodes}). The running total
    cost is the current flow's cost [Σ flow(a)·icost(a)], which grows with
    the flow value as well as [n]; it is checked before each push instead. *)

type int_outcome = {
  iflow : int;           (** Total units routed. *)
  icost : int;           (** Total cost, in {!Graph.icost} units. *)
  iaugmentations : int;  (** Number of augmenting paths used. *)
  itimed_out : bool;     (** [true] when [deadline] expired: the flow is a
                             min-cost flow of its (smaller) amount, not of
                             the one the stop rule would have reached. *)
}

val max_cost : int
(** [2^30]: the largest arc cost {!solve_int} accepts. *)

val max_nodes : int
(** [2^31]: {!solve_int} refuses networks with this many nodes or more
    (see the overflow bound above). *)

val solve_int :
  Graph.t ->
  source:int ->
  sink:int ->
  ?deadline:Geacc_robust.Budget.t ->
  ?stop_below:int ->
  ?audit_after_dijkstra:(potential:int array -> unit) ->
  ?audit_after_augment:(unit -> unit) ->
  unit ->
  int_outcome option
(** Freezes the graph ({!Graph.finalize_csr}) if it is still being built,
    then augments until the sink is unreachable, the next path cost reaches
    [stop_below], or [deadline] (default: unlimited) expires.

    [stop_below] is checked {e before} pushing along a found path — since
    path costs are non-decreasing across augmentations, refusing once ends
    the run with the flow untouched by that path (for MinCostFlow-GEACC's
    MaxSum stop rule [path_cost < 1], pass the quantisation scale). The
    deadline is polled once per iteration, {e between} augmentations — an
    expiry never interrupts a path push, so the flow left in the graph is
    always consistent (capacity- and conservation-clean) and optimal for
    its own amount; the outcome is then flagged [itimed_out]. The flow
    pushed stays in the graph — read it back with {!Graph.flow}.

    Returns [None] outside the overflow bound: a node count of at least
    {!max_nodes}, an arc with residual capacity whose cost lies outside
    [\[0, max_cost\]] (checked at entry, before any push), or a push that
    would take the total cost past [max_int] (the flow pushed before it
    stays in the graph).

    The audit hooks default to no-ops and exist so callers can inject
    invariant checkers (see [Geacc_check.Audit]) without this library
    depending on them: [audit_after_dijkstra] fires once per iteration
    right after the potentials are updated, [audit_after_augment] after
    each augmentation's flow push. *)
