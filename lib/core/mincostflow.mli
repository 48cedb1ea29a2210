(** MinCostFlow-GEACC (paper Algorithm 1, approximation ratio 1/α where α =
    max user capacity).

    Step 1 ignores conflicts: the instance becomes a flow network
    (source → events with capacity [c_v], arc per (v,u) pair with capacity 1
    and cost [1 - sim], users → sink with capacity [c_u]) and the paper's
    sweep of min-cost flows over Δ ∈ [Δ_min, Δ_max] is realised as one
    successive-shortest-path run ({!Geacc_flow.Mcf.solve_int}): after the
    k-th augmentation the network carries the min-cost flow of amount k,
    and since per-unit path costs are non-decreasing, MaxSum(Δ) = Δ −
    cost(Δ) is concave — the run stops just before the first unit whose
    path cost reaches 1, which is exactly the Δ maximising MaxSum. The
    resulting M_∅ is optimal for CF = ∅ (Lemma 1).

    Step 2 restores feasibility: per user, a greedy max-weight independent
    set over their assigned events (keep in descending similarity, skip
    conflicting).

    {2 The network}

    The paper's construction gives every (v,u) pair an arc, zero-similarity
    ones included — Θ(|V|·|U|) arcs. A zero-similarity arc costs exactly 1,
    and the SSP loop stops before any unit whose path cost reaches 1, so no
    unit of the final flow ever crosses one: the builder drops them up
    front via the instance's NN-index candidate queries
    ({!Instance.candidate_users}) and produces the same matching on a
    fraction of the arcs.

    {2 Costs}

    Arc costs [1 - sim] are rounded once, at build time, to the [2^30]
    grid ({!cost_scale}) and stored as integers; the SSP runs in exact
    integer arithmetic (integer Dijkstra over a monotone bucket queue,
    integer potentials). Conflict resolution reads each similarity back as
    [1 - q / 2^30]. See DESIGN.md §15. *)

val cost_scale : int
(** The quantisation grid ([2^30], {!Geacc_flow.Mcf.max_cost}): arc cost
    [c] rounds to [q = round (c * cost_scale)]. *)

type net = {
  graph : Geacc_flow.Graph.t;
  source : int;
  sink : int;
  pair_arcs : int;  (** (v,u) arcs actually emitted. *)
}
(** The Step-1 network. Event [v] is node [1 + v], user [u] is node
    [1 + |V| + u]. *)

type stats = {
  flow_value : int;        (** Δ actually routed (the argmax Δ). *)
  flow_cost : float;       (** Cost of that flow ([icost / cost_scale]). *)
  augmentations : int;     (** Shortest-path computations that pushed flow. *)
  dropped_pairs : int;     (** Pairs removed by conflict resolution. *)
  pair_arcs : int;         (** (v,u) arcs in the network that was solved. *)
  timed_out : bool;        (** [true] when [deadline] stopped the flow sweep
                                early: conflict resolution then ran on a
                                min-cost flow of a smaller Δ, so the result
                                is feasible but may miss the argmax Δ. *)
}

val build_network : Instance.t -> net
(** The Step-1 network, frozen ({!Geacc_flow.Graph.finalize_csr}). The
    candidate queries run in one v-ascending pass, so [sim.*] fault hit
    counters replay in plan order; arcs are emitted v-major with u
    ascending, which fixes arc ids — and hence the SSP pivoting order and
    the final flow. Under [GEACC_AUDIT=1] the build additionally proves
    every pruned pair has zero similarity.
    Exposed for the determinism tests, audits and benchmarks.
    @raise Geacc_robust.Fault.Injected when the [mcf.alloc] point fires.
    @raise Invalid_argument when a candidate similarity lies outside
    [\[0, 1\]] (its cost has no grid point). *)

val solve : ?deadline:Geacc_robust.Budget.t -> Instance.t -> Matching.t
(** [deadline] (default: unlimited) is polled between augmentations of the
    underlying SSP loop; on expiry the partial flow — a valid min-cost flow
    of its own amount — is resolved into a feasible matching as usual.
    @raise Invalid_argument as {!build_network} does, or when the network
    lies outside {!Geacc_flow.Mcf.solve_int}'s overflow bound. *)

val solve_with_stats :
  ?deadline:Geacc_robust.Budget.t -> Instance.t -> Matching.t * stats
