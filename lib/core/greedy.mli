(** Greedy-GEACC (paper Algorithm 2, approximation ratio 1/(1+α)).

    Algorithm 2 visits every positive-similarity pair in one global order
    — descending similarity, ties by (event, user) id — and adds each pair
    that is still feasible. This runs it as a k-way merge of the |V| event
    lists: {!Instance.event_neighbor} enumerates each event's users in
    (similarity desc, user id asc) order, and a max-heap holds one entry
    per event, its next feasible pair. Popping the heap's maximum therefore
    yields the pairs in exactly the global order. Feasibility only ever
    turns from true to false during the run (capacities only shrink,
    assignments only grow), so a pair skipped while refilling a list head
    would also be rejected when its turn came: each event keeps a rank
    cursor that never moves backwards, and no pair needs revisiting. At
    most |V|·|U| iterations, each O(log |V| + σ) where σ is the
    incremental-NN cost.

    The returned matching is maximal: no feasible pair can be added
    (Lemma 5). Deterministic: ties in similarity break by (event, user)
    id. *)

val solve : Instance.t -> Matching.t

val solve_anytime :
  ?deadline:Geacc_robust.Budget.t -> Instance.t -> Matching.t * bool
(** [solve] under a time budget, polled once per heap pop. On expiry the
    run stops between pops — every pair already matched passed the full
    feasibility check, so the prefix is a feasible (if no longer maximal)
    matching. Returns [(matching, complete)]; [complete = false] means the
    deadline fired first. *)
