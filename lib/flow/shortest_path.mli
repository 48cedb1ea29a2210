(** Single-source shortest paths over the residual network.

    Only arcs with positive residual capacity participate. *)

val dijkstra_int :
  Graph.t ->
  source:int ->
  pi:int array ->
  dist:int array ->
  parent_arc:int array ->
  queue:Geacc_pqueue.Int_bucket_queue.t ->
  ?stop_at:int ->
  unit ->
  unit
(** Dijkstra over the reduced integer costs
    [icost a + pi(src a) - pi(dst a)] of the {!Graph.icost} column, which
    must be non-negative on every arc with residual capacity (Johnson's
    trick; asserted, not clamped — integer potentials telescope exactly),
    with a monotone bucket queue. The distances left in [dist] are the
    {e reduced} distances ([max_int] for unreached nodes); callers
    converting back to true distances add [pi(dst) - pi(source)].
    [parent_arc] holds the arc into each node on a shortest path (-1 at
    the source and at unreached nodes). Freezes the graph
    ({!Graph.finalize_csr}) if it is still being built.

    With [stop_at] the search halts as soon as that node is settled; its
    distance and parents along its shortest path are exact, while other
    entries are tentative upper bounds, never below [stop_at]'s distance —
    which is exactly the property the min-cost-flow potential update
    [pi(v) <- pi(v) + min(dist(v), dist(stop_at))] needs. Relaxations
    strictly above [stop_at]'s tentative distance are dropped (goal
    bound): they cannot reach a shortest [stop_at] path, and the potential
    update caps at that distance anyway, so later passes are unaffected.

    No [settled] array: reduced costs are exactly non-negative, so a
    popped entry is live iff its key equals the node's distance, and a
    settled node can never re-improve.

    [dist], [parent_arc] and [queue] are caller-owned scratch (arrays of
    exactly [node_count] entries, asserted at entry — the stage-4 bounds
    proofs rest on it); the kernel re-initialises them, so one allocation
    serves every pass of an SSP solve. *)
