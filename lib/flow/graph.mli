(** Residual flow network, stored as CSR.

    A graph is built in two phases. While it is being built, {!add_arc}
    appends edges (integer capacity, integer cost per unit of flow) to a
    staging list. {!finalize_csr} then freezes it, once: every edge becomes
    two half-arcs — the forward arc and its residual partner (zero
    capacity, negated cost) — laid out contiguously per source node, and
    the staging list is dropped. Pushing flow moves capacity between the
    two halves of a pair.

    Arc ids are CSR positions: the arcs leaving node [n] are exactly the
    ids in [\[out_begin n, out_end n)], and {!rev} gives each arc's
    residual partner. Every arc accessor requires the frozen graph (before
    the freeze {!arc_count} is 0 and every node's range is empty). *)

type t

type arc = int
(** A half-arc: its CSR position in the frozen graph. *)

type edge = int
(** An edge as returned by {!add_arc}: its insertion index, from 0. *)

val create : num_nodes:int -> t
(** Network over nodes [0 .. num_nodes-1] with no arcs. *)

val node_count : t -> int

val arc_count : t -> int
(** Number of half-arcs in the frozen graph, residual partners included
    (twice the edge count); 0 before {!finalize_csr}. *)

val reserve : t -> arcs:int -> unit
(** Pre-sizes the staging list for [arcs] further {!add_arc} calls, so a
    bulk construction pays one allocation instead of a doubling cascade.
    Purely an optimisation — ids and contents are unaffected.
    @raise Invalid_argument once the graph is frozen. *)

val add_arc : t -> src:int -> dst:int -> capacity:int -> icost:int -> edge
(** Stages an edge and returns its id (the number of edges staged before
    it). Requires [capacity >= 0] and valid node ids. [icost] is the
    edge's integer cost per unit (the [Mincostflow] network builder stores
    [1 - sim] quantised to its [2^30] grid); its residual partner carries
    the negation.
    @raise Invalid_argument once the graph is frozen. *)

val finalize_csr : t -> unit
(** Freezes the graph: counts half-arcs by source node, prefix-sums the
    counts into the offset table, and scatters the half-arcs in descending
    insertion order (edge [k]'s residual half, then its forward half, for
    [k] from the last edge down to 0). Within a node, arcs therefore come
    in descending insertion order, the order the traversal kernels'
    tie-breaking — and hence every pinned flow — is defined by.
    O(nodes + edges); a no-op on a frozen graph. *)

val arc_of_edge : t -> edge -> arc
(** The forward half-arc of an edge. Requires the frozen graph. *)

val rev : t -> arc -> arc
(** The residual partner of an arc (an involution). *)

val src : t -> arc -> int
(** Source node of an arc: the destination of its partner. *)

val dst : t -> arc -> int

val icost : t -> arc -> int
(** Integer cost of an arc (the [icost] given to {!add_arc}, negated on
    residual partners). *)

val residual_capacity : t -> arc -> int
(** Remaining capacity of an arc in the residual network. *)

val initial_capacity : t -> arc -> int
(** Capacity of an arc at the freeze (0 for residual partners). *)

val unsafe_set_residual_capacity : t -> arc -> int -> unit
(** Overwrites an arc's residual capacity {e without} touching its
    partner, breaking the pair-conservation invariant. Fault injection for
    audit tests only — never call this from algorithm code. *)

val flow : t -> arc -> int
(** Flow carried along an arc: the capacity it has given up,
    [initial_capacity a - residual_capacity a]. Non-negative on a forward
    arc; on a residual partner it is the negated flow of the forward arc. *)

val push : t -> arc -> int -> unit
(** [push g a k] sends [k] units along [a]: decreases [a]'s residual
    capacity, increases its partner's. Requires
    [0 <= k <= residual_capacity g a]. *)

val fold_forward_arcs : t -> init:'a -> f:('a -> arc -> 'a) -> 'a
(** Folds over the forward half-arcs in edge insertion order. *)

val out_begin : t -> int -> arc
(** First arc leaving a node. *)

val out_end : t -> int -> arc
(** One past the last arc leaving a node. *)

(** {2 Raw columns}

    The [unsafe_csr_*] accessors hand the traversal kernels the per-arc
    columns themselves, so they index arcs from [\[out_begin n, out_end
    n)] ranges with no per-access check. Every such index site must carry
    a stage-4 licence [(* bounds: proved — ... *)] that [dune build
    @bounds] re-proves on every build: every arc below {!arc_count} is in
    bounds for each column, and the offsets lie in [\[0, arc_count\]]
    ([Audit.Flow.check_csr] verifies the offsets at runtime). The columns
    stay current across {!push}/{!reset_flow}. *)

val unsafe_csr_dst : t -> int array
(** Per-arc destination column. *)

val unsafe_csr_icost : t -> int array
(** Per-arc integer-cost column. *)

val unsafe_csr_cap : t -> int array
(** Per-arc residual-capacity column. *)

val reset_flow : t -> unit
(** Returns every arc to zero flow. *)

val excess : t -> int -> int
(** Net inflow minus outflow at a node (flow-conservation check hook). A
    self-loop's flow leaves and re-enters its node, so it nets to 0. *)
