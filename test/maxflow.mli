(** Maximum flow by Edmonds–Karp (BFS augmenting paths), O(V·E²).

    A test oracle for the SSP solver: a min-cost flow run to saturation
    must route exactly the max-flow value. *)

val solve : Geacc_flow.Graph.t -> source:int -> sink:int -> int
(** Freezes the graph if needed, pushes a maximum flow from source to sink
    (flow is left in the graph) and returns its value. *)
