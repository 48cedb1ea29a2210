(** Reference implementation of Greedy-GEACC without the index machinery.

    Materialises {e every} positive-similarity pair, sorts them once in
    descending similarity (ties by event then user id) and adds each
    feasible pair in order. This processes candidate pairs in exactly the
    order Algorithm 2 pops them from its heap, and feasibility at
    processing time is monotone, so the arrangement is {e identical} to
    {!Geacc_core.Greedy.solve}: the test suite's oracle for that
    solver's k-way merge and for the neighbour streams' tie order. *)

val solve : Geacc_core.Instance.t -> Geacc_core.Matching.t
