module Graph = Geacc_flow.Graph
module Mcf = Geacc_flow.Mcf
module Audit = Geacc_check.Audit
module Fault = Geacc_robust.Fault

(* Quantisation grid: costs 1 - sim ∈ [0, 1] round to [0, 2^30], the
   ceiling [Mcf.max_cost] the SSP overflow bound is derived for. Rounding
   moves each cost by at most 2^-31 ≈ 5e-10; conflict resolution reads the
   similarity back as [1 - q / 2^30], a dyadic value exactly representable
   as a double. *)
let cost_scale = Mcf.max_cost
let cost_scale_f = float_of_int cost_scale
let dequantise q = float_of_int q /. cost_scale_f

(* A similarity outside [0, 1] (a custom similarity out of contract, or a
   [sim.huge] fault plan) has no cost on the grid: refuse it rather than
   let [int_of_float] wrap a non-finite product. *)
let quantise ~v ~u s =
  let x = Float.round ((1. -. s) *. cost_scale_f) in
  if not (x >= 0. && x <= cost_scale_f) then
    invalid_arg
      (Printf.sprintf
         "Mincostflow.build_network: similarity %g of pair (%d,%d) outside \
          [0, 1]"
         s v u);
  int_of_float x

type net = {
  graph : Graph.t;
  source : int;
  sink : int;
  pair_arcs : int;
}

type stats = {
  flow_value : int;
  flow_cost : float;
  augmentations : int;
  dropped_pairs : int;
  pair_arcs : int;
  timed_out : bool;
}

(* Node layout: 0 = source; 1..|V| = events; |V|+1..|V|+|U| = users; last =
   sink. *)

(* Build audit: every (v,u) pair the candidate queries pruned must have
   similarity exactly 0 — an index bug that silently drops a
   matchable pair would otherwise only show up as a worse MaxSum. *)
let audit_pruned_pairs ~site instance g ~n_v ~n_u =
  let emitted = Array.make (Stdlib.max (n_v * n_u) 1) false in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      let s = Graph.src g a and d = Graph.dst g a in
      if s >= 1 && s <= n_v && d > n_v && d <= n_v + n_u then
        emitted.(((s - 1) * n_u) + (d - 1 - n_v)) <- true);
  for v = 0 to n_v - 1 do
    for u = 0 to n_u - 1 do
      if not emitted.((v * n_u) + u) then begin
        let s = Instance.sim instance ~v ~u in
        if s > 0. then
          Audit.failf ~site
            "pruned pair (%d,%d) has positive similarity %.17g" v u s
      end
    done
  done

let build_network instance =
  (* [mcf.alloc] simulates the network arena failing to materialise (the
     arc array is this solver's dominant allocation); the fallback harness
     treats the injected exception as a transient fault. *)
  Fault.inject "mcf.alloc";
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let source = 0 in
  let event_node v = 1 + v in
  let user_node u = 1 + n_v + u in
  let sink = 1 + n_v + n_u in
  let g = Graph.create ~num_nodes:(sink + 1) in
  (* Similarity-pruned construction: per event, the candidate query returns
     exactly the users with [sim > 0], so the event layer emits
     [Σ_v |cand v|] arcs instead of |V|·|U|. A zero-similarity arc would
     cost exactly 1, and the SSP loop stops before any unit whose path
     cost reaches 1, so no unit of the final flow could ever cross one.
     One v-ascending pass collects the candidate sets (so [sim.*] fault
     counters fire in event order); degree counting then pre-sizes the
     staging list exactly, and the v-major, u-ascending emission fixes edge
     ids — and hence the frozen scan order — by (v, u) rank. *)
  let candidates =
    Array.init n_v (fun v -> Instance.candidate_users instance ~v)
  in
  let pair_arcs =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 candidates
  in
  Graph.reserve g ~arcs:(n_v + pair_arcs + n_u);
  for v = 0 to n_v - 1 do
    ignore
      (Graph.add_arc g ~src:source ~dst:(event_node v)
         ~capacity:(Instance.event_capacity instance v) ~icost:0)
  done;
  Array.iteri
    (fun v cands ->
      Array.iter
        (fun (u, s) ->
          ignore
            (Graph.add_arc g ~src:(event_node v) ~dst:(user_node u)
               ~capacity:1 ~icost:(quantise ~v ~u s)))
        cands)
    candidates;
  for u = 0 to n_u - 1 do
    ignore
      (Graph.add_arc g ~src:(user_node u) ~dst:sink
         ~capacity:(Instance.user_capacity instance u) ~icost:0)
  done;
  Graph.finalize_csr g;
  if Audit.enabled () then
    audit_pruned_pairs ~site:"Mincostflow.build_network" instance g ~n_v
      ~n_u;
  { graph = g; source; sink; pair_arcs }

let solve_with_stats ?deadline instance =
  let n_v = Instance.n_events instance in
  let n_u = Instance.n_users instance in
  let net = build_network instance in
  let g = net.graph and source = net.source and sink = net.sink in
  (* A unit of flow adds 1 - path_cost to MaxSum; path costs only grow, so
     stopping before the first non-improving unit lands on the Δ with the
     largest MaxSum (the paper's argmax over Δ_min..Δ_max). *)
  (* Audit hooks fire inside the SSP loop, so a broken invariant names the
     augmentation that introduced it rather than surfacing after the run. *)
  if Audit.enabled () then
    Audit.Flow.check_csr ~site:"Mincostflow.solve/finalize" g;
  let audit_after_augment () =
    if Audit.enabled () then begin
      let site = "Mincostflow.solve/augment" in
      Audit.Flow.check_capacity ~site g;
      Audit.Flow.check_conservation ~site g ~source ~sink
    end
  in
  let audit_after_dijkstra ~potential =
    if Audit.enabled () then
      Audit.Flow.check_reduced_costs_int ~site:"Mincostflow.solve/dijkstra"
        g ~potential
  in
  (* [None] means the network left [Mcf.solve_int]'s overflow bound (2^31
     nodes or more, or a flow cost past max_int; [quantise] already keeps
     every arc cost on [0, 2^30]). There is no other kernel to hand it to. *)
  let outcome =
    match
      Mcf.solve_int g ~source ~sink ?deadline ~stop_below:cost_scale
        ~audit_after_dijkstra ~audit_after_augment ()
    with
    | Some o -> o
    | None ->
        invalid_arg
          "Mincostflow.solve: network outside the integer SSP overflow bound"
  in
  (* M_∅: pairs carrying flow with positive similarity. The similarity is
     recovered from the stored arc cost (s = 1 - q / 2^30) instead of being
     recomputed; [s > 0] iff [q < 2^30], exactly the build-time gate. *)
  let assigned = Array.make n_u [] in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      let sv = Graph.src g a in
      if sv >= 1 && sv <= n_v then begin
        let d = Graph.dst g a in
        if d > n_v && d < sink && Graph.flow g a = 1 then begin
          let s = 1. -. dequantise (Graph.icost g a) in
          if s > 0. then begin
            let u = d - 1 - n_v in
            assigned.(u) <- (sv - 1, s) :: assigned.(u)
          end
        end
      end);
  (* Conflict resolution (Algorithm 1, lines 8-14): per user, keep events in
     descending similarity, skipping any that conflict with one already
     kept — a greedy max-weight independent set. *)
  let matching = Matching.create instance in
  let dropped = ref 0 in
  let cf = Instance.conflicts instance in
  (* Kept-set as a bitset, reused across users: the conflict probe per
     candidate is one word-AND scan of the event's conflict row. *)
  let kept = Bitset.create ~bits:n_v in
  Array.iteri
    (fun u events ->
      let sorted =
        List.sort
          (fun (v1, s1) (v2, s2) ->
            let c = Float.compare s2 s1 in
            if c <> 0 then c else Int.compare v1 v2)
          events
      in
      Bitset.clear kept;
      List.iter
        (fun (v, _) ->
          if Bitset.intersects (Conflict.row cf v) kept then incr dropped
          else begin
            Bitset.set kept v;
            let (_ : float) = Matching.add_exn matching ~v ~u in
            ()
          end)
        sorted)
    assigned;
  if outcome.Mcf.itimed_out then
    Validate.audit_matching ~site:"Mincostflow.solve/degraded" matching;
  ( matching,
    {
      flow_value = outcome.Mcf.iflow;
      flow_cost = dequantise outcome.Mcf.icost;
      augmentations = outcome.Mcf.iaugmentations;
      dropped_pairs = !dropped;
      pair_arcs = net.pair_arcs;
      timed_out = outcome.Mcf.itimed_out;
    } )

let solve ?deadline instance = fst (solve_with_stats ?deadline instance)
