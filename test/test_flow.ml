(* Flow substrate: residual graph mechanics, the integer Dijkstra against
   the textbook Bellman–Ford of [Ssp_oracle], Edmonds-Karp, and the
   integer SSP min-cost-flow solver checked against brute-force assignment
   enumeration. *)

open Geacc_flow
module Rng = Geacc_util.Rng

let test_graph_basics () =
  let g = Graph.create ~num_nodes:3 in
  let ea = Graph.add_arc g ~src:0 ~dst:1 ~capacity:5 ~icost:2 in
  let eb = Graph.add_arc g ~src:1 ~dst:2 ~capacity:3 ~icost:(-1) in
  Alcotest.(check (pair int int)) "edge ids" (0, 1) (ea, eb);
  Alcotest.(check int) "no arcs before the freeze" 0 (Graph.arc_count g);
  Graph.finalize_csr g;
  let a = Graph.arc_of_edge g ea in
  let r = Graph.rev g a in
  Alcotest.(check int) "node count" 3 (Graph.node_count g);
  Alcotest.(check int) "arcs incl. residuals" 4 (Graph.arc_count g);
  Alcotest.(check int) "src" 0 (Graph.src g a);
  Alcotest.(check int) "dst" 1 (Graph.dst g a);
  Alcotest.(check int) "partner reversed" 1 (Graph.src g r);
  Alcotest.(check int) "rev is an involution" a (Graph.rev g r);
  Alcotest.(check int) "cost" 2 (Graph.icost g a);
  Alcotest.(check int) "residual cost negated" (-2) (Graph.icost g r);
  Alcotest.(check int) "residual capacity" 5 (Graph.residual_capacity g a);
  Alcotest.(check int) "partner starts empty" 0 (Graph.residual_capacity g r);
  Graph.push g a 2;
  Alcotest.(check int) "flow" 2 (Graph.flow g a);
  Alcotest.(check int) "partner flow negated" (-2) (Graph.flow g r);
  Alcotest.(check int) "capacity decreased" 3 (Graph.residual_capacity g a);
  Alcotest.(check int) "partner grew" 2 (Graph.residual_capacity g r);
  Graph.push g r 1;
  Alcotest.(check int) "push back cancels" 1 (Graph.flow g a);
  Graph.reset_flow g;
  Alcotest.(check int) "reset" 0 (Graph.flow g a);
  Alcotest.(check int) "reset partner" 0 (Graph.residual_capacity g r)

let test_graph_excess () =
  let g = Graph.create ~num_nodes:4 in
  let e1 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:2 ~icost:0 in
  let e2 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:2 ~icost:0 in
  Graph.finalize_csr g;
  Graph.push g (Graph.arc_of_edge g e1) 2;
  Graph.push g (Graph.arc_of_edge g e2) 1;
  Alcotest.(check int) "inner node excess" 1 (Graph.excess g 1);
  Alcotest.(check int) "source excess" (-2) (Graph.excess g 0);
  Alcotest.(check int) "sink side" 1 (Graph.excess g 2);
  Alcotest.(check int) "isolated node" 0 (Graph.excess g 3)

(* Flow around a self-loop leaves and re-enters its node: [excess] and the
   conservation audit must both net it to 0. *)
let test_graph_excess_self_loop () =
  let g = Graph.create ~num_nodes:3 in
  let e01 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost:0 in
  let loop = Graph.add_arc g ~src:1 ~dst:1 ~capacity:2 ~icost:0 in
  let e12 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~icost:0 in
  Graph.finalize_csr g;
  List.iter
    (fun (e, k) -> Graph.push g (Graph.arc_of_edge g e) k)
    [ (e01, 1); (loop, 2); (e12, 1) ];
  Alcotest.(check int) "loop carries flow" 2
    (Graph.flow g (Graph.arc_of_edge g loop));
  Alcotest.(check int) "loop node balanced" 0 (Graph.excess g 1);
  Alcotest.(check int) "source" (-1) (Graph.excess g 0);
  Alcotest.(check int) "sink" 1 (Graph.excess g 2);
  Geacc_check.Audit.Flow.check_conservation ~site:"test" g ~source:0 ~sink:2

(* One integer Dijkstra pass from [source] with zero potentials, so the
   returned distances are true distances. *)
let dijkstra ?stop_at g ~source =
  let n = Graph.node_count g in
  let dist = Array.make n 0 and parent_arc = Array.make n 0 in
  Shortest_path.dijkstra_int g ~source ~pi:(Array.make n 0) ~dist ~parent_arc
    ~queue:(Geacc_pqueue.Int_bucket_queue.create ())
    ?stop_at ();
  (dist, parent_arc)

(* A small fixed graph with a known shortest-path structure. *)
let diamond ?(cap12 = 10) () =
  let g = Graph.create ~num_nodes:4 in
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 1 -> 3 (6), 2 -> 3 (1) *)
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:10 ~icost:1);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:10 ~icost:4);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:cap12 ~icost:2);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:10 ~icost:6);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:10 ~icost:1);
  g

let test_dijkstra_diamond () =
  let g = diamond () in
  let dist, parent_arc = dijkstra g ~source:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 3; 4 |] dist;
  (* Path to 3 goes through 2. *)
  Alcotest.(check int) "parent of 3 comes from 2" 2
    (Graph.src g parent_arc.(3))

let test_dijkstra_respects_capacity () =
  (* No capacity on 1 -> 2: shortest to 2 becomes the direct cost-4 arc.
     (Saturating it by a push would open its negative-cost partner, which
     zero potentials do not reduce non-negatively.) *)
  let g = diamond ~cap12:0 () in
  let dist, _ = dijkstra g ~source:0 in
  Alcotest.(check int) "rerouted distance" 4 dist.(2)

let test_dijkstra_unreachable () =
  let g = Graph.create ~num_nodes:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost:1);
  let dist, _ = dijkstra g ~source:0 in
  Alcotest.(check int) "node 2 unreachable" max_int dist.(2)

(* The oracle's Bellman–Ford runs on residual networks, whose partner
   arcs carry negated costs: it must route through a negative arc and
   report a reachable negative cycle instead of looping. *)
let test_bellman_ford_negative () =
  let t = Ssp_oracle.create ~n:3 in
  Ssp_oracle.add_arc t ~src:0 ~dst:1 ~capacity:1 ~cost:5.;
  Ssp_oracle.add_arc t ~src:0 ~dst:2 ~capacity:1 ~cost:1.;
  Ssp_oracle.add_arc t ~src:2 ~dst:1 ~capacity:1 ~cost:(-3.);
  match Ssp_oracle.bellman_ford t ~source:0 with
  | None -> Alcotest.fail "no negative cycle here"
  | Some (dist, _) ->
      Alcotest.(check (float 0.)) "negative arc used" (-2.) dist.(1)

let test_bellman_ford_detects_cycle () =
  let t = Ssp_oracle.create ~n:3 in
  Ssp_oracle.add_arc t ~src:0 ~dst:1 ~capacity:1 ~cost:1.;
  Ssp_oracle.add_arc t ~src:1 ~dst:2 ~capacity:5 ~cost:(-4.);
  Ssp_oracle.add_arc t ~src:2 ~dst:1 ~capacity:5 ~cost:1.;
  Alcotest.(check bool) "negative cycle detected" true
    (Ssp_oracle.bellman_ford t ~source:0 = None)

let random_graph rng ~n ~arcs =
  let g = Graph.create ~num_nodes:n in
  for _ = 1 to arcs do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then
      ignore
        (Graph.add_arc g ~src ~dst
           ~capacity:(1 + Rng.int rng 5)
           ~icost:(Rng.int rng 1000))
  done;
  g

let test_dijkstra_agrees_with_bellman_ford () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 50 do
    let g = random_graph rng ~n:8 ~arcs:20 in
    let dist, _ = dijkstra g ~source:0 in
    match Ssp_oracle.bellman_ford (Ssp_oracle.of_graph g) ~source:0 with
    | None -> Alcotest.fail "non-negative costs cannot cycle"
    | Some (oracle, _) ->
        Array.iteri
          (fun i d ->
            if d = max_int then
              Alcotest.(check bool) "both unreachable" true
                (oracle.(i) = infinity)
            else
              Alcotest.(check (float 0.))
                "distance agreement" oracle.(i) (float_of_int d))
          dist
  done

let test_maxflow_known () =
  (* Classic: two disjoint augmenting paths plus a cross arc. *)
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:3 ~icost:0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:2 ~icost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:2 ~icost:0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:3 ~icost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~icost:0);
  Alcotest.(check int) "max flow 5" 5 (Maxflow.solve g ~source:0 ~sink:3)

let test_maxflow_conservation () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 30 do
    let g = random_graph rng ~n:7 ~arcs:15 in
    let f = Maxflow.solve g ~source:0 ~sink:6 in
    Alcotest.(check bool) "non-negative value" true (f >= 0);
    for n = 1 to 5 do
      Alcotest.(check int) "conservation at inner nodes" 0 (Graph.excess g n)
    done;
    Alcotest.(check int) "sink receives the flow" f (Graph.excess g 6)
  done

(* Brute-force minimum cost of an assignment of exactly [k] rows to
   distinct columns (every row assigned when [k] is the matrix size). *)
let brute_force_assignment ?k costs =
  let n = Array.length costs in
  let k = match k with Some k -> k | None -> n in
  let best = ref max_int in
  let rec go used acc i picked =
    if picked = k then best := min !best acc
    else if i < n && n - i >= k - picked then begin
      go used acc (i + 1) picked;
      for j = 0 to n - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go used (acc + costs.(i).(j)) (i + 1) (picked + 1);
          used.(j) <- false
        end
      done
    end
  in
  go (Array.make n false) 0 0 0;
  !best

let assignment_graph costs =
  let n = Array.length costs in
  let g = Graph.create ~num_nodes:(2 + (2 * n)) in
  let src = 0 and sink = 1 in
  for i = 0 to n - 1 do
    ignore (Graph.add_arc g ~src ~dst:(2 + i) ~capacity:1 ~icost:0);
    ignore (Graph.add_arc g ~src:(2 + n + i) ~dst:sink ~capacity:1 ~icost:0)
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      ignore
        (Graph.add_arc g ~src:(2 + i) ~dst:(2 + n + j) ~capacity:1
           ~icost:costs.(i).(j))
    done
  done;
  (g, src, sink)

let random_costs rng n =
  Array.init n (fun _ -> Array.init n (fun _ -> Rng.int rng 1000))

let solve_int ?stop_below ?audit_after_augment g ~source ~sink =
  match Mcf.solve_int g ~source ~sink ?stop_below ?audit_after_augment () with
  | Some o -> o
  | None -> Alcotest.fail "solve_int refused an in-bound network"

(* Cost of the flow currently in the graph. *)
let flow_cost g =
  Graph.fold_forward_arcs g ~init:0 ~f:(fun acc a ->
      acc + (Graph.flow g a * Graph.icost g a))

let test_mcf_matches_brute_force () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 25 do
    let n = 2 + Rng.int rng 4 in
    let costs = random_costs rng n in
    let g, source, sink = assignment_graph costs in
    let outcome = solve_int g ~source ~sink in
    Alcotest.(check int) "perfect assignment" n outcome.Mcf.iflow;
    Alcotest.(check int) "optimal cost" (brute_force_assignment costs)
      outcome.Mcf.icost
  done

let test_mcf_per_unit_prefix () =
  (* After the k-th unit, the flow must be a min-cost flow of value k: the
     cheapest assignment of exactly k rows costs the same. *)
  let rng = Rng.create ~seed:7 in
  let n = 4 in
  let costs = random_costs rng n in
  let g, source, sink = assignment_graph costs in
  let prefix = ref [] in
  let (_ : Mcf.int_outcome) =
    solve_int g ~source ~sink
      ~audit_after_augment:(fun () ->
        prefix := (Graph.excess g sink, flow_cost g) :: !prefix)
  in
  Alcotest.(check int) "one augmentation per unit" n (List.length !prefix);
  List.iter
    (fun (k, cost) ->
      Alcotest.(check int)
        (Printf.sprintf "prefix optimality at k=%d" k)
        (brute_force_assignment ~k costs)
        cost)
    !prefix

let test_mcf_path_costs_non_decreasing () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 3 in
    let g, source, sink = assignment_graph (random_costs rng n) in
    (* Per-unit path cost of each augmentation, from the flow's growth. *)
    let last_flow = ref 0 and last_cost = ref 0 and last_path = ref min_int in
    let (_ : Mcf.int_outcome) =
      solve_int g ~source ~sink ~audit_after_augment:(fun () ->
          let flow = Graph.excess g sink and cost = flow_cost g in
          let path = (cost - !last_cost) / (flow - !last_flow) in
          Alcotest.(check bool) "non-decreasing path costs" true
            (path >= !last_path);
          last_flow := flow;
          last_cost := cost;
          last_path := path)
    in
    ()
  done

let test_mcf_stop_below_stops_before_push () =
  let costs = [| [| 100; 900 |]; [| 800; 950 |] |] in
  let g, source, sink = assignment_graph costs in
  (* Refuse any path costing 500 or more: only the 100 unit goes through. *)
  let outcome = solve_int g ~source ~sink ~stop_below:500 in
  Alcotest.(check int) "one unit" 1 outcome.Mcf.iflow;
  Alcotest.(check int) "its cost" 100 outcome.Mcf.icost;
  Alcotest.(check int) "no other flow in the graph" 100 (flow_cost g)

(* Negative costs are outside the kernel's overflow bound (its zero
   starting potential needs every capacitated arc to cost at least 0):
   it refuses them at entry, before pushing anything. *)
let test_mcf_negative_costs () =
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost:2);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:1 ~icost:0);
  ignore (Graph.add_arc g ~src:2 ~dst:1 ~capacity:1 ~icost:(-1));
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:2 ~icost:0);
  Alcotest.(check bool) "refused" true
    (Mcf.solve_int g ~source:0 ~sink:3 () = None);
  Alcotest.(check int) "nothing pushed" 0 (Graph.excess g 3)

let test_mcf_negative_cycle_refused () =
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:5 ~icost:(-2));
  ignore (Graph.add_arc g ~src:2 ~dst:1 ~capacity:5 ~icost:1);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:1 ~icost:0);
  Alcotest.(check bool) "refused" true
    (Mcf.solve_int g ~source:0 ~sink:3 () = None)

(* The overflow bound is derived for costs up to 2^30: the ceiling itself
   is accepted, one past it refused. *)
let test_mcf_cost_ceiling () =
  let solve icost =
    let g = Graph.create ~num_nodes:2 in
    ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost);
    Option.map (fun o -> o.Mcf.icost) (Mcf.solve_int g ~source:0 ~sink:1 ())
  in
  Alcotest.(check (option int)) "at the ceiling" (Some Mcf.max_cost)
    (solve Mcf.max_cost);
  Alcotest.(check (option int)) "past the ceiling" None
    (solve (Mcf.max_cost + 1))

(* The total cost is bounded by the flow value as well as the node count,
   so a push that would take it past max_int is refused instead: 2^33
   units at cost 2^30 would cost 2^63. *)
let test_mcf_total_cost_overflow () =
  let g = Graph.create ~num_nodes:2 in
  ignore
    (Graph.add_arc g ~src:0 ~dst:1 ~capacity:(1 lsl 33) ~icost:Mcf.max_cost);
  Alcotest.(check bool) "refused" true
    (Mcf.solve_int g ~source:0 ~sink:1 () = None);
  Alcotest.(check int) "nothing pushed" 0 (Graph.excess g 1)

let test_mcf_agrees_with_maxflow () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 20 do
    let g = random_graph rng ~n:8 ~arcs:18 in
    let g' = Graph.create ~num_nodes:8 in
    (* Duplicate structure for the max-flow oracle. *)
    Graph.finalize_csr g;
    Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
        ignore
          (Graph.add_arc g' ~src:(Graph.src g a) ~dst:(Graph.dst g a)
             ~capacity:(Graph.residual_capacity g a) ~icost:0));
    let mf = Maxflow.solve g' ~source:0 ~sink:7 in
    let outcome = solve_int g ~source:0 ~sink:7 in
    Alcotest.(check int) "saturating MCF routes the max flow" mf
      outcome.Mcf.iflow
  done

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph excess" `Quick test_graph_excess;
    Alcotest.test_case "graph excess nets a self-loop" `Quick
      test_graph_excess_self_loop;
    Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
    Alcotest.test_case "dijkstra respects capacity" `Quick
      test_dijkstra_respects_capacity;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "bellman-ford negative arc" `Quick
      test_bellman_ford_negative;
    Alcotest.test_case "bellman-ford cycle detection" `Quick
      test_bellman_ford_detects_cycle;
    Alcotest.test_case "dijkstra = bellman-ford" `Quick
      test_dijkstra_agrees_with_bellman_ford;
    Alcotest.test_case "maxflow known value" `Quick test_maxflow_known;
    Alcotest.test_case "maxflow conservation" `Quick test_maxflow_conservation;
    Alcotest.test_case "mcf = brute force assignment" `Quick
      test_mcf_matches_brute_force;
    Alcotest.test_case "mcf per-unit prefix optimality" `Quick
      test_mcf_per_unit_prefix;
    Alcotest.test_case "mcf path costs non-decreasing" `Quick
      test_mcf_path_costs_non_decreasing;
    Alcotest.test_case "mcf stop_below pre-push" `Quick
      test_mcf_stop_below_stops_before_push;
    Alcotest.test_case "mcf negative costs" `Quick test_mcf_negative_costs;
    Alcotest.test_case "mcf negative cycle" `Quick
      test_mcf_negative_cycle_refused;
    Alcotest.test_case "mcf saturates to max flow" `Quick
      test_mcf_agrees_with_maxflow;
    Alcotest.test_case "mcf cost ceiling" `Quick test_mcf_cost_ceiling;
    Alcotest.test_case "mcf total cost overflow" `Quick
      test_mcf_total_cost_overflow;
  ]
