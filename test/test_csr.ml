(* CSR construction invariants on the flow graph:

   - offsets are monotone, contiguous, and cover every arc exactly once;
     [rev] is a fixed-point-free involution that swaps endpoints and
     negates costs;
   - each node's arcs come in descending insertion half-id order (edge k's
     forward half is 2k, its residual half 2k+1), checked against a
     reference order computed here from the edge list alone;
   - [push] moves capacity within a [rev] pair and [reset_flow] undoes it;
   - the freeze is one-way: [add_arc]/[reserve] afterwards raise, a second
     [finalize_csr] changes nothing;
   - shortest-path/flow results on the frozen graph. *)

module Graph = Geacc_flow.Graph
module Shortest_path = Geacc_flow.Shortest_path
module Int_bucket_queue = Geacc_pqueue.Int_bucket_queue
module Audit = Geacc_check.Audit
module Rng = Geacc_util.Rng

type edge_spec = { s : int; d : int; cap : int; cost : int }

(* A random multigraph with the shapes that stress offset bookkeeping:
   parallel arcs (a quarter of the edges repeat their predecessor's
   endpoints), self-loops, zero-capacity arcs, and isolated nodes (only
   even node ids take part). *)
let random_edges ~seed ~nodes ~arcs =
  let rng = Rng.create ~seed in
  let node () = 2 * Rng.int rng ((nodes + 1) / 2) in
  let prev = ref None in
  List.init arcs (fun _ ->
      let s, d =
        match !prev with
        | Some (s, d) when Rng.int rng 4 = 0 -> (s, d)
        | _ ->
            let s = node () in
            (s, if Rng.int rng 8 = 0 then s else node ())
      in
      prev := Some (s, d);
      { s; d; cap = Rng.int rng 4; cost = Rng.int rng 1000 })

let build ~nodes edges =
  let g = Graph.create ~num_nodes:nodes in
  Graph.reserve g ~arcs:(List.length edges);
  List.iteri
    (fun k e ->
      let id =
        Graph.add_arc g ~src:e.s ~dst:e.d ~capacity:e.cap ~icost:e.cost
      in
      Alcotest.(check int) "edge id is the insertion index" k id)
    edges;
  Graph.finalize_csr g;
  g

let cases =
  [ (1, 1, 0); (2, 5, 1); (3, 9, 40); (4, 30, 200); (5, 12, 12); (6, 15, 80) ]

let check_structure ~label g =
  let n = Graph.node_count g and m = Graph.arc_count g in
  Alcotest.(check int) (label ^ ": offsets start at 0") 0
    (if n = 0 then 0 else Graph.out_begin g 0);
  for v = 0 to n - 1 do
    if Graph.out_end g v < Graph.out_begin g v then
      Alcotest.failf "%s: node %d range reversed" label v;
    if v + 1 < n && Graph.out_end g v <> Graph.out_begin g (v + 1) then
      Alcotest.failf "%s: gap between node %d and %d" label v (v + 1)
  done;
  if n > 0 then
    Alcotest.(check int) (label ^ ": offsets cover all arcs") m
      (Graph.out_end g (n - 1));
  for v = 0 to n - 1 do
    for a = Graph.out_begin g v to Graph.out_end g v - 1 do
      let b = Graph.rev g a in
      if b = a then Alcotest.failf "%s: arc %d is its own partner" label a;
      Alcotest.(check int) (Printf.sprintf "%s: rev involution at %d" label a)
        a (Graph.rev g b);
      Alcotest.(check int) (Printf.sprintf "%s: arc %d src" label a) v
        (Graph.src g a);
      Alcotest.(check int) (Printf.sprintf "%s: partner of %d enters" label a)
        v (Graph.dst g b);
      Alcotest.(check int) (Printf.sprintf "%s: partner of %d cost" label a)
        (-Graph.icost g a) (Graph.icost g b)
    done
  done;
  Audit.Flow.check_csr ~site:label g

let test_structure () =
  List.iter
    (fun (seed, nodes, arcs) ->
      let edges = random_edges ~seed ~nodes ~arcs in
      let g = build ~nodes edges in
      let label = Printf.sprintf "seed=%d n=%d m=%d" seed nodes arcs in
      Alcotest.(check int) (label ^ ": two halves per edge") (2 * arcs)
        (Graph.arc_count g);
      check_structure ~label g)
    cases

(* The reference scan order: node [v]'s half ids, descending, where half
   2k runs s_k -> d_k with the edge's capacity and cost and half 2k+1 runs
   back with no capacity and the negated cost. *)
let reference_order edges v =
  let spec = Array.of_list edges in
  let m = 2 * Array.length spec in
  List.filter
    (fun h ->
      let e = spec.(h / 2) in
      (if h land 1 = 0 then e.s else e.d) = v)
    (List.init m (fun i -> m - 1 - i))

let test_scan_order () =
  List.iter
    (fun (seed, nodes, arcs) ->
      let edges = random_edges ~seed ~nodes ~arcs in
      let spec = Array.of_list edges in
      let g = build ~nodes edges in
      for v = 0 to nodes - 1 do
        let a = ref (Graph.out_begin g v) in
        List.iter
          (fun h ->
            let e = spec.(h / 2) and fwd = Graph.arc_of_edge g (h / 2) in
            let expected, dst, cap, cost =
              if h land 1 = 0 then (fwd, e.d, e.cap, e.cost)
              else (Graph.rev g fwd, e.s, 0, -e.cost)
            in
            let label = Printf.sprintf "seed=%d node %d half %d" seed v h in
            Alcotest.(check int) (label ^ ": position") expected !a;
            Alcotest.(check int) (label ^ ": dst") dst (Graph.dst g !a);
            Alcotest.(check int) (label ^ ": capacity") cap
              (Graph.initial_capacity g !a);
            Alcotest.(check int) (label ^ ": cost") cost (Graph.icost g !a);
            incr a)
          (reference_order edges v);
        Alcotest.(check int)
          (Printf.sprintf "seed=%d node %d range exhausted" seed v)
          (Graph.out_end g v) !a
      done)
    cases

let test_residual_pairing_preserved () =
  let edges = random_edges ~seed:7 ~nodes:10 ~arcs:60 in
  let g = build ~nodes:10 edges in
  List.iteri
    (fun k e ->
      let a = Graph.arc_of_edge g k in
      let b = Graph.rev g a in
      Alcotest.(check (pair int int)) (Printf.sprintf "edge %d endpoints" k)
        (e.s, e.d)
        (Graph.src g a, Graph.dst g a);
      Alcotest.(check (pair int int)) (Printf.sprintf "edge %d partner" k)
        (e.d, e.s)
        (Graph.src g b, Graph.dst g b))
    edges;
  (* fold_forward_arcs visits exactly the forward halves, in edge order. *)
  Alcotest.(check (list int)) "forward arcs in edge order"
    (List.mapi (fun k _ -> Graph.arc_of_edge g k) edges)
    (List.rev (Graph.fold_forward_arcs g ~init:[] ~f:(fun acc a -> a :: acc)))

let test_push_moves_pair_capacity () =
  let g = Graph.create ~num_nodes:4 in
  let e0 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:3 ~icost:4 in
  let e1 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:2 ~icost:2 in
  let (_ : Graph.edge) = Graph.add_arc g ~src:2 ~dst:3 ~capacity:1 ~icost:1 in
  Graph.finalize_csr g;
  let a0 = Graph.arc_of_edge g e0 and a1 = Graph.arc_of_edge g e1 in
  Graph.push g a0 2;
  Graph.push g a1 1;
  check_structure ~label:"after push" g;
  Alcotest.(check int) "pushed arc gave up capacity" 1
    (Graph.residual_capacity g a0);
  Alcotest.(check int) "reverse arc gained capacity" 2
    (Graph.residual_capacity g (Graph.rev g a0));
  (* Cancel one unit over the reverse arc: both halves move again. *)
  Graph.push g (Graph.rev g a0) 1;
  Alcotest.(check int) "cancelled unit" 1 (Graph.flow g a0);
  check_structure ~label:"after reverse push" g;
  Graph.unsafe_set_residual_capacity g a1 2;
  Graph.unsafe_set_residual_capacity g (Graph.rev g a1) 0;
  check_structure ~label:"after raw write" g;
  Graph.reset_flow g;
  check_structure ~label:"after reset_flow" g;
  Alcotest.(check int) "reset restores initial capacity" 3
    (Graph.residual_capacity g a0)

let test_frozen_is_final () =
  let g = Graph.create ~num_nodes:3 in
  let (_ : Graph.edge) = Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~icost:0 in
  Graph.finalize_csr g;
  let offsets () =
    List.init 3 (fun v -> (Graph.out_begin g v, Graph.out_end g v))
  in
  let before = offsets () in
  Graph.finalize_csr g;
  Alcotest.(check (list (pair int int))) "second freeze is a no-op" before
    (offsets ());
  Alcotest.check_raises "add_arc after the freeze"
    (Invalid_argument "Graph.add_arc: graph is frozen") (fun () ->
      ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~icost:0));
  Alcotest.check_raises "reserve after the freeze"
    (Invalid_argument "Graph.reserve: graph is frozen") (fun () ->
      Graph.reserve g ~arcs:1);
  check_structure ~label:"still frozen" g

let test_flow_round_trip () =
  (* A 2x2 transport instance driven through the CSR-backed solvers: the
     cheapest augmenting path is s->1->3->t (1), then s->2->4->t (2)
     after one unit is pushed along the first. *)
  let g = Graph.create ~num_nodes:6 in
  let s = 0 and t = 5 in
  let arc ~src ~dst ~capacity ~icost =
    let (_ : Graph.edge) = Graph.add_arc g ~src ~dst ~capacity ~icost in
    ()
  in
  arc ~src:s ~dst:1 ~capacity:2 ~icost:0;
  arc ~src:s ~dst:2 ~capacity:2 ~icost:0;
  arc ~src:1 ~dst:3 ~capacity:1 ~icost:1;
  arc ~src:1 ~dst:4 ~capacity:1 ~icost:4;
  arc ~src:2 ~dst:4 ~capacity:2 ~icost:2;
  arc ~src:3 ~dst:t ~capacity:2 ~icost:0;
  arc ~src:4 ~dst:t ~capacity:2 ~icost:0;
  let n = Graph.node_count g in
  let dist = Array.make n 0 and parent_arc = Array.make n 0 in
  let queue = Int_bucket_queue.create () in
  (* Zero potentials suffice for both passes: stopping at the sink keeps
     the second pass from scanning past it into the negative partner arcs
     the first push opened (only reachable from [t]). *)
  let augment_cheapest expected_cost =
    Shortest_path.dijkstra_int g ~source:s ~pi:(Array.make n 0) ~dist
      ~parent_arc ~queue ~stop_at:t ();
    Alcotest.(check int)
      (Printf.sprintf "path cost %d" expected_cost)
      expected_cost dist.(t);
    (* Walk parents back from the sink pushing one unit. *)
    let v = ref t in
    while !v <> s do
      let a = parent_arc.(!v) in
      Graph.push g a 1;
      v := Graph.src g a
    done
  in
  augment_cheapest 1;
  check_structure ~label:"after first augmentation" g;
  augment_cheapest 2;
  check_structure ~label:"after second augmentation" g;
  Graph.reset_flow g;
  check_structure ~label:"after reset" g;
  let flow_only = Maxflow.solve g ~source:s ~sink:t in
  Alcotest.(check int) "max flow via BFS" 3 flow_only;
  check_structure ~label:"after maxflow" g

let suite =
  [
    Alcotest.test_case "offsets/permutation structure" `Quick test_structure;
    Alcotest.test_case "scan order = descending half id" `Quick
      test_scan_order;
    Alcotest.test_case "residual pairing preserved" `Quick
      test_residual_pairing_preserved;
    Alcotest.test_case "push moves capacity within a pair" `Quick
      test_push_moves_pair_capacity;
    Alcotest.test_case "freeze is one-way" `Quick test_frozen_is_final;
    Alcotest.test_case "flow solvers round-trip on CSR" `Quick
      test_flow_round_trip;
  ]
