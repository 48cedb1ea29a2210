(* Bechamel micro-benchmarks of the solver kernels and substrates: one
   Test.make per experiment family, all run from the same executable as the
   paper-figure harness. Reported as mean ns/run from the OLS fit. *)

open Bechamel
module Solver = Geacc_core.Solver
module Synthetic = Geacc_datagen.Synthetic

let small_instance =
  lazy
    (Synthetic.generate ~seed:1
       {
         Synthetic.default with
         Synthetic.n_events = 20;
         n_users = 100;
       })

let tiny_instance =
  lazy
    (Synthetic.generate ~seed:1
       {
         Synthetic.default with
         Synthetic.n_events = 5;
         n_users = 12;
         event_capacity = Synthetic.Cap_uniform 5;
         user_capacity = Synthetic.Cap_uniform 2;
       })

let solver_test name algorithm instance_lazy =
  Test.make ~name
    (Staged.stage (fun () ->
         let instance = Lazy.force instance_lazy in
         ignore (Solver.run algorithm instance)))

let heap_test =
  Test.make ~name:"binary-heap push/pop 1k"
    (Staged.stage (fun () ->
         let h = Geacc_pqueue.Binary_heap.create ~cmp:Int.compare () in
         for i = 0 to 999 do
           Geacc_pqueue.Binary_heap.push h ((i * 7919) mod 1000)
         done;
         while not (Geacc_pqueue.Binary_heap.is_empty h) do
           ignore (Geacc_pqueue.Binary_heap.pop_exn h)
         done))

(* Integer Dijkstra over a ring-with-chords residual network: every node
   has a few outgoing arcs, so the run exercises the bucket queue, the arc
   walk and the reduced-cost arithmetic — the exact inner loop of the
   min-cost-flow solver. *)
let dijkstra_graph =
  lazy
    (let n = 1000 in
     let g = Geacc_flow.Graph.create ~num_nodes:n in
     for v = 0 to n - 1 do
       let add d icost =
         ignore
           (Geacc_flow.Graph.add_arc g ~src:v ~dst:((v + d) mod n) ~capacity:2
              ~icost)
       in
       add 1 1;
       add 7 (3 + (v mod 5));
       add 131 (10 + (v mod 11))
     done;
     g)

let dijkstra_test =
  Test.make ~name:"dijkstra_int (1k nodes, 3k arcs)"
    (Staged.stage (fun () ->
         let g = Lazy.force dijkstra_graph in
         let n = Geacc_flow.Graph.node_count g in
         Geacc_flow.Shortest_path.dijkstra_int g ~source:0
           ~pi:(Array.make n 0) ~dist:(Array.make n 0)
           ~parent_arc:(Array.make n 0)
           ~queue:(Geacc_pqueue.Int_bucket_queue.create ())
           ~stop_at:500 ()))

(* One neighbour stream opened and drained rank by rank: the full
   Equation-1 similarity scan plus every quickselect extension of the
   sorted prefix. *)
let nn_stream_test =
  let points =
    Array.init 2000 (fun i ->
        Array.init 20 (fun k -> float_of_int ((i * (k + 13)) mod 997)))
  in
  let query = Array.init 20 (fun k -> float_of_int (50 * k)) in
  let sim = Geacc_core.Similarity.euclidean ~dim:20 ~range:1000. in
  Test.make ~name:"nn_stream drain (2k pts, d=20)"
    (Staged.stage (fun () ->
         let s =
           Geacc_index.Nn_stream.create (Array.length points) (fun i ->
               Geacc_core.Similarity.eval sim query points.(i))
         in
         let rank = ref 1 in
         while Option.is_some (Geacc_index.Nn_stream.get s !rank) do
           incr rank
         done))

(* Network construction alone: the candidate scan, arc staging and the
   CSR freeze, without the SSP. *)
let mcf_instance =
  lazy
    (Synthetic.generate ~seed:1
       { Synthetic.default with Synthetic.n_events = 100; n_users = 1000 })

let mcf_build_test =
  Test.make ~name:"MCF network build (100x1000)"
    (Staged.stage (fun () ->
         let instance = Lazy.force mcf_instance in
         ignore (Geacc_core.Mincostflow.build_network instance)))

(* Budget polling overhead: the same solver run with a disarmed budget
   (the default) and with an armed budget whose deadline is far away, so
   every iteration pays the cooperative poll but the run never degrades.
   Comparing against the plain variants above measures the robustness
   layer's hot-loop tax (target: <= 2%, see EXPERIMENTS.md). *)
let armed_solver_test name algorithm instance_lazy =
  Test.make ~name
    (Staged.stage (fun () ->
         let instance = Lazy.force instance_lazy in
         let deadline = Geacc_robust.Budget.create ~timeout_s:3600. () in
         ignore (Solver.run ~deadline algorithm instance)))

let tests =
  Test.make_grouped ~name:"geacc"
    [
      solver_test "Greedy-GEACC (20x100)" Solver.Greedy small_instance;
      solver_test "MinCostFlow-GEACC (20x100)" Solver.Min_cost_flow
        small_instance;
      solver_test "Random-V (20x100)" Solver.Random_v small_instance;
      solver_test "Prune-GEACC (5x12)" Solver.Prune tiny_instance;
      armed_solver_test "MinCostFlow-GEACC armed budget (20x100)"
        Solver.Min_cost_flow small_instance;
      armed_solver_test "Prune-GEACC armed budget (5x12)" Solver.Prune
        tiny_instance;
      heap_test;
      dijkstra_test;
      nn_stream_test;
      mcf_build_test;
    ]

let run () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.6) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      tests
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Geacc_util.Table.create ~title:"Micro-benchmarks (Bechamel, OLS fit)"
      ~headers:[ "benchmark"; "ns/run" ]
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] ->
          Geacc_util.Table.add_row table [ name; Printf.sprintf "%.0f" ns ]
      | _ -> Geacc_util.Table.add_row table [ name; "n/a" ])
    results;
  Geacc_util.Table.print table
