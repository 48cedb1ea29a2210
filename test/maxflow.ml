(* Textbook Edmonds–Karp over the graph's arc API: one BFS per augmenting
   path, scanning each node's [out_begin, out_end) arc range. *)
module Graph = Geacc_flow.Graph

let solve g ~source ~sink =
  assert (source <> sink);
  Graph.finalize_csr g;
  let n = Graph.node_count g in
  assert (0 <= source && source < n && 0 <= sink && sink < n);
  let parent_arc = Array.make n (-1) in
  let visited = Array.make n false in
  let queue = Queue.create () in
  (* One BFS over the residual network; [true] when it reached the sink. *)
  let bfs () =
    Array.fill visited 0 n false;
    Queue.clear queue;
    visited.(source) <- true;
    Queue.add source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for a = Graph.out_begin g u to Graph.out_end g u - 1 do
        let w = Graph.dst g a in
        if (not !found) && (not visited.(w)) && Graph.residual_capacity g a > 0
        then begin
          visited.(w) <- true;
          parent_arc.(w) <- a;
          if w = sink then found := true else Queue.add w queue
        end
      done
    done;
    !found
  in
  (* Walks the BFS tree back from the sink. *)
  let rec path_arcs v acc =
    if v = source then acc
    else
      let a = parent_arc.(v) in
      path_arcs (Graph.src g a) (a :: acc)
  in
  let total = ref 0 in
  while bfs () do
    let path = path_arcs sink [] in
    let bottleneck =
      List.fold_left (fun b a -> min b (Graph.residual_capacity g a)) max_int
        path
    in
    List.iter (fun a -> Graph.push g a bottleneck) path;
    total := !total + bottleneck
  done;
  !total
