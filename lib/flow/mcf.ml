module Budget = Geacc_robust.Budget

(* The potential-update loop and the augmentation walks index their arrays
   through [Geacc_unsafe] under stage-4 licences; the asserts below are the
   facts those proofs rest on. See DESIGN.md §13. *)
module A = Geacc_unsafe

type int_outcome = {
  iflow : int;
  icost : int;          (* total cost in quantisation-grid units *)
  iaugmentations : int;
  itimed_out : bool;
}

let max_cost = 1 lsl 30
let max_nodes = 1 lsl 31

(* Entry check for the overflow bound derived in mcf.mli: every arc with
   residual capacity must cost within [0, max_cost], so the all-zero
   potential reduces non-negatively and no path sum can leave int range. *)
let costs_in_range g =
  let ok = ref true in
  for a = 0 to Graph.arc_count g - 1 do
    if Graph.residual_capacity g a > 0 then begin
      let c = Graph.icost g a in
      if c < 0 || c > max_cost then ok := false
    end
  done;
  !ok

let solve_int g ~source ~sink ?(deadline = Budget.unlimited) ?stop_below
    ?(audit_after_dijkstra = fun ~potential:_ -> ())
    ?(audit_after_augment = fun () -> ()) () =
  assert (source <> sink);
  Graph.finalize_csr g;
  let n = Graph.node_count g in
  assert (0 <= source && source < n && 0 <= sink && sink < n);
  if n >= max_nodes || not (costs_in_range g) then None
  else begin
    let pi = Array.make n 0 in
    (* Scratch for every Dijkstra pass, allocated once per solve: the
       passes themselves allocate nothing. *)
    let dist = Array.make n max_int in
    let parent_arc = Array.make n (-1) in
    let queue = Geacc_pqueue.Int_bucket_queue.create () in
    let total_flow = ref 0 in
    let total_cost = ref 0 in
    let augmentations = ref 0 in
    let continue = ref true in
    let timed_out = ref false in
    let overflow = ref false in
    let bottleneck = ref max_int in
    let v = ref sink in
    while !continue do
      (* Deadline poll between augmentations: each iteration runs a full
         Dijkstra, so read the clock every time rather than batching. An
         expiry never interrupts a path push. *)
      if Budget.check_now deadline then begin
        timed_out := true;
        continue := false
      end
      else begin
        Shortest_path.dijkstra_int g ~source ~pi ~dist ~parent_arc ~queue
          ~stop_at:sink ();
        if dist.(sink) = max_int then continue := false
        else begin
          (* True source->sink path cost, before the potential update —
             exact integer arithmetic, the potentials telescope. *)
          let path_cost = dist.(sink) + pi.(sink) - pi.(source) in
          let stop_here =
            match stop_below with
            | None -> false
            | Some ceiling -> path_cost >= ceiling
          in
          if stop_here then continue := false
          else begin
            (* Keep reduced costs non-negative for the next pass: cap
               distance contributions at the sink's distance. *)
            let cap = dist.(sink) in
            assert (Array.length dist = Array.length pi);
            for u = 0 to Array.length dist - 1 do
              (* bounds: proved — u < |dist| = |pi| (asserted above) *)
              let d = A.unsafe_get dist u in
              (* bounds: proved — u < |pi| = |dist| (asserted above) *)
              A.unsafe_set pi u (A.unsafe_get pi u + (if d < cap then d else cap))
            done;
            audit_after_dijkstra ~potential:pi;
            bottleneck := max_int;
            v := sink;
            assert (Array.length parent_arc = n);
            while !v <> source do
              (* bounds: proved — v stays in [0, n) = [0, |parent_arc|): sink is asserted, Graph.src returns node ids *)
              let a = A.unsafe_get parent_arc !v in
              assert (a >= 0);
              let r = Graph.residual_capacity g a in
              if r < !bottleneck then bottleneck := r;
              v := Graph.src g a
            done;
            let units = !bottleneck in
            assert (units > 0);
            (* The running total is the current flow's cost, which node
               count alone does not bound (see mcf.mli): refuse to wrap. *)
            if path_cost > 0 && units > (max_int - !total_cost) / path_cost
            then begin
              overflow := true;
              continue := false
            end
            else begin
              v := sink;
              while !v <> source do
                (* bounds: proved — v stays in [0, n) = [0, |parent_arc|): sink is asserted, Graph.src returns node ids *)
                let a = A.unsafe_get parent_arc !v in
                Graph.push g a units;
                v := Graph.src g a
              done;
              total_flow := !total_flow + units;
              total_cost := !total_cost + (units * path_cost);
              incr augmentations;
              audit_after_augment ()
            end
          end
        end
      end
    done;
    if !overflow then None
    else
      Some
        {
          iflow = !total_flow;
          icost = !total_cost;
          iaugmentations = !augmentations;
          itimed_out = !timed_out;
        }
  end
