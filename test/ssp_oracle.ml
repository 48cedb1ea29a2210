(* Textbook min-cost flow oracle for the integer SSP kernel.

   Deliberately naive: an arc-list residual network with float costs, one
   Bellman–Ford shortest path per augmentation (no potentials, no heap, no
   CSR), and for GEACC instances the paper's dense network — one arc per
   (v,u) pair, zero-similarity pairs included — over a cost matrix on the
   same 2^30 grid as [Mincostflow]. Grid values q / 2^30 are dyadic and
   every sum stays far below 2^53, so the float arithmetic here is exact
   and the oracle's flow cost is bit-comparable with the kernel's. *)

open Geacc_core

(* Arc [a]'s residual partner is [a lxor 1]. *)
type t = {
  n : int;
  mutable m : int;
  mutable src : int array;
  mutable dst : int array;
  mutable cap : int array;
  mutable cost : float array;
}

let create ~n = { n; m = 0; src = [||]; dst = [||]; cap = [||]; cost = [||] }

let add_half t ~src ~dst ~capacity ~cost =
  if t.m = Array.length t.src then begin
    let grow a fill = Array.append a (Array.make (max 16 t.m) fill) in
    t.src <- grow t.src 0;
    t.dst <- grow t.dst 0;
    t.cap <- grow t.cap 0;
    t.cost <- grow t.cost 0.
  end;
  t.src.(t.m) <- src;
  t.dst.(t.m) <- dst;
  t.cap.(t.m) <- capacity;
  t.cost.(t.m) <- cost;
  t.m <- t.m + 1

let add_arc t ~src ~dst ~capacity ~cost =
  add_half t ~src ~dst ~capacity ~cost;
  add_half t ~src:dst ~dst:src ~capacity:0 ~cost:(-.cost)

(* Every arc pair of a frozen flow graph with its current residual
   capacities and integer costs, so the oracle can search the same
   residual network. *)
let of_graph g =
  let module G = Geacc_flow.Graph in
  let t = create ~n:(G.node_count g) in
  let half a =
    add_half t ~src:(G.src g a) ~dst:(G.dst g a)
      ~capacity:(G.residual_capacity g a)
      ~cost:(float_of_int (G.icost g a))
  in
  G.fold_forward_arcs g ~init:() ~f:(fun () a ->
      half a;
      half (G.rev g a));
  t

(* Shortest distances from [source] over arcs with residual capacity and
   the arc into each reached node; [None] when a negative cycle is
   reachable (still relaxing after n rounds). *)
let bellman_ford t ~source =
  let dist = Array.make t.n infinity and parent = Array.make t.n (-1) in
  dist.(source) <- 0.;
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < t.n do
    changed := false;
    incr rounds;
    for a = 0 to t.m - 1 do
      let d = dist.(t.src.(a)) in
      if t.cap.(a) > 0 && d < infinity && d +. t.cost.(a) < dist.(t.dst.(a))
      then begin
        dist.(t.dst.(a)) <- d +. t.cost.(a);
        parent.(t.dst.(a)) <- a;
        changed := true
      end
    done
  done;
  if !changed then None else Some (dist, parent)

(* Successive shortest paths: augment along a cheapest residual path while
   its cost is below [stop_below] (and, with [target], until that much
   flow is routed). Returns (flow value, total cost); the flow stays in
   [t.cap]. *)
let solve ?(target = max_int) ?(stop_below = infinity) t ~source ~sink =
  let flow = ref 0 and cost = ref 0. and continue = ref true in
  while !continue && !flow < target do
    match bellman_ford t ~source with
    | None -> failwith "Ssp_oracle.solve: negative residual cycle"
    | Some (dist, parent) ->
        if not (dist.(sink) < stop_below) then continue := false
        else begin
          let units = ref (target - !flow) and v = ref sink in
          while !v <> source do
            let a = parent.(!v) in
            units := min !units t.cap.(a);
            v := t.src.(a)
          done;
          v := sink;
          while !v <> source do
            let a = parent.(!v) in
            t.cap.(a) <- t.cap.(a) - !units;
            t.cap.(a lxor 1) <- t.cap.(a lxor 1) + !units;
            v := t.src.(a)
          done;
          flow := !flow + !units;
          cost := !cost +. (float_of_int !units *. dist.(sink))
        end
  done;
  (!flow, !cost)

type geacc = { flow_value : int; flow_cost : float; matching : Matching.t }

(* MinCostFlow-GEACC on the dense network: stop before the first unit
   whose path cost reaches 1, then resolve conflicts per user in
   descending similarity, skipping events that conflict with one kept. *)
let mincostflow instance =
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let scale = float_of_int Mincostflow.cost_scale in
  let source = 0 and sink = 1 + n_v + n_u in
  let t = create ~n:(sink + 1) in
  for v = 0 to n_v - 1 do
    add_arc t ~src:source ~dst:(1 + v)
      ~capacity:(Instance.event_capacity instance v) ~cost:0.
  done;
  let pair_arc = Array.make_matrix n_v n_u 0 in
  for v = 0 to n_v - 1 do
    for u = 0 to n_u - 1 do
      pair_arc.(v).(u) <- t.m;
      let q = Float.round ((1. -. Instance.sim instance ~v ~u) *. scale) in
      add_arc t ~src:(1 + v) ~dst:(1 + n_v + u) ~capacity:1 ~cost:(q /. scale)
    done
  done;
  for u = 0 to n_u - 1 do
    add_arc t ~src:(1 + n_v + u) ~dst:sink
      ~capacity:(Instance.user_capacity instance u) ~cost:0.
  done;
  let flow_value, flow_cost = solve t ~source ~sink ~stop_below:1. in
  let matching = Matching.create instance in
  let cf = Instance.conflicts instance in
  for u = 0 to n_u - 1 do
    let assigned = ref [] in
    for v = 0 to n_v - 1 do
      let a = pair_arc.(v).(u) in
      if t.cap.(a) = 0 then assigned := (1. -. t.cost.(a), v) :: !assigned
    done;
    let kept = ref [] in
    List.iter
      (fun (_, v) ->
        if not (List.exists (fun w -> Conflict.mem cf v w) !kept) then begin
          kept := v :: !kept;
          ignore (Matching.add_exn matching ~v ~u : float)
        end)
      (List.sort
         (fun (s1, v1) (s2, v2) ->
           let c = Float.compare s2 s1 in
           if c <> 0 then c else Int.compare v1 v2)
         !assigned)
  done;
  { flow_value; flow_cost; matching }
