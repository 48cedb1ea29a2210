module Nn_stream = Geacc_index.Nn_stream

type t = {
  events : Entity.t array;
  users : Entity.t array;
  conflicts : Conflict.t;
  similarity : Similarity.t;
  dim : int;
  event_streams : Nn_stream.t option array;  (* per event, over the users *)
  user_streams : Nn_stream.t option array;  (* per user, over the events *)
}

let create ~sim ~events ~users ~conflicts () =
  let dim =
    if Array.length events > 0 then Entity.dim events.(0)
    else if Array.length users > 0 then Entity.dim users.(0)
    else invalid_arg "Instance.create: no entities"
  in
  let check_side name side =
    Array.iteri
      (fun i (e : Entity.t) ->
        if e.Entity.id <> i then
          invalid_arg
            (Printf.sprintf "Instance.create: %s id %d at position %d" name
               e.Entity.id i);
        if Entity.dim e <> dim then
          invalid_arg
            (Printf.sprintf "Instance.create: %s %d has dimension %d, expected %d"
               name i (Entity.dim e) dim))
      side
  in
  check_side "event" events;
  check_side "user" users;
  if Conflict.n_events conflicts <> Array.length events then
    invalid_arg "Instance.create: conflict set ranges over a different event count";
  {
    events;
    users;
    conflicts;
    similarity = sim;
    dim;
    event_streams = Array.make (Array.length events) None;
    user_streams = Array.make (Array.length users) None;
  }

let n_events t = Array.length t.events
let n_users t = Array.length t.users
let event t v = t.events.(v)
let user t u = t.users.(u)
let events t = t.events
let users t = t.users
let conflicts t = t.conflicts
let similarity t = t.similarity
let dim t = t.dim

(* [sim.nan]/[sim.huge] corrupt similarity values at this one chokepoint
   (matching bookkeeping, flow costs and validation all read through here),
   so the audit layer and the fallback harness can be shown catching a
   poisoned objective mid-solve. One flag load when no plan is active. *)
let injected_sim s =
  if Geacc_robust.Fault.fire "sim.nan" then Float.nan
  else if Geacc_robust.Fault.fire "sim.huge" then 1e300
  else s

let sim t ~v ~u =
  let s =
    Similarity.eval t.similarity t.events.(v).Entity.attrs
      t.users.(u).Entity.attrs
  in
  if Geacc_robust.Fault.active () then injected_sim s else s

let event_capacity t v = t.events.(v).Entity.capacity
let user_capacity t u = t.users.(u).Entity.capacity

let sum_capacity side = Array.fold_left (fun acc e -> acc + e.Entity.capacity) 0 side
let max_capacity side = Array.fold_left (fun acc e -> Stdlib.max acc e.Entity.capacity) 0 side

let sum_event_capacity t = sum_capacity t.events
let sum_user_capacity t = sum_capacity t.users
let max_event_capacity t = max_capacity t.events
let max_user_capacity t = max_capacity t.users

(* Neighbour streams rank the other side by the clean similarity, always
   evaluated as [eval event user]: the same value as [sim] without a fault
   plan, so the stream order is exactly the solvers' (sim desc, id asc). *)
let event_neighbor t ~v ~rank =
  let stream =
    match t.event_streams.(v) with
    | Some s -> s
    | None ->
        let lv = t.events.(v).Entity.attrs in
        let s =
          Nn_stream.create (n_users t) (fun u ->
              Similarity.eval t.similarity lv t.users.(u).Entity.attrs)
        in
        t.event_streams.(v) <- Some s;
        s
  in
  Nn_stream.get stream rank

let user_neighbor t ~u ~rank =
  let stream =
    match t.user_streams.(u) with
    | Some s -> s
    | None ->
        let lu = t.users.(u).Entity.attrs in
        let s =
          Nn_stream.create (n_events t) (fun v ->
              Similarity.eval t.similarity t.events.(v).Entity.attrs lu)
        in
        t.user_streams.(u) <- Some s;
        s
  in
  Nn_stream.get stream rank

let prepare_event_queries (_ : t) = ()

(* Similarity-pruned candidate set of one event, for the flow network
   builder: one ascending-u scan that touches no per-node cache. Under a
   fault plan each read with a positive clean similarity passes through the
   [injected_sim] chokepoint, so [sim.*] plans reach the flow build. *)
let candidate_users t ~v =
  let lv = t.events.(v).Entity.attrs in
  let acc = ref [] and count = ref 0 in
  for u = 0 to n_users t - 1 do
    let s = Similarity.eval t.similarity lv t.users.(u).Entity.attrs in
    if s > 0. then begin
      let s = if Geacc_robust.Fault.active () then injected_sim s else s in
      if s > 0. then begin
        acc := (u, s) :: !acc;
        incr count
      end
    end
  done;
  let a = Array.make !count (0, 0.) in
  List.iter
    (fun c ->
      decr count;
      a.(!count) <- c)
    !acc;
  a

let opened streams =
  Array.fold_left
    (fun acc s -> match s with None -> acc | Some _ -> acc + 1)
    0 streams

let neighbor_work t = (opened t.event_streams, opened t.user_streams)

(* The neighbour streams depend only on the entities and the similarity,
   which are unchanged — swapping the conflicts keeps the opened streams. *)
let with_conflicts t conflicts = { t with conflicts }

let pp_summary ppf t =
  Format.fprintf ppf
    "|V|=%d |U|=%d d=%d sum(c_v)=%d sum(c_u)=%d max(c_u)=%d %a sim=%a"
    (n_events t) (n_users t) t.dim (sum_event_capacity t)
    (sum_user_capacity t) (max_user_capacity t) Conflict.pp t.conflicts
    Similarity.pp t.similarity
