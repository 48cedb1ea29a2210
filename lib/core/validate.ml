type violation =
  | Event_id_out_of_range of int
  | User_id_out_of_range of int
  | Duplicate_pair of int * int
  | Event_over_capacity of { v : int; load : int; capacity : int }
  | User_over_capacity of { u : int; load : int; capacity : int }
  | Non_positive_similarity of int * int
  | Conflicting_assignment of { u : int; v1 : int; v2 : int }
  | Maxsum_drift of { incremental : float; recomputed : float }

let check instance pairs =
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let violations = ref [] in
  let report x = violations := x :: !violations in
  let in_range = List.filter (fun (v, u) ->
      let ok_v = v >= 0 && v < n_v and ok_u = u >= 0 && u < n_u in
      if not ok_v then report (Event_id_out_of_range v);
      if not ok_u then report (User_id_out_of_range u);
      ok_v && ok_u)
      pairs
  in
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun (v, u) ->
        if Hashtbl.mem seen (v, u) then begin
          report (Duplicate_pair (v, u));
          false
        end
        else begin
          Hashtbl.add seen (v, u) ();
          true
        end)
      in_range
  in
  let event_load = Array.make n_v 0 and user_load = Array.make n_u 0 in
  let user_events = Array.make n_u [] in
  List.iter
    (fun (v, u) ->
      event_load.(v) <- event_load.(v) + 1;
      user_load.(u) <- user_load.(u) + 1;
      user_events.(u) <- v :: user_events.(u);
      if Instance.sim instance ~v ~u <= 0. then
        report (Non_positive_similarity (v, u)))
    unique;
  Array.iteri
    (fun v load ->
      let capacity = Instance.event_capacity instance v in
      if load > capacity then report (Event_over_capacity { v; load; capacity }))
    event_load;
  Array.iteri
    (fun u load ->
      let capacity = Instance.user_capacity instance u in
      if load > capacity then report (User_over_capacity { u; load; capacity }))
    user_load;
  let cf = Instance.conflicts instance in
  Array.iteri
    (fun u vs ->
      let vs = List.sort_uniq compare vs in
      List.iter
        (fun v1 ->
          List.iter
            (fun v2 ->
              if v1 < v2 && Conflict.mem cf v1 v2 then
                report (Conflicting_assignment { u; v1; v2 }))
            vs)
        vs)
    user_events;
  List.rev !violations

let is_feasible instance pairs = check instance pairs = []

let check_matching m =
  let incremental = Matching.maxsum m in
  let recomputed = Matching.maxsum_recomputed m in
  let drift =
    if Float.abs (incremental -. recomputed) > 1e-6 then
      [ Maxsum_drift { incremental; recomputed } ]
    else []
  in
  check (Matching.instance m) (Matching.pairs m) @ drift

let pp_violation ppf = function
  | Event_id_out_of_range v -> Format.fprintf ppf "event id %d out of range" v
  | User_id_out_of_range u -> Format.fprintf ppf "user id %d out of range" u
  | Duplicate_pair (v, u) -> Format.fprintf ppf "duplicate pair (v%d,u%d)" v u
  | Event_over_capacity { v; load; capacity } ->
      Format.fprintf ppf "event %d over capacity (%d > %d)" v load capacity
  | User_over_capacity { u; load; capacity } ->
      Format.fprintf ppf "user %d over capacity (%d > %d)" u load capacity
  | Non_positive_similarity (v, u) ->
      Format.fprintf ppf "pair (v%d,u%d) has non-positive similarity" v u
  | Conflicting_assignment { u; v1; v2 } ->
      Format.fprintf ppf "user %d assigned conflicting events %d and %d" u v1 v2
  | Maxsum_drift { incremental; recomputed } ->
      Format.fprintf ppf "MaxSum drift: incremental %.9f vs recomputed %.9f"
        incremental recomputed

let audit_matching ~site m =
  if Geacc_check.Audit.enabled () then
    match check_matching m with
    | [] -> ()
    | v :: _ as vs ->
        Geacc_check.Audit.failf ~site "%s (first of %d violations)"
          (Format.asprintf "%a" pp_violation v)
          (List.length vs)

let audit_added_pair ~site m ~v ~u =
  if Geacc_check.Audit.enabled () then begin
    let instance = Matching.instance m in
    let fail violation =
      Geacc_check.Audit.failf ~site "%s (after adding (v%d,u%d))"
        (Format.asprintf "%a" pp_violation violation)
        v u
    in
    let load = Matching.event_load m v in
    let capacity = Instance.event_capacity instance v in
    if load > capacity then fail (Event_over_capacity { v; load; capacity });
    let load = Matching.user_load m u in
    let capacity = Instance.user_capacity instance u in
    if load > capacity then fail (User_over_capacity { u; load; capacity });
    let cf = Instance.conflicts instance in
    List.iter
      (fun v' ->
        if v' <> v && Conflict.mem cf v v' then
          fail
            (Conflicting_assignment
               { u; v1 = Stdlib.min v v'; v2 = Stdlib.max v v' }))
      (Matching.user_events m u)
  end
