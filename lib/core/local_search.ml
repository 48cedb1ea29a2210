module Budget = Geacc_robust.Budget

type stats = { rounds : int; moves_accepted : int; gained : float }

(* Best feasible pair touching event [v] or user [u] — excluding the
   banned pair — by (sim, v, u) order.

   Candidates come from the instance's NN-index neighbour streams (the same
   query the flow network builder uses), which enumerate exactly the
   positive-similarity counterparts in descending similarity with ties by
   id — so zero-similarity pairs, never feasible, are skipped up front, and
   each side's scan can stop as soon as the stream similarity falls
   strictly below the incumbent's (later ranks only get worse). The
   (s, v, u)-max over distinct pairs is unique, so the result is identical
   to the former full |V|+|U| scan. *)
let best_incident m instance ~banned ~v ~u =
  let best = ref None in
  let consider v' u' s =
    if (v', u') <> banned && Matching.check_add m ~v:v' ~u:u' = None then
      match !best with
      | Some (s0, v0, u0) when (s0, -v0, -u0) >= (s, -v', -u') -> ()
      | _ -> best := Some (s, v', u')
  in
  let scan next pair_of =
    (* poll: ok — the scan stops at the incumbent's similarity; bounded by one neighbour stream *)
    let rec go rank =
      match next ~rank with
      | None -> ()
      | Some (j, s) ->
          let beaten =
            match !best with Some (s0, _, _) -> s < s0 | None -> false
          in
          if not beaten then begin
            let v', u' = pair_of j in
            consider v' u' s;
            go (rank + 1)
          end
    in
    go 1
  in
  scan (fun ~rank -> Instance.event_neighbor instance ~v ~rank) (fun j -> (v, j));
  scan (fun ~rank -> Instance.user_neighbor instance ~u ~rank) (fun j -> (j, u));
  !best

(* One replace move: pull (v,u) out, refill greedily from the incident
   pairs — the removed pair itself is banned, otherwise the refill would
   just put it back — and keep the refill only if MaxSum strictly
   improved. *)
let try_replace m instance ~v ~u =
  let before = Matching.maxsum m in
  Matching.remove_exn m ~v ~u;
  let added = ref [] in
  (* poll: ok — every refill step consumes one unit of freed capacity, so the recursion is bounded by c_v + c_u *)
  let rec refill () =
    match best_incident m instance ~banned:(v, u) ~v ~u with
    | Some (_, v', u') ->
        let (_ : float) = Matching.add_exn m ~v:v' ~u:u' in
        added := (v', u') :: !added;
        refill ()
    | None -> ()
  in
  refill ();
  if Matching.maxsum m > before +. 1e-12 then true
  else begin
    (* Revert: drop the refill, restore the original pair. *)
    List.iter (fun (v', u') -> Matching.remove_exn m ~v:v' ~u:u') !added;
    let (_ : float) = Matching.add_exn m ~v ~u in
    false
  end

let add_all_feasible m instance =
  let added = ref 0 in
  for v = 0 to Instance.n_events instance - 1 do
    if Matching.remaining_event_capacity m v > 0 then begin
      (* Only positive-similarity users can ever be added; enumerate them
         through the neighbour stream instead of scanning all of |U|, then
         restore the ascending-user order the full scan attempted adds
         in. *)
      let candidates = ref [] in
      (* poll: ok — one pass over event v's positive-similarity neighbour stream *)
      let rec collect rank =
        match Instance.event_neighbor instance ~v ~rank with
        | None -> ()
        | Some (u, _) ->
            candidates := u :: !candidates;
            collect (rank + 1)
      in
      collect 1;
      let sorted = List.sort Int.compare !candidates in
      List.iter
        (fun u ->
          match Matching.add m ~v ~u with
          | Ok _ -> incr added
          | Error _ -> ())
        sorted
    end
  done;
  !added

let improve ?(max_rounds = 8) ?(deadline = Budget.unlimited) m =
  if max_rounds < 1 then invalid_arg "Local_search.improve: max_rounds < 1";
  let instance = Matching.instance m in
  let initial = Matching.maxsum m in
  let moves = ref 0 in
  let rounds = ref 0 in
  let progressed = ref true in
  (* The deadline is polled between rounds and between replace moves; every
     move either completes (including its revert) or never starts, so the
     matching stays feasible on expiry. *)
  while !progressed && !rounds < max_rounds && not (Budget.check deadline) do
    incr rounds;
    progressed := false;
    if add_all_feasible m instance > 0 then progressed := true;
    List.iter
      (fun (v, u) ->
        (* The pair may already have been displaced by an earlier move. *)
        if
          (not (Budget.check deadline))
          && Matching.mem m ~v ~u
          && try_replace m instance ~v ~u
        then begin
          incr moves;
          progressed := true
        end)
      (Matching.pairs m)
  done;
  {
    rounds = !rounds;
    moves_accepted = !moves;
    gained = Matching.maxsum m -. initial;
  }

let solve ?max_rounds ?deadline instance =
  let m = Greedy.solve instance in
  let (_ : stats) = improve ?max_rounds ?deadline m in
  m
