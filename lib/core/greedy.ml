module Heap = Geacc_pqueue.Binary_heap
module Audit = Geacc_check.Audit
module Budget = Geacc_robust.Budget

type candidate = { sim : float; v : int; u : int }

(* Max-heap on similarity; ties by ascending (v,u) for determinism. *)
let candidate_cmp c1 c2 =
  let c = Float.compare c2.sim c1.sim in
  if c <> 0 then c
  else
    let c = Int.compare c1.v c2.v in
    if c <> 0 then c else Int.compare c1.u c2.u

type state = {
  instance : Instance.t;
  matching : Matching.t;
  heap : candidate Heap.t;  (* at most one entry per event: its list head *)
  event_rank : int array;  (* next NN rank to examine per event *)
}

(* Would adding {v,u} right now violate a capacity or conflict constraint?
   All three conditions are monotone: once true they stay true, which is
   what lets the rank cursors advance permanently past such neighbours. *)
let infeasible st ~v ~u =
  Matching.remaining_event_capacity st.matching v <= 0
  || Matching.remaining_user_capacity st.matching u <= 0
  || Matching.user_conflicts_with st.matching ~u ~v

(* Advance [v]'s cursor past its infeasible neighbours and push the first
   feasible one as [v]'s new list head. *)
let refill_event st v =
  (* poll: ok — the rank cursor only ever advances, so refills are amortized across the popping loop, which polls *)
  let rec scan () =
    match Instance.event_neighbor st.instance ~v ~rank:st.event_rank.(v) with
    | None -> ()
    | Some (u, sim) ->
        st.event_rank.(v) <- st.event_rank.(v) + 1;
        if infeasible st ~v ~u then scan () else Heap.push st.heap { sim; v; u }
  in
  scan ()

let solve_anytime ?(deadline = Budget.unlimited) instance =
  let st =
    {
      instance;
      matching = Matching.create instance;
      heap = Heap.create ~cmp:candidate_cmp ();
      event_rank = Array.make (Instance.n_events instance) 1;
    }
  in
  (* Initialisation (Algorithm 2, lines 1-9): each event contributes its
     first feasible pair. *)
  for v = 0 to Instance.n_events instance - 1 do
    if Instance.event_capacity instance v > 0 then refill_event st v
  done;
  (* Iteration (lines 11-23): pop the most similar candidate, match it when
     still feasible, then refill from its event if that has capacity left.
     The deadline is polled between pops, so every matched pair went through
     the full feasibility check and the prefix stays feasible on expiry. *)
  let rec loop () =
    if Budget.check deadline then false
    else
      match Heap.pop st.heap with
      | None -> true
      | Some { v; u; _ } ->
          let added =
            match Matching.add st.matching ~v ~u with
            | Ok _ -> true
            | Error _ -> false
          in
          if Matching.remaining_event_capacity st.matching v > 0 then
            refill_event st v;
          (* Audit at the step granularity: a conflict or capacity overflow is
             reported at the pop that introduced it, with the heap's structure
             checked alongside. Only the pair just added can break a
             constraint, so the step checks that pair; the whole matching is
             audited once, when the loop ends. *)
          if Audit.enabled () then begin
            Audit.Heap.check_binary ~site:"Greedy.solve/pop" st.heap;
            if added then
              Validate.audit_added_pair ~site:"Greedy.solve/pop" st.matching
                ~v ~u
          end;
          loop ()
  in
  let complete = loop () in
  Validate.audit_matching
    ~site:(if complete then "Greedy.solve/end" else "Greedy.solve/degraded")
    st.matching;
  (st.matching, complete)

let solve instance = fst (solve_anytime instance)
