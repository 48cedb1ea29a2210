(* Extensions: Greedy-GEACC against its sort-all-pairs oracle, local-search
   improvement and online arrivals. *)

open Geacc_core
module Synthetic = Geacc_datagen.Synthetic
module Meetup = Geacc_datagen.Meetup

let cfg =
  {
    Synthetic.default with
    Synthetic.n_events = 5;
    n_users = 10;
    dim = 2;
    event_capacity = Synthetic.Cap_uniform 4;
    user_capacity = Synthetic.Cap_uniform 2;
  }

let test_naive_equals_heap_greedy () =
  (* The two implementations process pairs in the same order, so their
     arrangements are identical — not just equal in MaxSum. *)
  for seed = 1 to 30 do
    let t = Synthetic.generate ~seed cfg in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d identical matchings" seed)
      (Matching.pairs (Greedy_naive.solve t))
      (Matching.pairs (Greedy.solve t))
  done

let test_naive_equals_heap_greedy_larger () =
  let t =
    Synthetic.generate ~seed:7
      { Synthetic.default with Synthetic.n_events = 30; n_users = 120 }
  in
  Alcotest.(check (list (pair int int)))
    "identical at moderate scale"
    (Matching.pairs (Greedy_naive.solve t))
    (Matching.pairs (Greedy.solve t))

(* The simulated Meetup cities at paper size. Their normalised tag vectors
   make distinct distances collapse to one Equation-1 similarity, so each
   event's neighbour list has exact-similarity ties that only the
   (similarity desc, user id) stream order puts where the merge needs
   them. *)
let test_naive_equals_heap_greedy_meetup () =
  List.iter
    (fun (city : Meetup.city) ->
      for seed = 1 to 6 do
        let t = Meetup.generate ~seed ~capacities:Meetup.Cap_uniform city in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s seed %d identical matchings" city.Meetup.name
             seed)
          (Matching.pairs (Greedy_naive.solve t))
          (Matching.pairs (Greedy.solve t))
      done)
    [ Meetup.vancouver; Meetup.auckland; Meetup.singapore ]

let test_local_search_never_worse () =
  for seed = 1 to 20 do
    let t = Synthetic.generate ~seed cfg in
    let m = Greedy.solve t in
    let before = Matching.maxsum m in
    let stats = Local_search.improve m in
    Alcotest.(check bool) "no violations" true (Validate.check_matching m = []);
    Alcotest.(check bool) "gained >= 0" true (stats.Local_search.gained >= -1e-9);
    Alcotest.(check (float 1e-9)) "gained is the delta"
      (Matching.maxsum m -. before)
      stats.Local_search.gained
  done

let test_local_search_bounded_by_optimum () =
  for seed = 1 to 15 do
    let t = Synthetic.generate ~seed cfg in
    let opt = Matching.maxsum (Exact.solve_prune t) in
    let ls = Matching.maxsum (Local_search.solve t) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: greedy <= greedy+ls <= opt" seed)
      true
      (ls <= opt +. 1e-6 && ls +. 1e-9 >= Matching.maxsum (Greedy.solve t))
  done

let test_local_search_actually_improves_something () =
  (* Over a batch of random instances where greedy is suboptimal, the
     replace move must close part of the gap at least once — otherwise the
     optimiser is a no-op and this test fails loudly. *)
  let improved = ref false in
  for seed = 1 to 40 do
    let t = Synthetic.generate ~seed cfg in
    let greedy = Matching.maxsum (Greedy.solve t) in
    let ls = Matching.maxsum (Local_search.solve t) in
    if ls > greedy +. 1e-9 then improved := true
  done;
  Alcotest.(check bool) "local search improves some instance" true !improved

let test_local_search_fixpoint_on_optimal () =
  (* Feeding it an optimal matching must change nothing. *)
  let t = Synthetic.generate ~seed:3 cfg in
  let m = Exact.solve_prune t in
  let before = Matching.maxsum m in
  let stats = Local_search.improve m in
  Alcotest.(check (float 1e-9)) "unchanged" before (Matching.maxsum m);
  Alcotest.(check (float 1e-9)) "no gain" 0. stats.Local_search.gained

let test_local_search_respects_rounds () =
  let t = Synthetic.generate ~seed:4 cfg in
  let m = Greedy.solve t in
  let stats = Local_search.improve ~max_rounds:1 m in
  Alcotest.(check bool) "round cap" true (stats.Local_search.rounds <= 1);
  Alcotest.(check bool) "bad cap rejected" true
    (try
       ignore (Local_search.improve ~max_rounds:0 m);
       false
     with Invalid_argument _ -> true)

(* [Online.solve] reports bad orders as a structured [Error]; the tests for
   well-formed orders unwrap it. *)
let online_exn ?order t =
  match Online.solve ?order t with
  | Ok m -> m
  | Error e -> Alcotest.failf "online: %s" (Geacc_robust.Error.to_string e)

let test_online_feasible_any_order () =
  let rng = Geacc_util.Rng.create ~seed:5 in
  for seed = 1 to 15 do
    let t = Synthetic.generate ~seed cfg in
    let m = Online.solve_random_order ~rng t in
    Alcotest.(check bool) "feasible" true (Validate.check_matching m = [])
  done

let test_online_default_order_deterministic () =
  let t = Synthetic.generate ~seed:2 cfg in
  Alcotest.(check (list (pair int int)))
    "ascending arrivals reproducible"
    (Matching.pairs (online_exn t))
    (Matching.pairs (online_exn t))

let test_online_bounded_by_optimum () =
  for seed = 1 to 10 do
    let t = Synthetic.generate ~seed cfg in
    let opt = Matching.maxsum (Exact.solve_prune t) in
    let online = Matching.maxsum (online_exn t) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: online <= opt" seed)
      true
      (online <= opt +. 1e-6)
  done

let test_online_each_user_served_greedily () =
  (* The first arrival faces a fresh system: it must receive its top
     feasible events. *)
  let t = Synthetic.generate ~seed:3 cfg in
  let m = online_exn t in
  let u = 0 in
  let got = List.sort compare (Matching.user_events m u) in
  let expected =
    (* Walk user 0's ranks over a fresh matching. *)
    let fresh = Matching.create t in
    let rec walk rank acc =
      if Matching.remaining_user_capacity fresh u = 0 then acc
      else
        match Instance.user_neighbor t ~u ~rank with
        | None -> acc
        | Some (v, _) -> (
            match Matching.add fresh ~v ~u with
            | Ok _ -> walk (rank + 1) (v :: acc)
            | Error _ -> walk (rank + 1) acc)
    in
    List.sort compare (walk 1 [])
  in
  Alcotest.(check (list int)) "first arrival gets its best" expected got

let test_online_rejects_bad_order () =
  let t = Synthetic.generate ~seed:4 cfg in
  let expect_invalid label order =
    match Online.solve ~order t with
    | Ok _ -> Alcotest.failf "%s: accepted a bad order" label
    | Error (Geacc_robust.Error.Invalid_input { what; _ }) ->
        Alcotest.(check string) (label ^ " names order") "order" what
    | Error e ->
        Alcotest.failf "%s: unexpected error %s" label
          (Geacc_robust.Error.to_string e)
  in
  expect_invalid "wrong length" [| 0 |];
  expect_invalid "duplicate ids" (Array.make (Instance.n_users t) 0);
  expect_invalid "out of range"
    (Array.init (Instance.n_users t) (fun i ->
         if i = 0 then Instance.n_users t else i))

let suite =
  [
    Alcotest.test_case "naive greedy = heap greedy" `Quick
      test_naive_equals_heap_greedy;
    Alcotest.test_case "online feasible" `Quick test_online_feasible_any_order;
    Alcotest.test_case "online deterministic" `Quick
      test_online_default_order_deterministic;
    Alcotest.test_case "online bounded by optimum" `Quick
      test_online_bounded_by_optimum;
    Alcotest.test_case "online serves arrivals greedily" `Quick
      test_online_each_user_served_greedily;
    Alcotest.test_case "online rejects bad orders" `Quick
      test_online_rejects_bad_order;
    Alcotest.test_case "naive greedy = heap greedy (larger)" `Quick
      test_naive_equals_heap_greedy_larger;
    Alcotest.test_case "naive greedy = heap greedy (Meetup)" `Slow
      test_naive_equals_heap_greedy_meetup;
    Alcotest.test_case "local search never worse" `Quick
      test_local_search_never_worse;
    Alcotest.test_case "local search bounded by optimum" `Quick
      test_local_search_bounded_by_optimum;
    Alcotest.test_case "local search improves something" `Quick
      test_local_search_actually_improves_something;
    Alcotest.test_case "local search fixpoint on optimal" `Quick
      test_local_search_fixpoint_on_optimal;
    Alcotest.test_case "local search round cap" `Quick
      test_local_search_respects_rounds;
  ]
