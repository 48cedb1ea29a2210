(* Core model: entities, similarities, conflict sets, instances, matchings
   and the independent validator. *)

open Geacc_core
module Rng = Geacc_util.Rng

let close = Alcotest.float 1e-9

(* -- Entity -- *)

let test_entity_make () =
  let e = Entity.make ~id:3 ~attrs:[| 1.; 2. |] ~capacity:4 in
  Alcotest.(check int) "id" 3 e.Entity.id;
  Alcotest.(check int) "capacity" 4 e.Entity.capacity;
  Alcotest.(check int) "dim" 2 (Entity.dim e)

let test_entity_rejects () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "Entity.make: negative id") (fun () ->
      ignore (Entity.make ~id:(-1) ~attrs:[| 0. |] ~capacity:1));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Entity.make: negative capacity") (fun () ->
      ignore (Entity.make ~id:0 ~attrs:[| 0. |] ~capacity:(-1)));
  Alcotest.check_raises "empty attributes"
    (Invalid_argument "Entity.make: empty attributes") (fun () ->
      ignore (Entity.make ~id:0 ~attrs:[||] ~capacity:1))

(* -- Similarity -- *)

let test_euclidean_formula () =
  let sim = Similarity.euclidean ~dim:2 ~range:10. in
  (* Equation (1): 1 - d / sqrt(2 * 100). *)
  Alcotest.check close "identical vectors" 1.
    (Similarity.eval sim [| 1.; 1. |] [| 1.; 1. |]);
  Alcotest.check close "opposite corners" 0.
    (Similarity.eval sim [| 0.; 0. |] [| 10.; 10. |]);
  let d = 5. in
  Alcotest.check close "intermediate"
    (1. -. (d /. sqrt 200.))
    (Similarity.eval sim [| 0.; 0. |] [| 3.; 4. |])

let test_gaussian () =
  let sim = Similarity.gaussian ~sigma:2. in
  Alcotest.check close "at zero distance" 1.
    (Similarity.eval sim [| 0. |] [| 0. |]);
  Alcotest.check close "at distance 2 (one sigma)" (exp (-0.5))
    (Similarity.eval sim [| 0. |] [| 2. |])

let test_cosine () =
  Alcotest.check close "parallel" 1.
    (Similarity.eval Similarity.cosine [| 1.; 2. |] [| 2.; 4. |]);
  Alcotest.check close "orthogonal" 0.
    (Similarity.eval Similarity.cosine [| 1.; 0. |] [| 0.; 1. |]);
  Alcotest.check close "null vector" 0.
    (Similarity.eval Similarity.cosine [| 0.; 0. |] [| 1.; 1. |]);
  (* Negative cosine clamps to 0: similarities live in [0,1]. *)
  Alcotest.check close "anti-parallel clamps" 0.
    (Similarity.eval Similarity.cosine [| 1. |] [| -1. |])

let test_similarity_spec () =
  (match Similarity.spec (Similarity.euclidean ~dim:3 ~range:7.) with
  | Similarity.Spec_euclidean { dim = 3; range } ->
      Alcotest.check close "range" 7. range
  | _ -> Alcotest.fail "euclidean spec");
  match Similarity.spec (Similarity.custom ~name:"x" (fun _ _ -> 0.5)) with
  | Similarity.Spec_custom "x" -> ()
  | _ -> Alcotest.fail "custom spec"

(* -- Conflict -- *)

let test_conflict_basics () =
  let cf = Conflict.create ~n_events:5 in
  Alcotest.(check int) "empty" 0 (Conflict.cardinal cf);
  Conflict.add cf 1 3;
  Alcotest.(check bool) "mem symmetric" true
    (Conflict.mem cf 1 3 && Conflict.mem cf 3 1);
  Alcotest.(check bool) "self never conflicts" false (Conflict.mem cf 2 2);
  Conflict.add cf 3 1;
  Alcotest.(check int) "idempotent add" 1 (Conflict.cardinal cf);
  Alcotest.(check int) "degree" 1 (Conflict.degree cf 1);
  Alcotest.(check int) "degree other side" 1 (Conflict.degree cf 3);
  Alcotest.(check int) "degree untouched" 0 (Conflict.degree cf 0)

let test_conflict_rejects () =
  let cf = Conflict.create ~n_events:3 in
  Alcotest.check_raises "self conflict"
    (Invalid_argument "Conflict.add: an event cannot conflict with itself")
    (fun () -> Conflict.add cf 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Conflict: event id 7 out of range") (fun () ->
      Conflict.add cf 0 7)

let test_conflict_iteration () =
  let cf = Conflict.of_pairs ~n_events:4 [ (0, 1); (2, 1); (3, 0) ] in
  let pairs = ref [] in
  Conflict.iter_pairs cf (fun v w -> pairs := (v, w) :: !pairs);
  Alcotest.(check (list (pair int int)))
    "each unordered pair once, v < w"
    [ (0, 1); (0, 3); (1, 2) ]
    (List.sort compare !pairs);
  let neighbours = ref [] in
  Conflict.iter_conflicting cf 1 (fun w -> neighbours := w :: !neighbours);
  Alcotest.(check (list int)) "neighbours of 1" [ 0; 2 ]
    (List.sort compare !neighbours)

let test_conflict_ratio () =
  let cf = Conflict.of_pairs ~n_events:4 [ (0, 1); (2, 3); (0, 3) ] in
  Alcotest.check close "3 of 6 pairs" 0.5 (Conflict.ratio cf);
  Alcotest.check close "degenerate" 0.
    (Conflict.ratio (Conflict.create ~n_events:1))

let test_conflict_copy () =
  let cf = Conflict.of_pairs ~n_events:3 [ (0, 1) ] in
  let copy = Conflict.copy cf in
  Conflict.add copy 1 2;
  Alcotest.(check int) "copy grew" 2 (Conflict.cardinal copy);
  Alcotest.(check int) "original untouched" 1 (Conflict.cardinal cf)

(* -- Instance -- *)

let small_instance () =
  let sim = Similarity.euclidean ~dim:1 ~range:10. in
  let events =
    [|
      Entity.make ~id:0 ~attrs:[| 0. |] ~capacity:2;
      Entity.make ~id:1 ~attrs:[| 10. |] ~capacity:1;
    |]
  in
  let users =
    [|
      Entity.make ~id:0 ~attrs:[| 1. |] ~capacity:1;
      Entity.make ~id:1 ~attrs:[| 9. |] ~capacity:2;
      Entity.make ~id:2 ~attrs:[| 5. |] ~capacity:1;
    |]
  in
  Instance.create ~sim ~events ~users
    ~conflicts:(Conflict.of_pairs ~n_events:2 [ (0, 1) ])
    ()

let test_instance_accessors () =
  let t = small_instance () in
  Alcotest.(check int) "|V|" 2 (Instance.n_events t);
  Alcotest.(check int) "|U|" 3 (Instance.n_users t);
  Alcotest.(check int) "dim" 1 (Instance.dim t);
  Alcotest.(check int) "sum c_v" 3 (Instance.sum_event_capacity t);
  Alcotest.(check int) "sum c_u" 4 (Instance.sum_user_capacity t);
  Alcotest.(check int) "max c_v" 2 (Instance.max_event_capacity t);
  Alcotest.(check int) "max c_u" 2 (Instance.max_user_capacity t);
  Alcotest.check close "sim(0,0) = 1 - 1/10" 0.9 (Instance.sim t ~v:0 ~u:0)

let test_instance_validation () =
  let sim = Similarity.euclidean ~dim:2 ~range:1. in
  let e d = [| Entity.make ~id:0 ~attrs:(Array.make d 0.) ~capacity:1 |] in
  let u = [| Entity.make ~id:0 ~attrs:[| 0.; 0. |] ~capacity:1 |] in
  (* Mismatched dimensions rejected. *)
  Alcotest.(check bool) "dim mismatch" true
    (try
       ignore
         (Instance.create ~sim ~events:(e 3) ~users:u
            ~conflicts:(Conflict.create ~n_events:1) ());
       false
     with Invalid_argument _ -> true);
  (* Misnumbered ids rejected. *)
  let bad = [| Entity.make ~id:5 ~attrs:[| 0.; 0. |] ~capacity:1 |] in
  Alcotest.(check bool) "bad id" true
    (try
       ignore
         (Instance.create ~sim ~events:bad ~users:u
            ~conflicts:(Conflict.create ~n_events:1) ());
       false
     with Invalid_argument _ -> true);
  (* Conflict set over the wrong universe rejected. *)
  Alcotest.(check bool) "conflict universe" true
    (try
       ignore
         (Instance.create ~sim ~events:(e 2) ~users:u
            ~conflicts:(Conflict.create ~n_events:3) ());
       false
     with Invalid_argument _ -> true)

let test_instance_neighbors () =
  let t = small_instance () in
  (* Event 0 at coordinate 0: users sorted by similarity are 0 (at 1),
     2 (at 5), 1 (at 9). *)
  let expect rank id =
    match Instance.event_neighbor t ~v:0 ~rank with
    | Some (u, s) ->
        Alcotest.(check int) (Printf.sprintf "rank %d" rank) id u;
        Alcotest.check close "sim consistent" (Instance.sim t ~v:0 ~u) s
    | None -> Alcotest.fail "missing neighbour"
  in
  expect 1 0;
  expect 2 2;
  expect 3 1;
  Alcotest.(check bool) "rank 4 empty" true
    (Instance.event_neighbor t ~v:0 ~rank:4 = None);
  (* User 2 at coordinate 5 is equidistant from both events: tie broken by
     event id. *)
  match Instance.user_neighbor t ~u:2 ~rank:1 with
  | Some (v, _) -> Alcotest.(check int) "tie by id" 0 v
  | None -> Alcotest.fail "missing neighbour"

(* -- Matching -- *)

let test_matching_lifecycle () =
  let t = small_instance () in
  let m = Matching.create t in
  Alcotest.(check int) "empty" 0 (Matching.size m);
  Alcotest.check close "zero maxsum" 0. (Matching.maxsum m);
  let s = Matching.add_exn m ~v:0 ~u:0 in
  Alcotest.check close "returned sim" 0.9 s;
  Alcotest.(check bool) "mem" true (Matching.mem m ~v:0 ~u:0);
  Alcotest.(check int) "loads" 1 (Matching.event_load m 0);
  Alcotest.(check int) "user load" 1 (Matching.user_load m 0);
  Alcotest.(check int) "remaining event cap" 1
    (Matching.remaining_event_capacity m 0);
  Alcotest.(check int) "remaining user cap" 0
    (Matching.remaining_user_capacity m 0);
  Matching.remove_exn m ~v:0 ~u:0;
  Alcotest.(check int) "removed" 0 (Matching.size m);
  Alcotest.check close "maxsum restored" 0. (Matching.maxsum m)

let test_matching_rejections () =
  let t = small_instance () in
  let m = Matching.create t in
  ignore (Matching.add_exn m ~v:0 ~u:0);
  Alcotest.(check bool) "duplicate" true
    (Matching.check_add m ~v:0 ~u:0 = Some Matching.Duplicate);
  (* User 0 has capacity 1. *)
  Alcotest.(check bool) "user full" true
    (Matching.check_add m ~v:1 ~u:0 = Some Matching.User_full);
  (* Conflict: user 1 takes event 0, then event 1 clashes. *)
  ignore (Matching.add_exn m ~v:0 ~u:1);
  Alcotest.(check bool) "conflict" true
    (Matching.check_add m ~v:1 ~u:1 = Some (Matching.Conflicting_event 0));
  (* Event 0 now full (capacity 2). *)
  Alcotest.(check bool) "event full" true
    (Matching.check_add m ~v:0 ~u:2 = Some Matching.Event_full);
  Alcotest.(check bool) "add returns Error" true
    (Matching.add m ~v:0 ~u:2 = Error Matching.Event_full)

let test_matching_zero_similarity () =
  let sim = Similarity.custom ~name:"zero" (fun _ _ -> 0.) in
  let mk n = Array.init n (fun id -> Entity.make ~id ~attrs:[| 0. |] ~capacity:1) in
  let t =
    Instance.create ~sim ~events:(mk 1) ~users:(mk 1)
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  let m = Matching.create t in
  Alcotest.(check bool) "zero-sim pairs rejected" true
    (Matching.check_add m ~v:0 ~u:0 = Some Matching.Zero_similarity)

let test_matching_copy_independent () =
  let t = small_instance () in
  let m = Matching.create t in
  ignore (Matching.add_exn m ~v:0 ~u:0);
  let c = Matching.copy m in
  ignore (Matching.add_exn c ~v:0 ~u:1);
  Alcotest.(check int) "copy grew" 2 (Matching.size c);
  Alcotest.(check int) "original unchanged" 1 (Matching.size m)

let test_matching_maxsum_consistency () =
  let t = small_instance () in
  let m = Matching.create t in
  ignore (Matching.add_exn m ~v:0 ~u:0);
  ignore (Matching.add_exn m ~v:0 ~u:1);
  ignore (Matching.add_exn m ~v:1 ~u:2);
  Alcotest.(check (float 1e-9)) "incremental = recomputed"
    (Matching.maxsum_recomputed m) (Matching.maxsum m);
  Alcotest.(check (list (pair int int))) "pairs sorted"
    [ (0, 0); (0, 1); (1, 2) ] (Matching.pairs m)

(* -- Validate -- *)

let test_validate_catches_everything () =
  let t = small_instance () in
  let check pairs expected_count =
    Alcotest.(check int)
      (Printf.sprintf "violations of %s"
         (String.concat ";"
            (List.map (fun (v, u) -> Printf.sprintf "(%d,%d)" v u) pairs)))
      expected_count
      (List.length (Validate.check t pairs))
  in
  check [] 0;
  check [ (0, 0) ] 0;
  check [ (9, 0) ] 1 (* event id range *);
  check [ (0, 9) ] 1 (* user id range *);
  check [ (0, 0); (0, 0) ] 1 (* duplicate *);
  check [ (0, 0); (1, 0) ] 2 (* user 0 over capacity AND conflict v0/v1 *);
  check [ (0, 1); (1, 1) ] 1 (* conflict only: user 1 has capacity 2 *);
  check [ (0, 0); (0, 1); (0, 2) ] 1 (* event 0 over capacity 2 *)

let test_validate_is_feasible () =
  let t = small_instance () in
  Alcotest.(check bool) "feasible" true (Validate.is_feasible t [ (0, 0); (1, 1) ]);
  Alcotest.(check bool) "infeasible" false (Validate.is_feasible t [ (0, 0); (0, 0) ])

let suite =
  [
    Alcotest.test_case "entity make" `Quick test_entity_make;
    Alcotest.test_case "entity rejects" `Quick test_entity_rejects;
    Alcotest.test_case "euclidean formula (Eq. 1)" `Quick test_euclidean_formula;
    Alcotest.test_case "gaussian" `Quick test_gaussian;
    Alcotest.test_case "cosine" `Quick test_cosine;
    Alcotest.test_case "similarity spec" `Quick test_similarity_spec;
    Alcotest.test_case "conflict basics" `Quick test_conflict_basics;
    Alcotest.test_case "conflict rejects" `Quick test_conflict_rejects;
    Alcotest.test_case "conflict iteration" `Quick test_conflict_iteration;
    Alcotest.test_case "conflict ratio" `Quick test_conflict_ratio;
    Alcotest.test_case "conflict copy" `Quick test_conflict_copy;
    Alcotest.test_case "instance accessors" `Quick test_instance_accessors;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "instance neighbours (indexed)" `Quick
      test_instance_neighbors;
    Alcotest.test_case "matching lifecycle" `Quick test_matching_lifecycle;
    Alcotest.test_case "matching rejections" `Quick test_matching_rejections;
    Alcotest.test_case "matching zero similarity" `Quick
      test_matching_zero_similarity;
    Alcotest.test_case "matching copy" `Quick test_matching_copy_independent;
    Alcotest.test_case "matching maxsum consistency" `Quick
      test_matching_maxsum_consistency;
    Alcotest.test_case "validate catches violations" `Quick
      test_validate_catches_everything;
    Alcotest.test_case "validate is_feasible" `Quick test_validate_is_feasible;
  ]
