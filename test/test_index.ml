(* The neighbour stream against the sort-everything oracle: rank order,
   the cut at non-positive scores, random-order reads and edge inputs; and
   the order the solvers rely on: every instance-level neighbour
   enumeration is exactly (similarity desc, id asc), bit for bit. *)

module Point = Geacc_index.Point
module Stream = Geacc_index.Nn_stream
module Linear = Linear_index
module Rng = Geacc_util.Rng
open Geacc_core
module Meetup = Geacc_datagen.Meetup

let random_points rng ~n ~d ~range =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng range))

let stream_of scores = Stream.create (Array.length scores) (Array.get scores)

(* Equation-1 similarity of every point to the query [q]: the scores an
   event's stream ranks. *)
let sim_scores ~d points q =
  let sim = Similarity.euclidean ~dim:d ~range:100. in
  Array.map (fun p -> Similarity.eval sim q p) points

let drain s =
  let rec go rank acc =
    match Stream.get s rank with
    | None -> List.rev acc
    | Some x -> go (rank + 1) (x :: acc)
  in
  go 1 []

let test_point_dist () =
  Alcotest.(check (float 1e-9)) "dist2" 25. (Point.dist2 [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "dist" 5. (Point.dist [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "zero" 0. (Point.dist [| 1.; 2. |] [| 1.; 2. |])

let test_linear_ordering () =
  let idx = Linear.create [| 0.1; 0.9; 0.5; 0.7 |] in
  let result = Linear.nearest idx ~k:4 in
  Alcotest.(check (list int)) "descending score" [ 1; 3; 2; 0 ]
    (Array.to_list (Array.map fst result))

let test_linear_ties_by_index () =
  let idx = Linear.create [| 0.5; 0.2; 0.5 |] in
  let result = Linear.nearest idx ~k:3 in
  Alcotest.(check (list int)) "ties broken by id" [ 0; 2; 1 ]
    (Array.to_list (Array.map fst result))

let test_linear_nth () =
  let idx = Linear.create [| 0.2; 0.8; 0.5 |] in
  (match Linear.nth_nearest idx 2 with
  | Some (i, s) ->
      Alcotest.(check int) "2nd ranked" 2 i;
      Alcotest.(check (float 0.)) "score" 0.5 s
  | None -> Alcotest.fail "expected a 2nd entry");
  Alcotest.(check bool) "rank beyond size" true (Linear.nth_nearest idx 4 = None)

let test_linear_positive_only () =
  let idx = Linear.create [| 0.4; 0.; -1.; Float.nan; 0.3 |] in
  Alcotest.(check (list int)) "only positive scores" [ 0; 4 ]
    (Array.to_list (Array.map fst (Linear.nearest idx ~k:5)))

let check_stream_matches_linear ~n ~d ~seed =
  let rng = Rng.create ~seed in
  let points = random_points rng ~n ~d ~range:100. in
  for _ = 1 to 20 do
    let q = Array.init d (fun _ -> Rng.float rng 100.) in
    let scores = sim_scores ~d points q in
    let k = 1 + Rng.int rng n in
    let expected = Linear.nearest (Linear.create scores) ~k in
    let s = stream_of scores in
    let actual =
      List.init (Array.length expected) (fun r -> Option.get (Stream.get s (r + 1)))
    in
    Alcotest.(check (list (pair int (float 0.))))
      (Printf.sprintf "k=%d identical ids and scores" k)
      (Array.to_list expected) actual
  done

let test_stream_matches_linear_2d () = check_stream_matches_linear ~n:200 ~d:2 ~seed:1
let test_stream_matches_linear_high_d () = check_stream_matches_linear ~n:150 ~d:20 ~seed:2
let test_stream_matches_linear_1d () = check_stream_matches_linear ~n:50 ~d:1 ~seed:3

let test_stream_empty_and_tiny () =
  let empty = Stream.create 0 (fun _ -> 1.) in
  Alcotest.(check bool) "no neighbours" true (Stream.get empty 1 = None);
  let one = Stream.create 1 (fun _ -> 0.5) in
  Alcotest.(check (list (pair int (float 0.)))) "single index" [ (0, 0.5) ]
    (drain one)

let test_stream_duplicate_points () =
  let points = Array.make 10 [| 3.; 3. |] in
  let s = stream_of (sim_scores ~d:2 points [| 3.; 3. |]) in
  Alcotest.(check (list int)) "all duplicates, id order"
    (List.init 10 Fun.id)
    (List.map fst (drain s))

let test_stream_query_on_point () =
  (* A query sitting exactly on a point: rank 1 is that point at
     similarity 1. *)
  let rng = Rng.create ~seed:10 in
  let points = random_points rng ~n:50 ~d:3 ~range:10. in
  let s = stream_of (sim_scores ~d:3 points (Array.copy points.(17))) in
  match Stream.get s 1 with
  | Some (17, score) -> Alcotest.(check (float 0.)) "similarity one" 1. score
  | _ -> Alcotest.fail "expected point 17 first"

let check_ranks ~what s linear ranks =
  List.iter
    (fun rank ->
      match (Stream.get s rank, Linear.nth_nearest linear rank) with
      | Some (i, sc), Some (i', sc') ->
          Alcotest.(check int) (Printf.sprintf "%s rank %d" what rank) i' i;
          Alcotest.(check (float 0.)) (what ^ " score") sc' sc
      | None, None -> ()
      | _ -> Alcotest.fail (what ^ ": stream and oracle disagree on existence"))
    ranks

let test_stream_random_access () =
  let rng = Rng.create ~seed:5 in
  let points = random_points rng ~n:100 ~d:2 ~range:10. in
  let scores = sim_scores ~d:2 points [| 3.; 3. |] in
  let s = stream_of scores in
  (* Jump around ranks; results must match the oracle at every rank. *)
  check_ranks ~what:"random access" s (Linear.create scores)
    [ 5; 1; 50; 3; 100; 99; 2 ];
  Alcotest.(check bool) "rank beyond size" true (Stream.get s 101 = None)

let test_stream_bulk_high_dimension () =
  let rng = Rng.create ~seed:7 in
  let points = random_points rng ~n:300 ~d:20 ~range:100. in
  let q = Array.init 20 (fun _ -> Rng.float rng 100.) in
  let scores = sim_scores ~d:20 points q in
  let s = stream_of scores in
  check_ranks ~what:"bulk" s (Linear.create scores) [ 1; 7; 2; 300; 150; 299; 1 ];
  Alcotest.(check bool) "beyond size" true (Stream.get s 301 = None)

let test_stream_cutoff_in_bulk_mode () =
  (* 50 indices, of which only 0..4 score positive. *)
  let s = Stream.create 50 (fun i -> 5. -. float_of_int i) in
  Alcotest.(check bool) "rank 5 exists" true (Stream.get s 5 <> None);
  Alcotest.(check bool) "rank 6 beyond cutoff" true (Stream.get s 6 = None)

let test_stream_cutoff () =
  let calls = ref [] in
  let scores = [| 0.9; 0.; 0.5; -0.5; Float.nan |] in
  let s =
    Stream.create 5 (fun i ->
        calls := i :: !calls;
        scores.(i))
  in
  Alcotest.(check (list int)) "scored once each, ascending" [ 0; 1; 2; 3; 4 ]
    (List.rev !calls);
  Alcotest.(check (list int)) "positive scores only" [ 0; 2 ]
    (List.map fst (drain s))

(* QCheck property: for any n the stream serves the oracle's
   (index, score) sequence bit for bit, read in a random rank order. Scores
   come from a small grid (so ties are common) or uniformly from
   [-0.5, 1), with zeros and NaNs mixed in: everything not positive must
   be cut. *)
let prop_stream_matches_oracle =
  QCheck.Test.make ~name:"nn stream = linear oracle across regimes"
    ~count:200
    QCheck.(pair (int_range 0 80) (int_bound 9999))
    (fun (n, seed) ->
      let rng = Rng.create ~seed:(seed + (10_000 * n)) in
      let grid = Rng.bool rng in
      let scores =
        Array.init n (fun _ ->
            match Rng.int rng 10 with
            | 0 -> 0.
            | 1 -> Float.nan
            | _ ->
                if grid then float_of_int (Rng.int rng 5) /. 4.
                else Rng.float_in rng (-0.5) 1.)
      in
      let expected = Linear.nearest (Linear.create scores) ~k:n in
      let m = Array.length expected in
      let s = stream_of scores in
      let ranks = Array.init (n + 1) (fun r -> r + 1) in
      Rng.shuffle_in_place rng ranks;
      let bits = Int64.bits_of_float in
      Array.for_all
        (fun r ->
          match Stream.get s r with
          | Some (i, score) ->
              r <= m
              && i = fst expected.(r - 1)
              && Int64.equal (bits score) (bits (snd expected.(r - 1)))
          | None -> r > m)
        ranks
      && Stream.get s (n + 1) = None)

(* The solvers' pair order, checked at its source. For every node, rank r
   of [event_neighbor] / [user_neighbor] must be the r-th entry of the
   other side sorted by ([Instance.sim] desc, id asc) over the positive
   similarities, with the similarity bitwise [Instance.sim], and the
   enumeration must end right after the last one. Meetup-shaped tag
   vectors are where distinct distances collapse to one Equation-1
   similarity, the ties a distance order lists by the wrong id; a custom
   similarity over a small value grid, zeros included, is one that no
   distance determines. *)
let enumerates_in_sim_order t =
  let bits = Int64.bits_of_float in
  let side ~nodes ~others ~sim ~neighbor =
    List.for_all
      (fun x ->
        let expected =
          List.filter (fun (_, s) -> s > 0.)
            (List.init others (fun y -> (y, sim x y)))
          |> List.stable_sort (fun (_, s1) (_, s2) -> Float.compare s2 s1)
        in
        List.for_all2
          (fun r (y, s) ->
            match neighbor x r with
            | Some (y', s') -> y = y' && Int64.equal (bits s) (bits s')
            | None -> false)
          (List.init (List.length expected) (fun r -> r + 1))
          expected
        && neighbor x (List.length expected + 1) = None)
      (List.init nodes Fun.id)
  in
  side ~nodes:(Instance.n_events t) ~others:(Instance.n_users t)
    ~sim:(fun v u -> Instance.sim t ~v ~u)
    ~neighbor:(fun v rank -> Instance.event_neighbor t ~v ~rank)
  && side ~nodes:(Instance.n_users t) ~others:(Instance.n_events t)
       ~sim:(fun u v -> Instance.sim t ~v ~u)
       ~neighbor:(fun u rank -> Instance.user_neighbor t ~u ~rank)

let prop_meetup_neighbor_order =
  QCheck.Test.make ~name:"Meetup tags: neighbour order is sim desc, id"
    ~count:30
    QCheck.(triple (int_range 1 40) (int_range 1 600) (int_bound 9999))
    (fun (n_events, n_users, seed) ->
      enumerates_in_sim_order
        (Meetup.generate ~seed { Meetup.name = "prop"; n_events; n_users }))

let prop_custom_neighbor_order =
  QCheck.Test.make ~name:"custom sims: neighbour order is sim desc, id"
    ~count:100
    QCheck.(triple (int_range 1 12) (int_range 1 30) (int_bound 9999))
    (fun (n_events, n_users, seed) ->
      let rng = Rng.create ~seed in
      let matrix =
        Array.init n_events (fun _ ->
            Array.init n_users (fun _ -> float_of_int (Rng.int rng 5) /. 4.))
      in
      let sim =
        Similarity.custom ~name:"grid" (fun a b ->
            matrix.(int_of_float a.(0)).(int_of_float b.(0)))
      in
      let mk n =
        Array.init n (fun id ->
            Entity.make ~id ~attrs:[| float_of_int id |] ~capacity:1)
      in
      enumerates_in_sim_order
        (Instance.create ~sim ~events:(mk n_events) ~users:(mk n_users)
           ~conflicts:(Conflict.create ~n_events) ()))

let suite =
  [
    Alcotest.test_case "point distances" `Quick test_point_dist;
    Alcotest.test_case "linear ordering" `Quick test_linear_ordering;
    Alcotest.test_case "linear ties by index" `Quick test_linear_ties_by_index;
    Alcotest.test_case "linear nth_nearest" `Quick test_linear_nth;
    Alcotest.test_case "linear positive scores only" `Quick
      test_linear_positive_only;
    Alcotest.test_case "stream = linear (2d)" `Quick test_stream_matches_linear_2d;
    Alcotest.test_case "stream = linear (d=20)" `Quick
      test_stream_matches_linear_high_d;
    Alcotest.test_case "stream = linear (1d)" `Quick test_stream_matches_linear_1d;
    Alcotest.test_case "stream empty/tiny" `Quick test_stream_empty_and_tiny;
    Alcotest.test_case "stream duplicate points" `Quick
      test_stream_duplicate_points;
    Alcotest.test_case "stream query on a point" `Quick
      test_stream_query_on_point;
    Alcotest.test_case "stream random access" `Quick test_stream_random_access;
    Alcotest.test_case "stream cutoff" `Quick test_stream_cutoff;
    Alcotest.test_case "stream bulk (high-d)" `Quick
      test_stream_bulk_high_dimension;
    Alcotest.test_case "stream cutoff in bulk mode" `Quick
      test_stream_cutoff_in_bulk_mode;
    QCheck_alcotest.to_alcotest prop_stream_matches_oracle;
    QCheck_alcotest.to_alcotest prop_meetup_neighbor_order;
    QCheck_alcotest.to_alcotest prop_custom_neighbor_order;
  ]
