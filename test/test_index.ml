(* The neighbour stream against the sort-everything oracle: rank order,
   exclusive cutoffs, random-order reads, edge inputs, and end-to-end
   agreement between the indexed and the scanned neighbour sources. *)

module Point = Geacc_index.Point
module Stream = Geacc_index.Nn_stream
module Linear = Linear_index
module Rng = Geacc_util.Rng
open Geacc_core
module Synthetic = Geacc_datagen.Synthetic

let random_points rng ~n ~d ~range =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng range))

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
  let points = [| [| 0. |]; [| 10. |]; [| 3. |]; [| 7. |] |] in
  let idx = Linear.create points in
  let result = Linear.nearest idx [| 4. |] ~k:4 in
  Alcotest.(check (list int)) "ascending distance" [ 2; 3; 0; 1 ]
    (Array.to_list (Array.map fst result))

let test_linear_ties_by_index () =
  let points = [| [| 1. |]; [| -1. |]; [| 1. |] |] in
  let idx = Linear.create points in
  let result = Linear.nearest idx [| 0. |] ~k:3 in
  Alcotest.(check (list int)) "ties broken by id" [ 0; 1; 2 ]
    (Array.to_list (Array.map fst result))

let test_linear_nth () =
  let points = [| [| 0. |]; [| 2. |]; [| 5. |] |] in
  let idx = Linear.create points in
  (match Linear.nth_nearest idx [| 1. |] 2 with
  | Some (i, d) ->
      Alcotest.(check int) "2nd nearest" 1 i;
      Alcotest.(check (float 1e-9)) "distance" 1. d
  | None -> Alcotest.fail "expected a 2nd NN");
  Alcotest.(check bool) "rank beyond size" true
    (Linear.nth_nearest idx [| 1. |] 4 = None)

let test_linear_within () =
  let points = [| [| 0. |]; [| 2. |]; [| 5. |] |] in
  let idx = Linear.create points in
  let r = Linear.nearest_within idx [| 0. |] ~k:3 ~max_dist:5. in
  Alcotest.(check (list int)) "strictly inside cutoff" [ 0; 1 ]
    (Array.to_list (Array.map fst r))

let check_stream_matches_linear ~n ~d ~seed =
  let rng = Rng.create ~seed in
  let points = random_points rng ~n ~d ~range:100. in
  let linear = Linear.create points in
  for _ = 1 to 20 do
    let q = Array.init d (fun _ -> Rng.float rng 100.) in
    let k = 1 + Rng.int rng n in
    let expected = Linear.nearest linear q ~k in
    let s = Stream.create points q in
    let actual = List.init k (fun r -> Option.get (Stream.get s (r + 1))) in
    Alcotest.(check (list (pair int (float 0.))))
      (Printf.sprintf "k=%d identical ids and distances" k)
      (Array.to_list expected) actual
  done

let test_stream_matches_linear_2d () = check_stream_matches_linear ~n:200 ~d:2 ~seed:1
let test_stream_matches_linear_high_d () = check_stream_matches_linear ~n:150 ~d:20 ~seed:2
let test_stream_matches_linear_1d () = check_stream_matches_linear ~n:50 ~d:1 ~seed:3

let test_stream_empty_and_tiny () =
  let empty = Stream.create [||] [| 0. |] in
  Alcotest.(check bool) "no neighbours" true (Stream.get empty 1 = None);
  let one = Stream.create [| [| 5. |] |] [| 0. |] in
  Alcotest.(check (list (pair int (float 0.)))) "single point" [ (0, 5.) ]
    (drain one)

let test_stream_duplicate_points () =
  let points = Array.make 10 [| 3.; 3. |] in
  let s = Stream.create points [| 3.; 3. |] in
  Alcotest.(check (list int)) "all duplicates, id order"
    (List.init 10 Fun.id)
    (List.map fst (drain s))

let test_stream_query_on_point () =
  (* A query sitting exactly on an indexed point: rank 1 is that point at
     distance 0. *)
  let rng = Rng.create ~seed:10 in
  let points = random_points rng ~n:50 ~d:3 ~range:10. in
  let s = Stream.create points (Array.copy points.(17)) in
  match Stream.get s 1 with
  | Some (17, d) -> Alcotest.(check (float 0.)) "distance zero" 0. d
  | _ -> Alcotest.fail "expected point 17 first"

let test_stream_random_access () =
  let rng = Rng.create ~seed:5 in
  let points = random_points rng ~n:100 ~d:2 ~range:10. in
  let linear = Linear.create points in
  let q = [| 3.; 3. |] in
  let s = Stream.create points q in
  (* Jump around ranks; results must match the oracle at every rank. *)
  List.iter
    (fun rank ->
      match (Stream.get s rank, Linear.nth_nearest linear q rank) with
      | Some (i, d), Some (i', d') ->
          Alcotest.(check int) (Printf.sprintf "rank %d id" rank) i' i;
          Alcotest.(check (float 1e-9)) "rank distance" d' d
      | None, None -> ()
      | _ -> Alcotest.fail "stream and oracle disagree on existence")
    [ 5; 1; 50; 3; 100; 99; 2 ];
  Alcotest.(check bool) "rank beyond size" true (Stream.get s 101 = None)

let test_stream_bulk_high_dimension () =
  let rng = Rng.create ~seed:7 in
  let points = random_points rng ~n:300 ~d:20 ~range:100. in
  let linear = Linear.create points in
  let q = Array.init 20 (fun _ -> Rng.float rng 100.) in
  let s = Stream.create points q in
  List.iter
    (fun rank ->
      match (Stream.get s rank, Linear.nth_nearest linear q rank) with
      | Some (i, d), Some (i', d') ->
          Alcotest.(check int) (Printf.sprintf "bulk rank %d" rank) i' i;
          Alcotest.(check (float 1e-9)) "bulk distance" d' d
      | None, None -> ()
      | _ -> Alcotest.fail "bulk stream and oracle disagree")
    [ 1; 7; 2; 300; 150; 299; 1 ];
  Alcotest.(check bool) "beyond size" true (Stream.get s 301 = None)

let test_stream_cutoff_in_bulk_mode () =
  let points = Array.init 50 (fun i -> Array.make 20 (float_of_int i)) in
  (* Query at the origin; cutoff excludes points with coordinate >= 5 —
     distance of point i is i * sqrt 20. *)
  let s =
    Stream.create ~max_dist:(5. *. sqrt 20.) points (Array.make 20 0.)
  in
  Alcotest.(check bool) "rank 5 exists" true (Stream.get s 5 <> None);
  Alcotest.(check bool) "rank 6 beyond cutoff" true (Stream.get s 6 = None)

let test_stream_cutoff () =
  let points = [| [| 0. |]; [| 3. |]; [| 9. |] |] in
  let s = Stream.create ~max_dist:5. points [| 0. |] in
  Alcotest.(check bool) "rank 1" true (Stream.get s 1 <> None);
  Alcotest.(check bool) "rank 2" true (Stream.get s 2 <> None);
  Alcotest.(check bool) "rank 3 beyond cutoff" true (Stream.get s 3 = None)

(* QCheck property: for any (n, d) the stream serves the oracle's
   (index, distance) sequence bit for bit, read in a random rank order,
   under one of three cutoff regimes: none, a random radius, or exactly
   the distance of one point (which the exclusive cutoff must drop).
   Duplicate points and a query placed on a point exercise the index
   tie-break. *)
let prop_stream_matches_oracle =
  QCheck.Test.make ~name:"nn stream = linear oracle across regimes"
    ~count:200
    QCheck.(triple (int_range 0 80) (int_range 1 20) (int_bound 9999))
    (fun (n, d, seed) ->
      let rng = Rng.create ~seed:(seed + (10_000 * d) + (1_000_000 * n)) in
      let points = random_points rng ~n ~d ~range:50. in
      if n > 1 then
        for _ = 1 to Rng.int rng 4 do
          points.(Rng.int rng n) <- Array.copy points.(Rng.int rng n)
        done;
      let q =
        if n > 0 && Rng.bool rng then Array.copy points.(Rng.int rng n)
        else Array.init d (fun _ -> Rng.float rng 50.)
      in
      let at_cutoff = if n > 0 then Some (Rng.int rng n) else None in
      let max_dist =
        match (Rng.int rng 3, at_cutoff) with
        | 0, Some k -> Point.dist q points.(k)
        | 1, _ -> Rng.float rng 120.
        | _ -> infinity
      in
      let expected =
        Linear.nearest_within (Linear.create points) q ~k:n ~max_dist
      in
      let m = Array.length expected in
      let s = Stream.create ~max_dist points q in
      let ranks = Array.init (n + 1) (fun r -> r + 1) in
      Rng.shuffle_in_place rng ranks;
      let bits = Int64.bits_of_float in
      Array.for_all
        (fun r ->
          match Stream.get s r with
          | Some (i, dist) ->
              r <= m
              && i = fst expected.(r - 1)
              && Int64.equal (bits dist) (bits (snd expected.(r - 1)))
              && dist < max_dist
          | None -> r > m)
        ranks
      && Stream.get s (n + 1) = None)

(* The index is an implementation detail of the neighbour source: the
   same Equation-1 instance served by distance streams (a similarity with a
   distance profile) and by per-node sorted scans (the same [eval] wrapped
   with no profile) must give every solver the same arrangement. *)
let test_indexed_equals_scanned () =
  let cfg =
    {
      Synthetic.default with
      Synthetic.n_events = 8;
      n_users = 30;
      dim = 6;
      event_capacity = Synthetic.Cap_uniform 4;
      user_capacity = Synthetic.Cap_uniform 2;
    }
  in
  let scanned indexed =
    let eq1 = Instance.similarity indexed in
    let sim = Similarity.custom ~name:"scanned" (Similarity.eval eq1) in
    Alcotest.(check bool) "no distance profile" true
      (Option.is_none (Similarity.dist_profile sim));
    Instance.create ~sim ~events:(Instance.events indexed)
      ~users:(Instance.users indexed) ~conflicts:(Instance.conflicts indexed) ()
  in
  let online t =
    match Online.solve t with
    | Ok m -> m
    | Error e -> Alcotest.fail (Geacc_robust.Error.to_string e)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, solve) ->
          let indexed = Synthetic.generate ~seed cfg in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s (seed %d)" name seed)
            (Matching.pairs (solve indexed))
            (Matching.pairs (solve (scanned indexed))))
        [
          ("greedy", Greedy.solve);
          ("prune", fun t -> Exact.solve_prune t);
          ("online", online);
        ])
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "point distances" `Quick test_point_dist;
    Alcotest.test_case "linear ordering" `Quick test_linear_ordering;
    Alcotest.test_case "linear ties by index" `Quick test_linear_ties_by_index;
    Alcotest.test_case "linear nth_nearest" `Quick test_linear_nth;
    Alcotest.test_case "linear nearest_within" `Quick test_linear_within;
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
    Alcotest.test_case "indexed = scanned" `Quick test_indexed_equals_scanned;
  ]
