(* Priority queues: heap-sort behaviour, invariants, cross-implementation
   agreement, plus QCheck properties. *)

open Geacc_pqueue

let int_cmp = Int.compare

let test_binary_basic () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  Alcotest.(check bool) "fresh heap empty" true (Binary_heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Binary_heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Binary_heap.pop h);
  Binary_heap.push h 5;
  Binary_heap.push h 1;
  Binary_heap.push h 3;
  Alcotest.(check int) "length" 3 (Binary_heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Binary_heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 3; 5 ]
    (Binary_heap.pop_all_sorted h)

let test_binary_exn () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  Alcotest.check_raises "peek_exn empty"
    (Invalid_argument "Binary_heap.peek_exn: empty heap") (fun () ->
      ignore (Binary_heap.peek_exn h));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Binary_heap.pop_exn: empty heap") (fun () ->
      ignore (Binary_heap.pop_exn h))

let test_binary_of_array () =
  let a = [| 9; 2; 7; 2; 0; -3; 11 |] in
  let h = Binary_heap.of_array ~cmp:int_cmp a in
  Alcotest.(check bool) "heapify invariant" true (Binary_heap.check_invariant h);
  let expected = Array.to_list (Array.copy a) |> List.sort compare in
  Alcotest.(check (list int)) "heapify drains sorted" expected
    (Binary_heap.pop_all_sorted h);
  Alcotest.(check (array int)) "input untouched" [| 9; 2; 7; 2; 0; -3; 11 |] a

let test_binary_duplicates () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  List.iter (Binary_heap.push h) [ 4; 4; 4; 1; 1 ];
  Alcotest.(check (list int)) "duplicates kept" [ 1; 1; 4; 4; 4 ]
    (Binary_heap.pop_all_sorted h)

let test_binary_max_heap () =
  let h = Binary_heap.create ~cmp:(fun a b -> Int.compare b a) () in
  List.iter (Binary_heap.push h) [ 2; 9; 4 ];
  Alcotest.(check (option int)) "flipped cmp gives max" (Some 9)
    (Binary_heap.pop h)

let test_binary_clear () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  List.iter (Binary_heap.push h) [ 1; 2; 3 ];
  Binary_heap.clear h;
  Alcotest.(check bool) "cleared" true (Binary_heap.is_empty h);
  Binary_heap.push h 10;
  Alcotest.(check (option int)) "usable after clear" (Some 10)
    (Binary_heap.pop h)

let test_pairing_basic () =
  let h = Pairing_heap.of_list ~cmp:int_cmp [ 5; 1; 3 ] in
  Alcotest.(check int) "length" 3 (Pairing_heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Pairing_heap.peek h);
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ]
    (Pairing_heap.to_sorted_list h);
  (* Persistence: the original heap is unchanged by pop. *)
  (match Pairing_heap.pop h with
  | Some (x, rest) ->
      Alcotest.(check int) "popped min" 1 x;
      Alcotest.(check int) "rest smaller" 2 (Pairing_heap.length rest);
      Alcotest.(check int) "original untouched" 3 (Pairing_heap.length h)
  | None -> Alcotest.fail "expected an element");
  ()

let test_pairing_merge () =
  let a = Pairing_heap.of_list ~cmp:int_cmp [ 4; 8 ]
  and b = Pairing_heap.of_list ~cmp:int_cmp [ 1; 6 ] in
  let m = Pairing_heap.merge a b in
  Alcotest.(check (list int)) "merged sorted" [ 1; 4; 6; 8 ]
    (Pairing_heap.to_sorted_list m)

let test_pairing_deep () =
  (* A long ascending push sequence produces a degenerate spine; draining
     must not overflow the stack. *)
  let h =
    List.fold_left Pairing_heap.push
      (Pairing_heap.empty ~cmp:int_cmp)
      (List.init 200_000 (fun i -> i))
  in
  Alcotest.(check int) "length" 200_000 (Pairing_heap.length h);
  match Pairing_heap.pop h with
  | Some (x, _) -> Alcotest.(check int) "min" 0 x
  | None -> Alcotest.fail "non-empty"

let test_bucket_basic () =
  let q = Int_bucket_queue.create () in
  Alcotest.(check bool) "empty" true (Int_bucket_queue.is_empty q);
  Alcotest.(check (option (pair int int))) "pop empty" None
    (Int_bucket_queue.pop q);
  Int_bucket_queue.push q 25 1;
  Int_bucket_queue.push q 5 2;
  Int_bucket_queue.push q 15 3;
  Alcotest.(check int) "length" 3 (Int_bucket_queue.length q);
  Alcotest.(check bool) "invariant" true (Int_bucket_queue.check_invariant q);
  Alcotest.(check (option (pair int int))) "first" (Some (5, 2))
    (Int_bucket_queue.pop q);
  (* Monotone contract: pushing below the floor (5) raises. *)
  Alcotest.check_raises "below floor"
    (Invalid_argument "Int_bucket_queue.push: key below the monotone floor")
    (fun () -> Int_bucket_queue.push q 4 9);
  Int_bucket_queue.push q 5 4;
  Alcotest.(check int) "min key" 5 (Int_bucket_queue.min_key q);
  Alcotest.(check int) "min payload" 4 (Int_bucket_queue.min_payload q);
  Int_bucket_queue.drop_min q;
  Alcotest.(check (option (pair int int))) "then 15" (Some (15, 3))
    (Int_bucket_queue.pop q);
  Alcotest.(check (option (pair int int))) "then 25" (Some (25, 1))
    (Int_bucket_queue.pop q);
  Alcotest.(check bool) "drained" true (Int_bucket_queue.is_empty q)

let test_bucket_one_bucket () =
  (* Empty key range: every entry shares one key, so all of them live in
     bucket 0 and pops never re-deal. *)
  let q = Int_bucket_queue.create () in
  for p = 0 to 99 do
    Int_bucket_queue.push q 42 p
  done;
  Alcotest.(check bool) "invariant" true (Int_bucket_queue.check_invariant q);
  let seen = ref [] in
  let rec drain () =
    match Int_bucket_queue.pop q with
    | None -> ()
    | Some (k, p) ->
        Alcotest.(check int) "constant key" 42 k;
        seen := p :: !seen;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "every payload once"
    (List.init 100 Fun.id)
    (List.sort compare !seen)

let test_bucket_clear_reuse () =
  let q = Int_bucket_queue.create () in
  Int_bucket_queue.push q 1000 1;
  ignore (Int_bucket_queue.pop q);
  (* The floor is now 1000; clear must reset it so small keys work again. *)
  Int_bucket_queue.clear q;
  Alcotest.(check bool) "cleared" true (Int_bucket_queue.is_empty q);
  Int_bucket_queue.push q 3 7;
  Alcotest.(check (option (pair int int))) "usable after clear" (Some (3, 7))
    (Int_bucket_queue.pop q)

(* QCheck properties *)

let prop_binary_sorts =
  QCheck.Test.make ~name:"binary heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Binary_heap.create ~cmp:int_cmp () in
      List.iter (Binary_heap.push h) xs;
      Binary_heap.pop_all_sorted h = List.sort compare xs)

let prop_implementations_agree =
  QCheck.Test.make ~name:"binary and pairing heaps agree" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let b = Binary_heap.of_array ~cmp:int_cmp (Array.of_list xs) in
      let p = Pairing_heap.of_list ~cmp:int_cmp xs in
      Binary_heap.pop_all_sorted b = Pairing_heap.to_sorted_list p)

let prop_bucket_matches_binary_heap =
  (* Random monotone streams: interleave pushes (key = current floor + a
     small delta, keeping the bucket queue's contract satisfied) with
     pops, mirrored into a key-ordered Binary_heap. Popped key sequences
     must be identical, and the popped (key, payload) multisets must
     agree — payload order among equal keys is unspecified in both
     structures, so ties are normalised by sorting. *)
  QCheck.Test.make ~name:"bucket queue matches binary heap" ~count:300
    QCheck.(list (option (pair (int_bound 1000) small_int)))
    (fun ops ->
      let q = Int_bucket_queue.create () in
      let h =
        Binary_heap.create ~cmp:(fun (k1, _) (k2, _) -> Int.compare k1 k2) ()
      in
      let floor = ref 0 and next = ref 0 in
      let bucket_pops = ref [] and heap_pops = ref [] in
      let keys_agree = ref true in
      List.iter
        (function
          | Some (delta, _tag) ->
              let k = !floor + delta in
              let p = !next in
              incr next;
              Int_bucket_queue.push q k p;
              Binary_heap.push h (k, p)
          | None -> (
              match (Int_bucket_queue.pop q, Binary_heap.pop h) with
              | None, None -> ()
              | Some (kq, pq), Some (kh, ph) ->
                  floor := kq;
                  if kq <> kh then keys_agree := false;
                  bucket_pops := (kq, pq) :: !bucket_pops;
                  heap_pops := (kh, ph) :: !heap_pops
              | _ -> keys_agree := false))
        ops;
      let rec drain_q () =
        match Int_bucket_queue.pop q with
        | None -> ()
        | Some (k, p) ->
            bucket_pops := (k, p) :: !bucket_pops;
            drain_q ()
      in
      drain_q ();
      heap_pops := List.rev_append (Binary_heap.pop_all_sorted h) !heap_pops;
      !keys_agree
      && Int_bucket_queue.check_invariant q
      && List.map fst (List.rev !bucket_pops)
         = List.map fst (List.rev !heap_pops)
      && List.sort compare !bucket_pops = List.sort compare !heap_pops)

let prop_interleaved_ops =
  (* Random push/pop interleavings preserve the heap invariant. *)
  QCheck.Test.make ~name:"binary heap invariant under interleaving" ~count:100
    QCheck.(list (option small_int))
    (fun ops ->
      let h = Binary_heap.create ~cmp:int_cmp () in
      List.iter
        (function
          | Some x -> Binary_heap.push h x
          | None -> ignore (Binary_heap.pop h))
        ops;
      Binary_heap.check_invariant h)

let suite =
  [
    Alcotest.test_case "binary basic" `Quick test_binary_basic;
    Alcotest.test_case "binary exn" `Quick test_binary_exn;
    Alcotest.test_case "binary of_array" `Quick test_binary_of_array;
    Alcotest.test_case "binary duplicates" `Quick test_binary_duplicates;
    Alcotest.test_case "binary max-heap" `Quick test_binary_max_heap;
    Alcotest.test_case "binary clear" `Quick test_binary_clear;
    Alcotest.test_case "pairing basic" `Quick test_pairing_basic;
    Alcotest.test_case "pairing merge" `Quick test_pairing_merge;
    Alcotest.test_case "pairing deep spine" `Quick test_pairing_deep;
    Alcotest.test_case "bucket queue basic" `Quick test_bucket_basic;
    Alcotest.test_case "bucket queue one bucket" `Quick test_bucket_one_bucket;
    Alcotest.test_case "bucket queue clear reuse" `Quick
      test_bucket_clear_reuse;
    QCheck_alcotest.to_alcotest prop_binary_sorts;
    QCheck_alcotest.to_alcotest prop_bucket_matches_binary_heap;
    QCheck_alcotest.to_alcotest prop_implementations_agree;
    QCheck_alcotest.to_alcotest prop_interleaved_ops;
  ]
