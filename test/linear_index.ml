(* Sort-everything reference for Nn_stream's (distance, index) order. *)
module Point = Geacc_index.Point

type t = { points : Point.t array }

let create points = { points }

let by_dist_then_index (i1, d1) (i2, d2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare i1 i2

let all_sorted t q =
  let pairs = Array.mapi (fun i p -> (i, Point.dist q p)) t.points in
  Array.sort by_dist_then_index pairs;
  pairs

let nearest t q ~k =
  assert (k >= 0);
  let pairs = all_sorted t q in
  if k >= Array.length pairs then pairs else Array.sub pairs 0 k

let nearest_within t q ~k ~max_dist =
  let pairs = nearest t q ~k in
  let keep = ref (Array.length pairs) in
  (* Sorted ascending: find the cut point. *)
  (try
     Array.iteri
       (fun i (_, d) ->
         if d >= max_dist then begin
           keep := i;
           raise Exit
         end)
       pairs
   with Exit -> ());
  Array.sub pairs 0 !keep

let nth_nearest t q j =
  assert (j >= 1);
  if j > Array.length t.points then None else Some (all_sorted t q).(j - 1)
