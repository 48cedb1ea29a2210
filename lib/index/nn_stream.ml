(* Every positive score is computed once at creation; ranks are then served
   from a progressively sorted prefix: each extension quickselects the next
   chunk (geometrically doubling) and sorts only that chunk, so a stream
   drained to depth m costs O(n + m log m) rather than O(n log n) up front
   or O(n) heap work per rank. *)

type t = {
  idxs : int array;  (* parallel arrays over the positively scored indices *)
  scores : float array;
  len : int;
  mutable sorted_upto : int;  (* prefix [0, sorted_upto) is in final order *)
}

let create n score =
  let idxs = Array.make (Stdlib.max 1 n) 0
  and scores = Array.make (Stdlib.max 1 n) 0. in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    (* alloc: ok — a caller's closure returns its float boxed; binding it adds nothing *)
    let s = score i in
    if s > 0. then begin
      idxs.(!kept) <- i;
      scores.(!kept) <- s;
      incr kept
    end
  done;
  { idxs; scores; len = !kept; sorted_upto = 0 }

(* (score desc, idx asc) strict order on positions of the parallel arrays.
   Kept scores are positive, so never NaN. *)
let[@inline] pos_less t i j =
  t.scores.(i) > t.scores.(j)
  || (t.scores.(i) = t.scores.(j) && t.idxs.(i) < t.idxs.(j))

let swap t i j =
  let s = t.scores.(i) in
  t.scores.(i) <- t.scores.(j);
  t.scores.(j) <- s;
  let x = t.idxs.(i) in
  t.idxs.(i) <- t.idxs.(j);
  t.idxs.(j) <- x

(* Lomuto partition of [lo, hi) with a median-of-three pivot; returns the
   pivot's final position. The (score, idx) keys are pairwise distinct (idx
   is unique), so the order is strict and total. *)
let partition t lo hi =
  let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
  (* Median of first/middle/last moved to [last]: force the minimum of the
     three into [lo]; the median of the remaining two is their minimum. *)
  if pos_less t mid lo then swap t mid lo;
  if pos_less t last lo then swap t last lo;
  if pos_less t mid last then swap t mid last;
  let store = ref lo in
  for i = lo to hi - 2 do
    if pos_less t i last then begin
      swap t i !store;
      incr store
    end
  done;
  swap t !store last;
  !store

(* Quickselect: rearrange [lo, hi) so that positions [lo, k) hold the
   k-lo first-ranked elements (in arbitrary order). *)
let rec select_prefix t lo hi k =
  if k > lo && k < hi && hi - lo > 1 then begin
    let p = partition t lo hi in
    if k <= p then select_prefix t lo p k
    else select_prefix t (p + 1) hi k
  end

let sort_range t lo hi =
  (* Sort positions [lo, hi) by (score desc, idx asc) via a permutation
     sort on a scratch index array. *)
  let m = hi - lo in
  if m > 1 then begin
    let order = Array.init m (fun k -> lo + k) in
    Array.sort
      (fun a b ->
        let c = Float.compare t.scores.(b) t.scores.(a) in
        if c <> 0 then c else Int.compare t.idxs.(a) t.idxs.(b))
      order;
    let s = Array.map (fun p -> t.scores.(p)) order in
    let x = Array.map (fun p -> t.idxs.(p)) order in
    Array.blit s 0 t.scores lo m;
    Array.blit x 0 t.idxs lo m
  end

(* Extend the sorted prefix to cover rank [j] (1-based): quickselect the
   next geometric chunk, then sort just that chunk. *)
let extend_sorted t j =
  if j > t.sorted_upto && t.sorted_upto < t.len then begin
    let target =
      Stdlib.min t.len (Stdlib.max (Stdlib.max (2 * t.sorted_upto) j) 32)
    in
    select_prefix t t.sorted_upto t.len target;
    sort_range t t.sorted_upto target;
    t.sorted_upto <- target
  end

let get t j =
  assert (j >= 1);
  extend_sorted t j;
  if j <= t.sorted_upto then Some (t.idxs.(j - 1), t.scores.(j - 1)) else None
