(* Sort-everything reference for Nn_stream's (score desc, index asc) order. *)

type t = { scores : float array }

let create scores = { scores }

let ranked t =
  let pairs = ref [] in
  for i = Array.length t.scores - 1 downto 0 do
    if t.scores.(i) > 0. then pairs := (i, t.scores.(i)) :: !pairs
  done;
  let a = Array.of_list !pairs in
  Array.stable_sort (fun (_, s1) (_, s2) -> Float.compare s2 s1) a;
  a

let nearest t ~k =
  assert (k >= 0);
  let pairs = ranked t in
  if k >= Array.length pairs then pairs else Array.sub pairs 0 k

let nth_nearest t j =
  assert (j >= 1);
  let pairs = ranked t in
  if j > Array.length pairs then None else Some pairs.(j - 1)
