open Geacc_core

let solve instance =
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let pairs = ref [] in
  for v = n_v - 1 downto 0 do
    for u = n_u - 1 downto 0 do
      let s = Instance.sim instance ~v ~u in
      if s > 0. then pairs := (s, v, u) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  (* Descending similarity, then ascending (v, u): Greedy-GEACC's pop
     order. *)
  Array.sort
    (fun (s1, v1, u1) (s2, v2, u2) ->
      let c = Float.compare s2 s1 in
      if c <> 0 then c
      else
        let c = Int.compare v1 v2 in
        if c <> 0 then c else Int.compare u1 u2)
    pairs;
  let m = Matching.create instance in
  Array.iter
    (fun (_, v, u) -> match Matching.add m ~v ~u with Ok _ | Error _ -> ())
    pairs;
  m
