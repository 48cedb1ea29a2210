type t = float array

(* The coordinate loops index their arrays through [Geacc_unsafe] under
   stage-4 licences: each function's equal-length assert is the fact the
   @bounds proofs rest on. `--profile safe` compiles the same sites back
   to checked accesses. See DESIGN.md §13. *)
module A = Geacc_unsafe

let[@inline] dist2 a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    (* bounds: proved — i < |a| = |b| (asserted above) *)
    let d = A.unsafe_get a i -. A.unsafe_get b i in
    acc := !acc +. (d *. d)
  done;
  !acc

let[@inline] dist a b = sqrt (dist2 a b)

let pp ppf p =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list p)
