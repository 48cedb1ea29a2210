module Point = Geacc_index.Point

type spec =
  | Spec_euclidean of { dim : int; range : float }
  | Spec_gaussian of { sigma : float }
  | Spec_cosine
  | Spec_custom of string

type t = {
  name : string;
  eval : float array -> float array -> float;
  spec : spec;
}

let name t = t.name
let spec t = t.spec
let eval t a b = t.eval a b

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let euclidean ~dim ~range =
  if dim <= 0 then invalid_arg "Similarity.euclidean: dim must be positive";
  if range <= 0. then invalid_arg "Similarity.euclidean: range must be positive";
  let diameter = sqrt (float_of_int dim *. range *. range) in
  {
    name = Printf.sprintf "euclidean(d=%d,T=%g)" dim range;
    eval = (fun a b -> clamp01 (1. -. (Point.dist a b /. diameter)));
    spec = Spec_euclidean { dim; range };
  }

let gaussian ~sigma =
  if sigma <= 0. then invalid_arg "Similarity.gaussian: sigma must be positive";
  {
    name = Printf.sprintf "gaussian(sigma=%g)" sigma;
    eval =
      (fun a b ->
        let d = Point.dist a b in
        exp (-.(d *. d) /. (2. *. sigma *. sigma)));
    spec = Spec_gaussian { sigma };
  }

let cosine =
  let eval a b =
    let dot = ref 0. and na = ref 0. and nb = ref 0. in
    for i = 0 to Array.length a - 1 do
      dot := !dot +. (a.(i) *. b.(i));
      na := !na +. (a.(i) *. a.(i));
      nb := !nb +. (b.(i) *. b.(i))
    done;
    if !na = 0. || !nb = 0. then 0.
    else clamp01 (!dot /. (sqrt !na *. sqrt !nb))
  in
  { name = "cosine"; eval; spec = Spec_cosine }

let custom ~name eval = { name; eval; spec = Spec_custom name }

let pp ppf t = Format.pp_print_string ppf t.name
