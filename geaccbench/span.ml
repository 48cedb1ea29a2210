(* In-memory spans and counters recorded by the benchmark around calls into
   the geacc libraries. Nothing here reaches inside a library: a span covers
   one public call, timed from the caller's side.

   A span's name is "<layer>.<call>"; the layer prefix maps to the geacc
   module the call belongs to (see [module_of]). Spans are kept in memory
   and written out once, by [write], when the benchmark ends. *)

type t = {
  id : int;
  name : string;
  run : int;  (* Iteration the span belongs to; spans of one run share it. *)
  parent : int;  (* Enclosing span's id, -1 at the root. *)
  t0 : float;
  t1 : float;
}

let now = Unix.gettimeofday
let recorded : t list ref = ref []
let counters : (int * string * float) list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_run = ref 0

let start_run r = current_run := r

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let finish t0 =
    let t1 = now () in
    open_ids := List.tl !open_ids;
    recorded := { id; name; run = !current_run; parent; t0; t1 } :: !recorded
  in
  let t0 = now () in
  match f () with
  | x ->
      finish t0;
      x
  | exception e ->
      finish t0;
      raise e

let count name v = counters := (!current_run, name, v) :: !counters

let duration s = s.t1 -. s.t0

let of_run r = List.filter (fun s -> s.run = r) !recorded

(* Self time: the span's duration minus the part its direct children
   cover (children of one span never overlap: calls are sequential). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Layer prefix -> geacc module. [mcf.*] spans time [Mincostflow], which
   lives in geacc_core; [bench.*] spans are the benchmark's own roots. *)
let module_of name =
  match layer name with
  | "io" -> "geacc_io"
  | "index" -> "geacc_index"
  | "core" | "mcf" -> "geacc_core"
  | "flow" -> "geacc_flow"
  | "serve" -> "geacc_serve"
  | _ -> "bench"

let sum_named spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. spans

let durations_named spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    spans

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"kind\":\"span\",\"id\":%d,\"name\":%S,\"module\":%S,\"run\":%d,\"parent\":%d,\"start_s\":%.6f,\"end_s\":%.6f}\n"
            s.id s.name (module_of s.name) s.run s.parent s.t0 s.t1)
        (List.rev !recorded);
      List.iter
        (fun (r, name, v) ->
          Printf.fprintf oc
            "{\"kind\":\"counter\",\"name\":%S,\"run\":%d,\"value\":%.17g}\n"
            name r v)
        (List.rev !counters))
