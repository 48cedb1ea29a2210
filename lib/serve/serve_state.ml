open Geacc_core
module Instance_io = Geacc_io.Instance_io
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error

(* -- Growable arrays (ids are append-only, never reused) -------------- *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }
let vec_get v i = v.data.(i)
let vec_set v i x = v.data.(i) <- x

let vec_push v x =
  (if v.len = Array.length v.data then begin
     let d = Array.make (max 8 (2 * v.len)) x in
     Array.blit v.data 0 d 0 v.len;
     v.data <- d
   end);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_array v = Array.sub v.data 0 v.len

type t = {
  sim : Similarity.t;
  users : Entity.t vec;
  events : Entity.t vec;
  departed : bool vec;
  closed : bool vec;
  conflict_tbl : (int * int, unit) Hashtbl.t;  (* keys normalised (v < w) *)
  mutable conflict_list : (int * int) list;
  mutable seq : int;
  mutable cursor : int;
  mutable pairs : (int * int) list;  (* committed arrangement, lex order *)
  mutable dirty : int;  (* first possibly-changed user; max_int = clean *)
  mutable cache : Instance.t option;  (* valid for current entities *)
}

let create ~sim =
  {
    sim;
    users = vec_create ();
    events = vec_create ();
    departed = vec_create ();
    closed = vec_create ();
    conflict_tbl = Hashtbl.create 64;
    conflict_list = [];
    seq = 0;
    cursor = 0;
    pairs = [];
    dirty = max_int;
    cache = None;
  }

let seq t = t.seq
let cursor t = t.cursor
let n_users t = t.users.len
let n_events t = t.events.len

let count_live flags =
  let n = ref 0 in
  for i = 0 to flags.len - 1 do
    if not (vec_get flags i) then incr n
  done;
  !n

let live_users t = count_live t.departed
let live_events t = count_live t.closed
let n_conflicts t = Hashtbl.length t.conflict_tbl
let pairs t = t.pairs

(* The entity arrays are copied out (Array.sub), so an instance stays
   consistent after further mutations; only the cache slot is refreshed. *)
let instance t =
  match t.cache with
  | Some _ as s -> s
  | None ->
      if t.users.len = 0 && t.events.len = 0 then None
      else begin
        let conflicts = Conflict.create ~n_events:t.events.len in
        List.iter (fun (v, w) -> Conflict.add conflicts v w) t.conflict_list;
        let inst =
          Instance.create ~sim:t.sim ~events:(vec_to_array t.events)
            ~users:(vec_to_array t.users) ~conflicts ()
        in
        t.cache <- Some inst;
        Some inst
      end

let maxsum t =
  match instance t with
  | None -> 0.
  | Some inst ->
      List.fold_left
        (fun acc (v, u) -> acc +. Instance.sim inst ~v ~u)
        0. t.pairs

let dirty_from t = min (min t.dirty t.cursor) t.users.len

(* -- Applying a batch ------------------------------------------------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let validate t (batch : Trace.batch) =
  if batch.Trace.seq <= t.seq then
    reject "batch seq %d is not above the applied seq %d" batch.Trace.seq t.seq;
  let nu = ref t.users.len and ne = ref t.events.len in
  let dim =
    ref
      (if t.users.len > 0 then Entity.dim (vec_get t.users 0)
       else if t.events.len > 0 then Entity.dim (vec_get t.events 0)
       else -1)
  in
  let dep = Hashtbl.create 4
  and clo = Hashtbl.create 4
  and fresh_conflicts = Hashtbl.create 4 in
  let check_entity ~capacity ~attrs =
    if capacity < 0 then reject "capacity %d is negative" capacity;
    let d = Array.length attrs in
    if d = 0 then reject "empty attribute vector";
    if !dim = -1 then dim := d
    else if d <> !dim then
      reject "attribute dimension %d differs from the instance dimension %d" d
        !dim
  in
  let user_departed u =
    (u < t.users.len && vec_get t.departed u) || Hashtbl.mem dep u
  in
  let event_closed v =
    (v < t.events.len && vec_get t.closed v) || Hashtbl.mem clo v
  in
  let check_event_id v =
    if v < 0 || v >= !ne then reject "event id %d out of range [0, %d)" v !ne
  in
  List.iter
    (fun op ->
      match op with
      | Trace.User_arrive { capacity; attrs } ->
          check_entity ~capacity ~attrs;
          incr nu
      | Trace.User_depart u ->
          if u < 0 || u >= !nu then
            reject "user id %d out of range [0, %d)" u !nu;
          if user_departed u then reject "user %d already departed" u;
          Hashtbl.replace dep u ()
      | Trace.Event_open { capacity; attrs } ->
          check_entity ~capacity ~attrs;
          incr ne
      | Trace.Event_close v ->
          check_event_id v;
          if event_closed v then reject "event %d already closed" v;
          Hashtbl.replace clo v ()
      | Trace.Event_capacity { v; capacity } ->
          check_event_id v;
          if event_closed v then reject "event %d is closed" v;
          if capacity < 0 then reject "capacity %d is negative" capacity
      | Trace.Conflict_add (v, w) ->
          check_event_id v;
          check_event_id w;
          if v = w then reject "event %d conflicts with itself" v;
          let key = (min v w, max v w) in
          if Hashtbl.mem t.conflict_tbl key || Hashtbl.mem fresh_conflicts key
          then reject "duplicate conflict pair (%d, %d)" (fst key) (snd key);
          Hashtbl.replace fresh_conflicts key ()
      | Trace.Stats -> ())
    batch.Trace.ops

let tombstone e = Entity.make ~id:e.Entity.id ~attrs:e.Entity.attrs ~capacity:0

(* Dirty-position rules, one per operation. All bounds lean on two facts:
   the canonical arrangement serves users in ascending id order, and the
   neighbour walk never attempts a zero-similarity event — so an event only
   interacts with its candidate users (sim > 0), and every holder is a
   candidate. Bounds derived from the committed [t.pairs] stay sound even
   when they are stale: below the already-accumulated dirty position the
   stale pairs ARE the canonical prefix, and everything at or above it
   replays anyway.

   - arrival: the new user serves itself; ids below it saw nothing change.
   - departure of u: users below u were served before u existed in their
     view — u never held capacity they competed for — so replay from u.
   - close of v: a candidate that does not hold v either never reached v
     (its walk filled up earlier — ranks are unchanged by the tombstone) or
     was rejected at v and continues identically; only holders change, so
     replay from the smallest holder.
   - capacity decrease to c: the first c holders (in user order) re-acquire
     their seats against only-smaller occupancy; the (c+1)-th holder is the
     first walk that can differ.
   - capacity increase: holders keep their seats; the first candidate NOT
     holding v is the first user the extra room can admit.
   - new conflict (v, w): it can only reject a user attempting one end
     while holding the other, which needs positive similarity to both —
     replay from the smallest common candidate.
   - a new event has no holders yet: its smallest candidate is the first
     user whose walk ranks it. *)

let sorted_holders t v =
  List.sort compare
    (List.filter_map
       (fun (ev, u) -> if ev = v then Some u else None)
       t.pairs)

(* Candidate probes for the dirty bounds. These scan user ids upward and
   stop at the first hit, which is almost always early — building an NN
   index for a single min query would cost more than the whole scan. The
   similarity calls are the same [Similarity.eval] that [Instance.sim]
   performs, so the bounds match what the walk sees bit-for-bit. *)

let sim_positive t ~v ~u =
  Similarity.eval t.sim (vec_get t.events v).Entity.attrs
    (vec_get t.users u).Entity.attrs
  > 0.

let min_candidate t ~v ~skip =
  let n = t.users.len in
  let rec go u =
    if u >= n then None
    else if (not (skip u)) && sim_positive t ~v ~u then Some u
    else go (u + 1)
  in
  go 0

let min_common_candidate t ~v ~w =
  min_candidate t ~v ~skip:(fun u -> not (sim_positive t ~v:w ~u))

let apply_ops t (batch : Trace.batch) =
  (* Queries against the rebuilt instance are deferred past the mutation
     loop; pairs-derived bounds use the committed pairs directly. *)
  let opened = ref [] and grown = ref [] and conflicted = ref [] in
  let dirty = ref max_int in
  let note r = dirty := min !dirty r in
  List.iter
    (fun op ->
      match op with
      | Trace.User_arrive { capacity; attrs } ->
          let id = t.users.len in
          vec_push t.users (Entity.make ~id ~attrs ~capacity);
          vec_push t.departed false;
          note id
      | Trace.User_depart u ->
          vec_set t.departed u true;
          vec_set t.users u (tombstone (vec_get t.users u));
          note u
      | Trace.Event_open { capacity; attrs } ->
          let id = t.events.len in
          vec_push t.events (Entity.make ~id ~attrs ~capacity);
          vec_push t.closed false;
          opened := id :: !opened
      | Trace.Event_close v ->
          vec_set t.closed v true;
          vec_set t.events v (tombstone (vec_get t.events v));
          (match sorted_holders t v with u :: _ -> note u | [] -> ())
      | Trace.Event_capacity { v; capacity } ->
          let e = vec_get t.events v in
          let old = e.Entity.capacity in
          vec_set t.events v
            (Entity.make ~id:v ~attrs:e.Entity.attrs ~capacity);
          if capacity < old then begin
            let holders = sorted_holders t v in
            match List.nth_opt holders capacity with
            | Some u -> note u
            | None -> ()
          end
          else if capacity > old then grown := v :: !grown
      | Trace.Conflict_add (v, w) ->
          let key = (min v w, max v w) in
          Hashtbl.replace t.conflict_tbl key ();
          t.conflict_list <- key :: t.conflict_list;
          conflicted := key :: !conflicted
      | Trace.Stats -> ())
    batch.Trace.ops;
  (* Conflict-only batches keep the cached instance warm: the entities are
     untouched, so instead of a full rebuild (entity copies, conflict
     bitset rows, a cold NN index) the new edges go into a copy of the
     cached conflict graph and the instance is re-wrapped around it —
     handed-out instances stay immutable snapshots, and the prepared
     neighbour-query state carries over. *)
  let entities_unchanged =
    List.for_all
      (fun op ->
        match op with
        | Trace.Conflict_add _ | Trace.Stats -> true
        | _ -> false)
      batch.Trace.ops
  in
  (match (t.cache, entities_unchanged) with
  | Some inst, true ->
      if !conflicted <> [] then begin
        let cf = Conflict.copy (Instance.conflicts inst) in
        List.iter (fun (v, w) -> Conflict.add cf v w) !conflicted;
        t.cache <- Some (Instance.with_conflicts inst cf)
      end
  | _ -> t.cache <- None);
  let no_skip _ = false in
  List.iter
    (fun v ->
      match min_candidate t ~v ~skip:no_skip with
      | Some u -> note u
      | None -> ())
    !opened;
  List.iter
    (fun v ->
      let holds = Hashtbl.create 8 in
      List.iter
        (fun (ev, u) -> if ev = v then Hashtbl.replace holds u ())
        t.pairs;
      match min_candidate t ~v ~skip:(Hashtbl.mem holds) with
      | Some u -> note u
      | None -> ())
    !grown;
  List.iter
    (fun (v, w) ->
      match min_common_candidate t ~v ~w with
      | Some u -> note u
      | None -> ())
    !conflicted;
  t.dirty <- min t.dirty !dirty;
  t.seq <- batch.Trace.seq

let apply_batch t batch =
  match validate t batch with
  | () ->
      apply_ops t batch;
      Ok ()
  | exception Reject message ->
      Error
        (Error.Invalid_input
           { what = Printf.sprintf "batch %d" batch.Trace.seq; message })

(* -- Repair ----------------------------------------------------------- *)

type repair = {
  matching : Matching.t option;
  served_to : int;
  complete : bool;
  replayed_from : int;
}

let serve_range matching inst ~deadline ~from ~upto =
  let rec go u =
    if u >= upto then upto
    else begin
      Online.serve_user matching inst ~deadline u;
      (* Expiry may have cut u's walk short: report u unserved. Re-walking
         a partially served user later skips held events as duplicates and
         resumes exactly where the walk stopped. *)
      if Budget.expired deadline then u else go (u + 1)
    end
  in
  go from

let repair ?from t ~deadline =
  match instance t with
  | None -> { matching = None; served_to = 0; complete = true; replayed_from = 0 }
  | Some inst ->
      let n = t.users.len in
      let from =
        match from with
        | None -> dirty_from t
        | Some f -> min (max f 0) (dirty_from t)
      in
      let matching = Matching.create inst in
      let prefix_ok =
        List.for_all
          (fun (v, u) ->
            u >= from
            ||
            match Matching.add matching ~v ~u with
            | Ok _ -> true
            | Error _ -> false)
          t.pairs
      in
      let matching, from =
        if prefix_ok then (matching, from) else (Matching.create inst, 0)
      in
      let served_to = serve_range matching inst ~deadline ~from ~upto:n in
      {
        matching = Some matching;
        served_to;
        complete = served_to = n;
        replayed_from = from;
      }

let commit t (r : repair) =
  (match r.matching with
  | None -> t.pairs <- []
  | Some m -> t.pairs <- Matching.pairs m);
  t.cursor <- r.served_to;
  t.dirty <- max_int

(* -- Digest ----------------------------------------------------------- *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let digest t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "seq %d cursor %d users %d events %d\n" t.seq t.cursor
    t.users.len t.events.len;
  for u = 0 to t.users.len - 1 do
    Printf.bprintf buf "u %d %b\n" (vec_get t.users u).Entity.capacity
      (vec_get t.departed u)
  done;
  for v = 0 to t.events.len - 1 do
    Printf.bprintf buf "v %d %b\n" (vec_get t.events v).Entity.capacity
      (vec_get t.closed v)
  done;
  List.iter
    (fun (v, w) -> Printf.bprintf buf "cf %d %d\n" v w)
    (List.sort compare t.conflict_list);
  List.iter (fun (v, u) -> Printf.bprintf buf "p %d %d\n" v u) t.pairs;
  Printf.bprintf buf "maxsum %Lx\n" (Int64.bits_of_float (maxsum t));
  Printf.sprintf "%016Lx" (fnv1a64 (Buffer.contents buf))

(* -- Snapshot payload ------------------------------------------------- *)

let flagged_ids flags =
  let acc = ref [] in
  for i = flags.len - 1 downto 0 do
    if vec_get flags i then acc := i :: !acc
  done;
  !acc

let save t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "geacc-serve-state 2\n";
  Printf.bprintf buf "seq %d\n" t.seq;
  Printf.bprintf buf "cursor %d\n" t.cursor;
  (* The dirty bound survives the round-trip: a snapshot can be taken while
     a repair is still pending (rejected or degraded batch in between), and
     dropping the bound would let recovery replay from the stale cursor —
     above the first user whose walk changed. [n_users] stands in for the
     max_int clean marker; [dirty_from] caps there anyway. *)
  Printf.bprintf buf "dirty %d\n" (min t.dirty t.users.len);
  Printf.bprintf buf "%s\n" (Instance_io.sim_header t.sim);
  let inst_text =
    match instance t with None -> "" | Some i -> Instance_io.save_instance i
  in
  Printf.bprintf buf "instance %d\n" (String.length inst_text);
  Buffer.add_string buf inst_text;
  let pairs_text = Instance_io.save_pairs t.pairs in
  Printf.bprintf buf "pairs %d\n" (String.length pairs_text);
  Buffer.add_string buf pairs_text;
  let id_line keyword ids =
    Printf.bprintf buf "%s %d%s\n" keyword (List.length ids)
      (String.concat "" (List.map (Printf.sprintf " %d") ids))
  in
  id_line "departed" (flagged_ids t.departed);
  id_line "closed" (flagged_ids t.closed);
  Buffer.contents buf

exception Fail of { line : int; message : string }

let load text =
  let pos = ref 0 and lineno = ref 0 in
  let len = String.length text in
  let fail fmt =
    Printf.ksprintf (fun message -> raise (Fail { line = !lineno; message })) fmt
  in
  let read_line () =
    incr lineno;
    if !pos >= len then fail "unexpected end of input";
    match String.index_from_opt text !pos '\n' with
    | None -> fail "unexpected end of input"
    | Some nl ->
        let l = String.sub text !pos (nl - !pos) in
        pos := nl + 1;
        l
  in
  let read_blob n =
    if !pos + n > len then fail "embedded section of %d bytes cut short" n;
    let blob = String.sub text !pos n in
    pos := !pos + n;
    String.iter (fun c -> if c = '\n' then incr lineno) blob;
    blob
  in
  let tokens l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let parse_int s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail "expected an integer, got %S" s
  in
  let section keyword =
    let l = read_line () in
    match tokens l with
    | [ k; n ] when k = keyword ->
        let n = parse_int n in
        if n < 0 then fail "negative %s length %d" keyword n;
        n
    | _ -> fail "expected `%s <len>`, got %S" keyword l
  in
  let id_section keyword ~bound =
    let l = read_line () in
    match tokens l with
    | k :: n :: ids when k = keyword ->
        let n = parse_int n in
        let ids = List.map parse_int ids in
        if List.length ids <> n then
          fail "%s declares %d ids but lists %d" keyword n (List.length ids);
        List.iter
          (fun i ->
            if i < 0 || i >= bound then
              fail "%s id %d out of range [0, %d)" keyword i bound)
          ids;
        ids
    | _ -> fail "expected `%s <count> <id...>`, got %S" keyword l
  in
  match
    (let l = read_line () in
     match tokens l with
     | [ "geacc-serve-state"; "2" ] -> ()
     | _ -> fail "expected `geacc-serve-state 2` header, got %S" l);
    let seq =
      match tokens (read_line ()) with
      | [ "seq"; n ] ->
          let n = parse_int n in
          if n < 0 then fail "negative seq %d" n;
          n
      | _ -> fail "expected `seq <n>`"
    in
    let cursor =
      match tokens (read_line ()) with
      | [ "cursor"; n ] ->
          let n = parse_int n in
          if n < 0 then fail "negative cursor %d" n;
          n
      | _ -> fail "expected `cursor <n>`"
    in
    let dirty =
      match tokens (read_line ()) with
      | [ "dirty"; n ] ->
          let n = parse_int n in
          if n < 0 then fail "negative dirty bound %d" n;
          n
      | _ -> fail "expected `dirty <n>`"
    in
    let sim =
      match tokens (read_line ()) with
      | "sim" :: args -> (
          try Instance_io.parse_sim ~line:!lineno args
          with Instance_io.Parse_error { line = _; message } ->
            fail "%s" message)
      | _ -> fail "expected `sim ...`"
    in
    let inst_blob = read_blob (section "instance") in
    let pairs_blob = read_blob (section "pairs") in
    let t = create ~sim in
    t.seq <- seq;
    if inst_blob <> "" then begin
      let inst =
        try Instance_io.load_instance inst_blob
        with Instance_io.Parse_error { line; message } ->
          raise
            (Fail { line = !lineno; message = Printf.sprintf
                      "embedded instance (line %d): %s" line message })
      in
      Array.iter
        (fun e ->
          vec_push t.users e;
          vec_push t.departed false)
        (Instance.users inst);
      Array.iter
        (fun e ->
          vec_push t.events e;
          vec_push t.closed false)
        (Instance.events inst);
      Conflict.iter_pairs (Instance.conflicts inst) (fun v w ->
          let key = (v, w) in
          Hashtbl.replace t.conflict_tbl key ();
          t.conflict_list <- key :: t.conflict_list)
    end;
    let pairs =
      try Instance_io.load_pairs pairs_blob
      with Instance_io.Parse_error { line; message } ->
        raise
          (Fail { line = !lineno; message = Printf.sprintf
                    "embedded matching (line %d): %s" line message })
    in
    List.iter
      (fun (v, u) ->
        if v < 0 || v >= t.events.len then
          fail "pair event id %d out of range [0, %d)" v t.events.len;
        if u < 0 || u >= t.users.len then
          fail "pair user id %d out of range [0, %d)" u t.users.len)
      pairs;
    t.pairs <- pairs;
    if cursor > t.users.len then
      fail "cursor %d beyond the %d users" cursor t.users.len;
    t.cursor <- cursor;
    if dirty > t.users.len then
      fail "dirty bound %d beyond the %d users" dirty t.users.len;
    t.dirty <- (if dirty >= t.users.len then max_int else dirty);
    List.iter (fun u -> vec_set t.departed u true) (id_section "departed" ~bound:t.users.len);
    List.iter (fun v -> vec_set t.closed v true) (id_section "closed" ~bound:t.events.len);
    if !pos <> len then begin
      incr lineno;
      fail "trailing content"
    end;
    t
  with
  | t -> Ok t
  | exception Fail { line; message } ->
      Error (Error.Parse_error { line; message })
