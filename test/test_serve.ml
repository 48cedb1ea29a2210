(* Crash-safe serving loop: journal framing and recovery, snapshots,
   admission control, incremental repair equivalence, and the crash-injection
   sweep asserting that recovery from any checkpoint reaches the digest of an
   uninterrupted run.

   Everything runs on small Meetup-shaped traces; wall-clock deadlines are
   never armed — budget expiry goes through [timeout.<stage>@N] fault-plan
   entries so the degradations replay identically on every run. *)

module Serve = Geacc_serve
module Trace = Serve.Trace
module Journal = Serve.Journal
module Snapshot = Serve.Snapshot
module Admission = Serve.Admission
module Serve_state = Serve.Serve_state
module Serve_loop = Serve.Serve_loop
module Trace_gen = Geacc_datagen.Trace_gen
module Meetup = Geacc_datagen.Meetup
module Fault = Geacc_robust.Fault
module Error = Geacc_robust.Error

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let path = Filename.temp_file "geacc_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let null_out f =
  let out = open_out Filename.null in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> f out)

let tiny_city = { Meetup.name = "tiny"; n_events = 8; n_users = 48 }

let tiny_trace ?(seed = 5) () =
  Trace_gen.generate ~seed ~city:tiny_city ~arrivals_per_batch:2 ~churn:0.15 ()

let run_ok config trace =
  null_out (fun out ->
      match Serve_loop.run config ~out trace with
      | Ok report -> report
      | Error e -> Alcotest.failf "serve failed: %s" (Error.to_string e))

(* -- Trace ------------------------------------------------------------- *)

let test_trace_roundtrip () =
  let trace = tiny_trace () in
  let text = Trace.save trace in
  match Trace.parse text with
  | Error e -> Alcotest.failf "re-parse failed: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check string) "save/parse/save fixpoint" text (Trace.save back)

let test_trace_groups () =
  let batch seq ts = { Trace.seq; ts; tier = Trace.Must; ops = [] } in
  let groups =
    Trace.groups [ batch 1 0.; batch 2 0.; batch 3 1.; batch 4 2.; batch 5 2. ]
  in
  Alcotest.(check (list (list int)))
    "consecutive equal-ts runs"
    [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (List.map (List.map (fun (b : Trace.batch) -> b.Trace.seq)) groups)

let test_batch_roundtrip () =
  let batch =
    {
      Trace.seq = 3;
      ts = 1.25;
      tier = Trace.Should;
      ops =
        [
          Trace.User_arrive { capacity = 2; attrs = [| 0.5; 0.25 |] };
          Trace.Event_capacity { v = 1; capacity = 7 };
          Trace.Conflict_add (0, 2);
          Trace.User_depart 0;
          Trace.Event_close 1;
          Trace.Stats;
        ];
    }
  in
  match Trace.parse_batch (Trace.batch_to_string batch) with
  | Error e -> Alcotest.failf "parse_batch: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check string)
        "block fixpoint"
        (Trace.batch_to_string batch)
        (Trace.batch_to_string back)

(* -- Journal ----------------------------------------------------------- *)

let payloads = [ "alpha"; ""; "batch 3 1.5 must\nstats\nend" ]

let write_journal dir =
  let path = Filename.concat dir "journal.wal" in
  let j = Journal.open_for_append ~path () in
  List.iteri (fun i payload -> Journal.append j ~seq:(i + 1) ~payload) payloads;
  Journal.close j;
  path

let test_journal_roundtrip () =
  with_tmpdir (fun dir ->
      let path = write_journal dir in
      match Journal.recover ~path () with
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e)
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check int) "no torn tail" 0 torn_bytes;
          Alcotest.(check (list (pair int string)))
            "records round-trip"
            (List.mapi (fun i p -> (i + 1, p)) payloads)
            (List.map
               (fun (r : Journal.record) -> (r.Journal.seq, r.Journal.payload))
               records))

let test_journal_missing_is_empty () =
  with_tmpdir (fun dir ->
      match Journal.recover ~path:(Filename.concat dir "none.wal") () with
      | Ok { Journal.records = []; torn_bytes = 0 } -> ()
      | Ok _ -> Alcotest.fail "expected empty recovery"
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e))

let test_journal_torn_tail_dropped () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "journal.wal" in
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:1 ~payload:"first";
      Journal.append j ~seq:2 ~payload:"second";
      (try
         Fault.with_plan "io.short_write@1" (fun () ->
             Journal.append j ~seq:3 ~payload:"torn away")
       with Fault.Injected { point } ->
         Alcotest.(check string) "short write fired" "io.short_write" point);
      Journal.close j;
      (match Journal.recover ~path () with
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e)
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check bool) "tail was torn" true (torn_bytes > 0);
          Alcotest.(check (list int))
            "intact prefix survives" [ 1; 2 ]
            (List.map (fun (r : Journal.record) -> r.Journal.seq) records));
      (* The torn bytes were truncated in place: appending works again and a
         second recovery is clean. *)
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:3 ~payload:"third";
      Journal.close j;
      match Journal.recover ~path () with
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check int) "clean after truncate" 0 torn_bytes;
          Alcotest.(check (list int))
            "resumed seq" [ 1; 2; 3 ]
            (List.map (fun (r : Journal.record) -> r.Journal.seq) records)
      | Error e -> Alcotest.failf "second recover: %s" (Error.to_string e))

let test_journal_corruption_rejected () =
  with_tmpdir (fun dir ->
      let path = write_journal dir in
      Fault.with_plan "journal.corrupt@1" (fun () ->
          match Journal.recover ~path () with
          | Error (Error.Parse_error { message; _ }) ->
              Alcotest.(check bool)
                (Printf.sprintf "crc named (%s)" message)
                true
                (String.length message > 0
                && String.sub message 0 3 = "jou")
          | Error e ->
              Alcotest.failf "wrong error: %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "corrupt record accepted"))

let test_journal_seq_regression_rejected () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "journal.wal" in
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:2 ~payload:"x";
      Journal.append j ~seq:1 ~payload:"y";
      Journal.close j;
      match Journal.recover ~path () with
      | Error (Error.Parse_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "seq regression accepted")

(* -- State + snapshot -------------------------------------------------- *)

let built_state () =
  let trace = tiny_trace () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  List.iter
    (fun batch ->
      match Serve_state.apply_batch state batch with
      | Ok () ->
          let r =
            Serve_state.repair state ~deadline:Geacc_robust.Budget.unlimited
          in
          Serve_state.commit state r
      | Error e -> Alcotest.failf "apply: %s" (Error.to_string e))
    trace.Trace.batches;
  state

let test_state_save_load () =
  let state = built_state () in
  match Serve_state.load (Serve_state.save state) with
  | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check string)
        "digest survives the round-trip" (Serve_state.digest state)
        (Serve_state.digest back);
      Alcotest.(check int) "seq" (Serve_state.seq state) (Serve_state.seq back);
      Alcotest.(check int)
        "cursor" (Serve_state.cursor state) (Serve_state.cursor back)

let test_snapshot_roundtrip () =
  with_tmpdir (fun dir ->
      let state = built_state () in
      let path = Filename.concat dir "snapshot.geacc" in
      Alcotest.(check bool) "absent before" false (Snapshot.exists ~path);
      Snapshot.save ~path state;
      Alcotest.(check bool) "present after" true (Snapshot.exists ~path);
      match Snapshot.load ~path with
      | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
      | Ok back ->
          Alcotest.(check string)
            "digest survives" (Serve_state.digest state)
            (Serve_state.digest back))

let test_snapshot_corruption_rejected () =
  with_tmpdir (fun dir ->
      let state = built_state () in
      let path = Filename.concat dir "snapshot.geacc" in
      Snapshot.save ~path state;
      let text =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Flip one payload byte well past the header lines. *)
      let b = Bytes.of_string text in
      let pos = Bytes.length b - 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Snapshot.load ~path with
      | Error (Error.Parse_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "corrupt snapshot accepted")

(* The sim headers that would make a [Similarity] constructor raise (or
   that it would accept with a meaningless dimension) are structured
   errors in every decoder that carries the header. *)
let bad_sim_headers =
  [ "sim euclidean 0 1"; "sim gaussian 0"; "sim euclidean 2 nan" ]

let test_trace_rejects_bad_sim () =
  List.iter
    (fun header ->
      match Trace.parse (Printf.sprintf "geacc-trace 1\n%s\n" header) with
      | Error (Error.Parse_error { line; _ }) ->
          Alcotest.(check int) (header ^ ": line") 2 line
      | Error e -> Alcotest.failf "%s: wrong error %s" header (Error.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" header)
    bad_sim_headers

let test_state_load_rejects_bad_headers () =
  let expect_parse_error what text =
    match Serve_state.load text with
    | Error (Error.Parse_error _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  let snapshot ~sim ~instance =
    let pairs = "geacc-matching 1\npairs 0\n" in
    Printf.sprintf
      "geacc-serve-state 2\nseq 0\ncursor 0\ndirty 0\n%s\ninstance %d\n%spairs \
       %d\n%sdeparted 0\nclosed 0\n"
      sim (String.length instance) instance (String.length pairs) pairs
  in
  List.iter
    (fun header ->
      expect_parse_error header (snapshot ~sim:header ~instance:""))
    bad_sim_headers;
  List.iter
    (fun body ->
      expect_parse_error body
        (snapshot ~sim:"sim euclidean 1 1"
           ~instance:("geacc-instance 1\nsim euclidean 1 1\n" ^ body)))
    [
      "events -1\n";
      "events 99\n1 0.5\n";
      "events 1\n1 0.5 0.5\nusers 0\nconflicts 0\n";
    ];
  expect_parse_error "negative pair count"
    (Printf.sprintf
       "geacc-serve-state 2\nseq 0\ncursor 0\ndirty 0\nsim cosine\ninstance \
        0\npairs %d\n%sdeparted 0\nclosed 0\n"
       (String.length "geacc-matching 1\npairs -1\n")
       "geacc-matching 1\npairs -1\n")

let test_state_rejects_bad_batches () =
  let trace = tiny_trace () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let apply seq ops =
    Serve_state.apply_batch state
      { Trace.seq; ts = 0.; tier = Trace.Must; ops }
  in
  let expect_error what = function
    | Error (Error.Invalid_input _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  expect_error "unknown user id" (apply 1 [ Trace.User_depart 0 ]);
  (match
     apply 1
       [
         Trace.User_arrive { capacity = 1; attrs = [| 1.; 0. |] };
         Trace.Event_open { capacity = 2; attrs = [| 1.; 0. |] };
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid batch rejected: %s" (Error.to_string e));
  expect_error "seq replay" (apply 1 [ Trace.Stats ]);
  expect_error "double depart"
    (apply 2 [ Trace.User_depart 0; Trace.User_depart 0 ]);
  expect_error "self conflict" (apply 2 [ Trace.Conflict_add (0, 0) ]);
  expect_error "dim mismatch"
    (apply 2 [ Trace.User_arrive { capacity = 1; attrs = [| 1. |] } ])

(* -- Admission --------------------------------------------------------- *)

let batch seq tier = { Trace.seq; ts = 0.; tier; ops = [] }

let decisions plan = List.map snd plan

let test_admission_tier_order () =
  (* Tier outranks arrival order: the Should arriving last still beats the
     Optional arriving first for the single non-must slot. *)
  let group =
    [
      batch 1 Trace.Optional;
      batch 2 Trace.Must;
      batch 3 Trace.Should;
      batch 4 Trace.Should;
    ]
  in
  let plan = Admission.plan ~queue_cap:2 ~degraded:false group in
  Alcotest.(check (list string))
    "one slot left after the must, shoulds first"
    [ "shed"; "admit"; "admit"; "shed" ]
    (List.map Admission.decision_name (decisions plan))

let test_admission_must_overflows () =
  let group = [ batch 1 Trace.Must; batch 2 Trace.Must; batch 3 Trace.Must ] in
  let plan = Admission.plan ~queue_cap:1 ~degraded:false group in
  Alcotest.(check (list string))
    "musts are never shed"
    [ "admit"; "admit"; "admit" ]
    (List.map Admission.decision_name (decisions plan))

let test_admission_degraded_sheds_optional () =
  let group = [ batch 1 Trace.Optional; batch 2 Trace.Optional ] in
  let ok = Admission.plan ~queue_cap:10 ~degraded:false group in
  let bad = Admission.plan ~queue_cap:10 ~degraded:true group in
  Alcotest.(check (list string))
    "healthy admits" [ "admit"; "admit" ]
    (List.map Admission.decision_name (decisions ok));
  Alcotest.(check (list string))
    "degraded sheds every optional" [ "shed"; "shed" ]
    (List.map Admission.decision_name (decisions bad))

(* -- Serving loop ------------------------------------------------------ *)

(* The dirty-bound contract, checked at every applied batch: repairing from
   the maintained first-dirty bound yields exactly the pairs and MaxSum bits
   of a replay from 0, and starts where [dirty_from] said it would — a
   replay that starts lower means the defensive fallback fired, i.e. a
   committed prefix pair failed to re-add because the bound was too high.
   Committing the incremental result carries the check into the next
   batch. The cases span both cities, churn 0.1-0.5 and 1-8 arrivals per
   batch, so every bound rule (arrival, departure, open, close, capacity
   down and up, conflict) fires many times. *)
let test_repair_equals_full_per_batch () =
  let cases =
    [
      (tiny_city, 5, 1, 0.1);
      (tiny_city, 9, 8, 0.5);
      (Meetup.auckland, 1, 8, 0.1);
      (Meetup.auckland, 3, 2, 0.5);
    ]
  in
  let unlimited = Geacc_robust.Budget.unlimited in
  let pairs (r : Serve_state.repair) =
    Option.fold ~none:[] ~some:Geacc_core.Matching.pairs r.Serve_state.matching
  in
  let bits (r : Serve_state.repair) =
    Option.fold ~none:0L
      ~some:(fun m ->
        Int64.bits_of_float (Geacc_core.Matching.maxsum_recomputed m))
      r.Serve_state.matching
  in
  let batches = ref 0 and partial = ref 0 in
  List.iter
    (fun ((city : Meetup.city), seed, arrivals_per_batch, churn) ->
      let trace =
        Trace_gen.generate ~seed ~city ~arrivals_per_batch ~churn ()
      in
      let state = Serve_state.create ~sim:trace.Trace.sim in
      List.iter
        (fun (b : Trace.batch) ->
          let where =
            Printf.sprintf "%s seed %d batch %d" city.Meetup.name seed
              b.Trace.seq
          in
          match Serve_state.apply_batch state b with
          | Error e -> Alcotest.failf "%s: %s" where (Error.to_string e)
          | Ok () ->
              let from = Serve_state.dirty_from state in
              let inc = Serve_state.repair state ~deadline:unlimited in
              let full = Serve_state.repair ~from:0 state ~deadline:unlimited in
              Alcotest.(check int)
                (where ^ ": replayed from the dirty bound")
                from inc.Serve_state.replayed_from;
              Alcotest.(check (list (pair int int)))
                (where ^ ": pairs") (pairs full) (pairs inc);
              Alcotest.(check int64)
                (where ^ ": maxsum bits") (bits full) (bits inc);
              incr batches;
              if from > 0 then incr partial;
              Serve_state.commit state inc)
        trace.Trace.batches)
    cases;
  Alcotest.(check bool)
    (Printf.sprintf "partial replays exercised (%d of %d batches)" !partial
       !batches)
    true
    (!partial > !batches / 2)

(* Shedding a state-changing batch shifts every later arrival's id, which
   cascades into apply errors — realistic, but noise here. These tests pin
   the degraded/shed exit path in isolation, so the trace is all-must (never
   shed) with stats-only lower-tier probes appended where needed. *)
let all_must trace =
  {
    trace with
    Trace.batches =
      List.map
        (fun (b : Trace.batch) -> { b with Trace.tier = Trace.Must })
        trace.Trace.batches;
  }

let test_deadline_degrades () =
  (* Expiring both repair stages on their first poll degrades every batch
     that has users to serve; the dirty bound still rolls forward, and exit
     status maps to 3. *)
  let trace = all_must (tiny_trace ()) in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let report =
        Fault.with_plan "timeout.repair@1,timeout.repair-full@1" (fun () ->
            run_ok config trace)
      in
      Alcotest.(check int) "no errors" 0 report.Serve_loop.errors;
      Alcotest.(check bool)
        "some batches degraded" true
        (report.Serve_loop.degraded_batches > 0);
      Alcotest.(check int) "exit degraded" 3 (Serve_loop.exit_status report))

let test_shed_exit_status () =
  let trace = all_must (tiny_trace ()) in
  (* A stats-only optional probe sharing the final timestamp: with one
     queue slot the must in its group wins and the probe is shed, losing
     no state. *)
  let last = List.nth trace.Trace.batches (List.length trace.Trace.batches - 1) in
  let probe =
    {
      Trace.seq = last.Trace.seq + 1;
      ts = last.Trace.ts;
      tier = Trace.Optional;
      ops = [ Trace.Stats ];
    }
  in
  let trace = { trace with Trace.batches = trace.Trace.batches @ [ probe ] } in
  with_tmpdir (fun dir ->
      let config =
        { (Serve_loop.default ~state_dir:dir) with Serve_loop.queue_cap = 1 }
      in
      let report = run_ok config trace in
      Alcotest.(check int) "no errors" 0 report.Serve_loop.errors;
      Alcotest.(check int) "exactly the probe shed" 1 report.Serve_loop.shed;
      Alcotest.(check int) "exit shed" 3 (Serve_loop.exit_status report))

(* -- Crash sweep ------------------------------------------------------- *)

(* The crash-safety contract: a run killed at ANY [serve.crash] checkpoint
   (post-journal-append, post-commit, around the snapshot rename, after the
   journal truncate) recovers on restart to exactly the digest an
   uninterrupted run reaches. A small snapshot interval makes the sweep
   cross several snapshot/truncate cycles. *)

let sweep_config dir =
  { (Serve_loop.default ~state_dir:dir) with Serve_loop.snapshot_every = 7 }

let test_crash_sweep () =
  let trace = tiny_trace ~seed:9 () in
  let reference =
    with_tmpdir (fun dir ->
        (run_ok (sweep_config dir) trace).Serve_loop.digest)
  in
  let checkpoints =
    with_tmpdir (fun dir ->
        Fault.with_plan "serve.crash@999999" (fun () ->
            ignore (run_ok (sweep_config dir) trace);
            Fault.hits "serve.crash"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "checkpoints cover the trace (%d)" checkpoints)
    true
    (checkpoints > 2 * List.length trace.Trace.batches);
  for n = 1 to checkpoints do
    with_tmpdir (fun dir ->
        let crashed =
          Fault.with_plan
            (Printf.sprintf "serve.crash@%d" n)
            (fun () ->
              try
                ignore (run_ok (sweep_config dir) trace);
                false
              with Fault.Injected { point = "serve.crash" } -> true)
        in
        Alcotest.(check bool)
          (Printf.sprintf "crash %d fired" n)
          true crashed;
        let report = run_ok (sweep_config dir) trace in
        Alcotest.(check string)
          (Printf.sprintf "recovery from crash %d reaches the reference" n)
          reference report.Serve_loop.digest)
  done

let parsed_trace lines =
  match Trace.parse (String.concat "\n" (lines @ [ "" ])) with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace parse: %s" (Error.to_string e)

(* A rejected batch is journaled (journal-before-apply) without advancing
   the applied seq. Admission must therefore filter on the highest
   journaled seq: filtering on the applied seq would re-journal the
   rejected tail batch with a duplicate seq on the first restart, and the
   journal's strict-monotonicity check would permanently refuse the state
   directory on the second. *)
let test_rejected_tail_survives_restarts () =
  let trace =
    parsed_trace
      [
        "geacc-trace 1";
        "sim euclidean 2 1";
        "batch 1 0 must";
        "event-open 1 1 0";
        "user-arrive 1 0.9 0.1";
        "end";
        "batch 2 1 must";
        "user-depart 7";
        "end";
      ]
  in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let first = run_ok config trace in
      Alcotest.(check int) "tail batch rejected" 1 first.Serve_loop.errors;
      let second = run_ok config trace in
      Alcotest.(check int)
        "restart skips the journaled reject" 0 second.Serve_loop.errors;
      Alcotest.(check int) "both batches skipped" 2 second.Serve_loop.skipped;
      (* The critical step: a third run's journal recovery must still
         succeed — a duplicate seq would brick it here. *)
      let third = run_ok config trace in
      Alcotest.(check string)
        "digest stable across restarts" second.Serve_loop.digest
        third.Serve_loop.digest)

(* The snapshot cadence counts journal appends, so a stream of rejected
   batches (which never advance [applied]) still truncates the journal. *)
let test_rejected_batches_bound_the_journal () =
  let bad seq =
    [ Printf.sprintf "batch %d %d must" seq (seq - 1); "user-depart 7"; "end" ]
  in
  let trace =
    parsed_trace
      ([
         "geacc-trace 1";
         "sim euclidean 2 1";
         "batch 1 0 must";
         "event-open 1 1 0";
         "user-arrive 1 0.9 0.1";
         "end";
       ]
      @ List.concat_map bad [ 2; 3; 4; 5; 6; 7 ])
  in
  with_tmpdir (fun dir ->
      let config =
        {
          (Serve_loop.default ~state_dir:dir) with
          Serve_loop.snapshot_every = 2;
        }
      in
      let first = run_ok config trace in
      Alcotest.(check int) "rejects counted" 6 first.Serve_loop.errors;
      Alcotest.(check int)
        "snapshots kept firing" 3 first.Serve_loop.snapshots;
      let second = run_ok config trace in
      Alcotest.(check int)
        "bounded backlog on restart" 1 second.Serve_loop.replayed;
      Alcotest.(check int)
        "nothing re-admitted" 7 second.Serve_loop.skipped;
      Alcotest.(check string)
        "digest stable" first.Serve_loop.digest second.Serve_loop.digest)

(* Snapshots can now be taken while a repair is pending, so the dirty
   bound must survive the save/load round-trip — otherwise recovery would
   replay from the stale cursor, above the first changed walk. *)
let test_state_dirty_survives_save_load () =
  let state = built_state () in
  let attrs =
    match Serve_state.instance state with
    | Some inst -> (Geacc_core.Instance.users inst).(0).Geacc_core.Entity.attrs
    | None -> Alcotest.fail "built state has no instance"
  in
  let apply seq ops =
    match
      Serve_state.apply_batch state { Trace.seq; ts = 0.; tier = Trace.Must; ops }
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "apply: %s" (Error.to_string e)
  in
  let u = Serve_state.n_users state in
  apply (Serve_state.seq state + 1) [ Trace.User_arrive { capacity = 1; attrs } ];
  Serve_state.commit state
    (Serve_state.repair state ~deadline:Geacc_robust.Budget.unlimited);
  (* Depart the newest user without repairing: dirty sits below cursor. *)
  apply (Serve_state.seq state + 1) [ Trace.User_depart u ];
  Alcotest.(check int) "dirty below cursor" u (Serve_state.dirty_from state);
  match Serve_state.load (Serve_state.save state) with
  | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check int)
        "dirty bound survives the round-trip"
        (Serve_state.dirty_from state)
        (Serve_state.dirty_from back)

let test_recovery_is_idempotent () =
  (* Re-running the full trace against an already-complete state skips every
     batch and changes nothing. *)
  let trace = tiny_trace () in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let first = run_ok config trace in
      let second = run_ok config trace in
      Alcotest.(check string)
        "digest unchanged" first.Serve_loop.digest second.Serve_loop.digest;
      Alcotest.(check int) "nothing re-applied" 0 second.Serve_loop.applied;
      Alcotest.(check int)
        "everything skipped" first.Serve_loop.batches
        second.Serve_loop.skipped)

let suite =
  [
    Alcotest.test_case "trace: save/parse fixpoint" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace: ts groups" `Quick test_trace_groups;
    Alcotest.test_case "trace: batch block round-trip" `Quick
      test_batch_roundtrip;
    Alcotest.test_case "journal: round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: missing file is empty" `Quick
      test_journal_missing_is_empty;
    Alcotest.test_case "journal: torn tail dropped" `Quick
      test_journal_torn_tail_dropped;
    Alcotest.test_case "journal: crc corruption rejected" `Quick
      test_journal_corruption_rejected;
    Alcotest.test_case "journal: seq regression rejected" `Quick
      test_journal_seq_regression_rejected;
    Alcotest.test_case "state: save/load round-trip" `Quick test_state_save_load;
    Alcotest.test_case "state: invalid batches rejected" `Quick
      test_state_rejects_bad_batches;
    Alcotest.test_case "trace: bad sim headers rejected" `Quick
      test_trace_rejects_bad_sim;
    Alcotest.test_case "state: decoder rejects bad headers" `Quick
      test_state_load_rejects_bad_headers;
    Alcotest.test_case "snapshot: round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: corruption rejected" `Quick
      test_snapshot_corruption_rejected;
    Alcotest.test_case "admission: tier outranks arrival" `Quick
      test_admission_tier_order;
    Alcotest.test_case "admission: musts always pass" `Quick
      test_admission_must_overflows;
    Alcotest.test_case "admission: degraded sheds optionals" `Quick
      test_admission_degraded_sheds_optional;
    Alcotest.test_case "loop: deadline degrades (exit 3)" `Quick
      test_deadline_degrades;
    Alcotest.test_case "loop: shed maps to exit 3" `Quick test_shed_exit_status;
    Alcotest.test_case "loop: re-run is idempotent" `Quick
      test_recovery_is_idempotent;
    Alcotest.test_case "loop: rejected tail survives restarts" `Quick
      test_rejected_tail_survives_restarts;
    Alcotest.test_case "loop: rejects still truncate the journal" `Quick
      test_rejected_batches_bound_the_journal;
    Alcotest.test_case "state: dirty bound survives save/load" `Quick
      test_state_dirty_survives_save_load;
    Alcotest.test_case "state: repair == full per batch" `Quick
      test_repair_equals_full_per_batch;
    Alcotest.test_case "crash sweep: every checkpoint recovers" `Slow
      test_crash_sweep;
  ]
