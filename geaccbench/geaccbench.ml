(* geaccbench: the geacc benchmark.

     geaccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Generates the workload's inputs from the seed (geacc_datagen, outside
   every timed region), writes them to files, and runs the system on them
   through its public entry points for about [--seconds] seconds, checking
   every output. The last line of standard output is one JSON object with
   the keys "correct", "attempted", "failed" and "metrics".

   [--trace 0] reports the end-to-end metrics, tracing off. [--trace 1]
   alternates untraced and traced iterations on the first input and
   reports the per-layer metrics: span times per layer call, counts, each
   geacc module's self time, the part of the traced path no layer span
   covers, and the tracing overhead (traced minus untraced end-to-end
   time). It writes every span to [.geaccbench-out/].

   Exit status 1 on any correctness mismatch, 2 on bad arguments. *)

open Geacc_core
module Io = Geacc_io.Instance_io
module Synthetic = Geacc_datagen.Synthetic
module Trace_gen = Geacc_datagen.Trace_gen
module Meetup = Geacc_datagen.Meetup
module Measure = Geacc_util.Measure
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error
module Chain = Geacc_robust.Chain
module Graph = Geacc_flow.Graph
module Mcf = Geacc_flow.Mcf
module Trace = Geacc_serve.Trace
module Journal = Geacc_serve.Journal
module Snapshot = Geacc_serve.Snapshot
module Serve_state = Geacc_serve.Serve_state
module Admission = Geacc_serve.Admission
module Serve_loop = Geacc_serve.Serve_loop

(* -- Statistics ------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match Array.of_list (List.sort Float.compare xs) with
  | [||] -> 0.
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let mb bytes = float_of_int bytes /. 1048576.

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* -- Correctness gate ------------------------------------------------- *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Outputs that must repeat exactly for one seed — MaxSum bits, serve
   digests — keyed by what produced them. *)
let expected : (string, string) Hashtbl.t = Hashtbl.create 16

let check_same ~key ~what value =
  match Hashtbl.find_opt expected key with
  | None -> Hashtbl.replace expected key value
  | Some v -> if v <> value then fail "%s: %s is %s, expected %s" what key value v

let float_bits x = Printf.sprintf "%h" x

(* -- Files ------------------------------------------------------------ *)

let work_root = ".geaccbench-work"
let out_root = ".geaccbench-out"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let ensure_dir path = if not (Sys.file_exists path) then Unix.mkdir path 0o755
let dir_counter = ref 0

let fresh_dir work =
  incr dir_counter;
  let d = Filename.concat work (Printf.sprintf "state%d" !dir_counter) in
  remove_tree d;
  Unix.mkdir d 0o755;
  d

(* -- Metric names ----------------------------------------------------- *)

let end_to_end_units =
  [ ("setup_s", "s"); ("solve_s", "s"); ("peak_heap_mb", "MB"); ("maxsum_per_pair", "sim") ]

let per_layer_units =
  [
    ("flow.ssp_s", "s"); ("flow.augmentations", "count");
    ("flow.ssp_us_per_aug", "us"); ("flow.csr_s", "s");
    ("mcf.build_network_s", "s"); ("mcf.pair_arcs", "count");
    ("mcf.build_heap_mb", "MB"); ("mcf.bytes_per_pair", "B");
    ("mcf.resolve_s", "s"); ("mcf.dropped_pairs", "count");
    ("mcf.kept_ratio", "ratio"); ("io.parse_s", "s"); ("index.build_s", "s");
    ("index.stream_open_s", "s"); ("index.streams_opened", "count");
    ("core.greedy_s", "s"); ("core.validate_s", "s"); ("core.maxsum", "sim");
    ("core.pairs", "count"); ("serve.trace_parse_s", "s");
    ("serve.recover_s", "s"); ("serve.admission_s", "s");
    ("serve.journal_s", "s"); ("serve.fsync_s", "s"); ("serve.apply_s", "s");
    ("serve.repair_s", "s"); ("serve.repair_p95_ms", "ms");
    ("serve.commit_s", "s"); ("serve.snapshot_s", "s");
    ("serve.full_replays", "count"); ("serve.replayed_users", "count");
    ("serve.incremental_ratio", "ratio"); ("serve.snapshots", "count");
    ("serve.snapshot_bytes", "B"); ("serve.journal_bytes", "B");
    ("serve.batches_per_s", "1/s"); ("serve.batch_p50_ms", "ms");
    ("serve.batch_p95_ms", "ms"); ("serve.batch_samples", "count");
    ("self.geacc_io_s", "s"); ("self.geacc_index_s", "s");
    ("self.geacc_core_s", "s"); ("self.geacc_flow_s", "s");
    ("self.geacc_serve_s", "s"); ("trace.traced_s", "s");
    ("trace.untraced_s", "s"); ("trace.overhead_s", "s");
    ("trace.uncovered_s", "s"); ("failed_frac", "ratio");
  ]

(* -- Run control ------------------------------------------------------ *)

(* Inputs per run: each run arranges [inputs] independently generated
   inputs, so one unusual input moves a run's figures by a quarter of its
   effect. Input 0 is generated from the seed itself. *)
let inputs = 4
let input_seed ~seed j = if j = 0 then seed else (seed * 100) + j

(* Runs [step i] for i = 0, 1, ... while the next iteration, judged by the
   median iteration so far, ends within [seconds]; at least [at_least]
   iterations run. Each starts from a compacted heap. *)
let repeat ~seconds ~at_least step =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go i took =
    if i < at_least || Unix.gettimeofday () +. median took <= deadline then begin
      Gc.compact ();
      let (), t = time (fun () -> step i) in
      go (i + 1) (t :: took)
    end
  in
  go 0 []

(* Set-up is short next to arranging, so every iteration repeats it, each
   time after a full major collection, until it has taken [setup_budget_s]
   (at least 3, at most 100 times). Returns the last result and every
   time. *)
let setup_budget_s = 0.3

let repeat_setup f =
  let rec go n spent times =
    Gc.full_major ();
    let x, t = time f in
    let times = t :: times in
    if n + 1 >= 100 || (n + 1 >= 3 && spent +. t >= setup_budget_s) then (x, times)
    else go (n + 1) (spent +. t) times
  in
  go 0 0. []

(* -- Peak heap -------------------------------------------------------- *)

(* Peak heap is measured in a fresh process that parses input 0 and
   arranges it once: the major heap's high-water mark, with the collector
   set to space_overhead 10 so that the heap tracks the live data closely.
   The GC's pacing depends only on the allocation sequence, so the figure
   repeats exactly for one input, and no timed iteration shares its
   process. *)
let peak_child_flag = "--peak-child"

(* The serve workload's loop configuration: the defaults — incremental
   repair, fsync on, snapshot every 32 journal appends. *)
let serve_config dir = Serve_loop.default ~state_dir:dir

let peak_child args =
  Gc.set { (Gc.get ()) with Gc.space_overhead = 10 };
  (match args with
  | [ "serve"; path; dir ] -> (
      match Trace.read ~path with
      | Ok trace ->
          let log = open_out (Filename.concat dir "serve.log") in
          ignore (Serve_loop.run (serve_config dir) ~out:log trace);
          close_out log
      | Error _ -> exit 1)
  | [ alg; path ] -> (
      match Solver.of_string alg with
      | Ok a -> ignore (Anytime.solve ~algorithms:[ a ] (Io.read_instance ~path))
      | Error _ -> exit 1)
  | _ -> exit 2);
  Printf.printf "%d\n" ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
  exit 0

let peak_heap_mb args =
  let ic = Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: peak_child_flag :: args)) in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, int_of_string_opt line) with
  | Unix.WEXITED 0, Some bytes -> mb bytes
  | _ ->
      fail "peak-heap process failed";
      0.

(* -- Traced-run aggregation ------------------------------------------- *)

(* One traced iteration's numbers: span durations summed by name (key
   "<name>_s"), the counters, the self time of every span under the
   end-to-end root summed by geacc module ("self.<module>_s"), and the
   root's own self time — the part of the traced path that no layer span
   covers ("trace.uncovered_s"). *)
let layer_numbers ~root run =
  let spans = Span.of_run run in
  let t = Hashtbl.create 64 in
  let add k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k)) in
  List.iter (fun s -> add (s.Span.name ^ "_s") (Span.duration s)) spans;
  List.iter (fun (r, name, v) -> if r = run then add name v) !Span.counters;
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec in_root s =
    s.Span.name = root
    || match Hashtbl.find_opt by_id s.Span.parent with Some p -> in_root p | None -> false
  in
  List.iter
    (fun (s, self) ->
      if s.Span.name = root then add "trace.uncovered_s" self
      else add ("self." ^ Span.module_of s.Span.name ^ "_s") self)
    (Span.self_times (List.filter in_root spans));
  add "trace.traced_s" (Span.sum_named spans root);
  t

(* Mean over the inputs of each input's median: every input weighs the
   same however many iterations it got. *)
let mean_of_medians runs f =
  mean
    (List.filter_map
       (function [] -> None | rs -> Some (median (List.concat_map f rs)))
       (Array.to_list runs))

let get t k = Option.value ~default:0. (Hashtbl.find_opt t k)

(* Median over the traced iterations of every per-layer metric; [extra]
   supplies those computed across iterations. A metric the workload never
   exercises reads 0. *)
let per_layer_metrics tables extra =
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> median (List.map (fun t -> get t name) tables)
      in
      (name, v, unit))
    per_layer_units

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  info : (string * float * string) list;
      (** Printed for people, not part of the JSON result. *)
}

(* -- Solve workloads -------------------------------------------------- *)

type solve_workload = { algorithm : Solver.algorithm; config : Synthetic.config }

let mcf_zipf_1k =
  {
    algorithm = Solver.Min_cost_flow;
    config =
      { Synthetic.default with n_events = 200; n_users = 1000; attrs = Synthetic.Attr_zipf 1.3 };
  }

let greedy_uniform_20k =
  {
    algorithm = Solver.Greedy;
    config = { Synthetic.default with n_events = 200; n_users = 20_000 };
  }

let parse_instance path =
  match Io.read_instance_result ~path with
  | Ok inst -> inst
  | Error e -> failwith ("parse: " ^ Error.to_string e)

type solved = { setups : float list; solve_s : float; maxsum : float; pairs : int; ok : bool }

(* One untraced iteration: what [geacc solve -a <algorithm>] does — parse
   the instance file, run the anytime chain with the one algorithm — and
   the gate: Complete, [Validate.check]-clean, MaxSum bit-equal for the
   input. *)
let untraced_solve wl ~key path =
  let inst, setups = repeat_setup (fun () -> parse_instance path) in
  Gc.compact ();
  let result, solve_s = time (fun () -> Anytime.solve ~algorithms:[ wl.algorithm ] inst) in
  match result with
  | Error e ->
      fail "solve: %s" (Error.to_string e);
      { setups; solve_s; maxsum = 0.; pairs = 0; ok = false }
  | Ok rep ->
      let m = rep.Anytime.matching in
      let complete = rep.Anytime.status = Chain.Complete in
      if not complete then fail "solve: not Complete";
      let violations = Validate.check inst (Matching.pairs m) in
      if violations <> [] then fail "solve: %d Validate.check violations" (List.length violations);
      let failed_before = List.length !failures in
      check_same ~key ~what:"solve maxsum" (float_bits (Matching.maxsum m));
      {
        setups;
        solve_s;
        maxsum = Matching.maxsum m;
        pairs = Matching.size m;
        ok = complete && violations = [] && List.length !failures = failed_before;
      }

(* One traced iteration. The end-to-end root [bench.solve] holds the layer
   calls the solve makes, issued one by one from here — MinCostFlow:
   parse, index build, network build, CSR, SSP; Greedy: parse, index
   build, opening every node's neighbour stream, greedy on the warm
   streams. Conflict resolution has no public entry point, so
   [mcf.resolve_s] is derived: a separate [Mincostflow.solve_with_stats]
   call minus the index build, network build, CSR and SSP spans. Validation
   runs outside the root. *)
let traced_solve wl ~key path run =
  Span.start_run run;
  let augmentations = ref 0 in
  let inst, greedy =
    Span.record "bench.solve" (fun () ->
        let inst = Span.record "io.parse" (fun () -> parse_instance path) in
        Span.record "index.build" (fun () -> Instance.prepare_event_queries inst);
        match wl.algorithm with
        | Solver.Min_cost_flow ->
            let net = Span.record "mcf.build_network" (fun () -> Mincostflow.build_network inst) in
            let g = net.Mincostflow.graph in
            Span.record "flow.csr" (fun () -> Graph.finalize_csr g);
            let out =
              Span.record "flow.ssp" (fun () ->
                  Mcf.solve_int g ~source:net.Mincostflow.source ~sink:net.Mincostflow.sink
                    ~stop_below:Mincostflow.cost_scale ())
            in
            Span.count "mcf.pair_arcs" (float_of_int net.Mincostflow.pair_arcs);
            (match out with
            | None -> fail "traced: Mcf.solve_int left the exact integer regime"
            | Some o ->
                augmentations := o.Mcf.iaugmentations;
                Span.count "flow.augmentations" (float_of_int o.Mcf.iaugmentations));
            (inst, None)
        | _ ->
            Span.record "index.stream_open" (fun () ->
                for v = 0 to Instance.n_events inst - 1 do
                  ignore (Instance.event_neighbor inst ~v ~rank:1)
                done;
                for u = 0 to Instance.n_users inst - 1 do
                  ignore (Instance.user_neighbor inst ~u ~rank:1)
                done);
            let m = Span.record "core.greedy" (fun () -> Greedy.solve inst) in
            let ev, us = Instance.neighbor_work inst in
            Span.count "index.streams_opened" (float_of_int (ev + us));
            (inst, Some m))
  in
  let matching =
    match greedy with
    | Some m -> m
    | None ->
        let fresh = parse_instance path in
        let (m, stats), sws_s = time (fun () -> Mincostflow.solve_with_stats fresh) in
        let spans = Span.of_run run in
        let layers =
          sum
            (List.map (Span.sum_named spans)
               [ "index.build"; "mcf.build_network"; "flow.csr"; "flow.ssp" ])
        in
        Span.count "mcf.resolve_s" (sws_s -. layers);
        Span.count "mcf.dropped_pairs" (float_of_int stats.Mincostflow.dropped_pairs);
        Span.count "mcf.kept_ratio"
          (float_of_int (Matching.size m) /. float_of_int (max 1 stats.Mincostflow.flow_value));
        if !augmentations <> stats.Mincostflow.augmentations then
          fail "traced: SSP replay made %d augmentations, solve_with_stats %d" !augmentations
            stats.Mincostflow.augmentations;
        m
  in
  let violations =
    Span.record "core.validate" (fun () -> Validate.check inst (Matching.pairs matching))
  in
  if violations <> [] then fail "traced: %d Validate.check violations" (List.length violations);
  Span.count "core.maxsum" (Matching.maxsum matching);
  Span.count "core.pairs" (float_of_int (Matching.size matching));
  check_same ~key ~what:"traced maxsum" (float_bits (Matching.maxsum matching))

(* Heap retained by the MinCostFlow network, measured outside every timed
   region: live-heap growth across [build_network]. *)
let network_heap path =
  let inst = parse_instance path in
  let before = Measure.live_bytes () in
  let net = Mincostflow.build_network inst in
  let bytes = Measure.live_bytes () - before in
  (mb bytes, float_of_int bytes /. float_of_int (max 1 net.Mincostflow.pair_arcs))

let run_solve wl ~work ~seed ~seconds ~traced =
  let paths =
    Array.init inputs (fun j ->
        let path = Filename.concat work (Printf.sprintf "instance%d.geacc" j) in
        Io.write_instance ~path (Synthetic.generate ~seed:(input_seed ~seed j) wl.config);
        path)
  in
  let key j = Printf.sprintf "input%d" j in
  let runs = Array.make inputs [] in
  let untraced j =
    let r = untraced_solve wl ~key:(key j) paths.(j) in
    runs.(j) <- r :: runs.(j);
    r
  in
  let all () = List.concat (Array.to_list runs) in
  let failed () = List.length (List.filter (fun r -> not r.ok) (all ())) in
  if not traced then begin
    repeat ~seconds ~at_least:inputs (fun i -> ignore (untraced (i mod inputs)));
    let firsts = List.filter_map (function r :: _ -> Some r | [] -> None) (Array.to_list runs) in
    let alg = Solver.short_name wl.algorithm in
    let attempted = List.length (all ()) and failed = failed () in
    {
      attempted;
      failed;
      info =
        [
          ("maxsum", (List.hd firsts).maxsum, "sim");
          ("failed_frac", float_of_int failed /. float_of_int attempted, "ratio");
        ];
      metrics =
        [
          ("setup_s", mean_of_medians runs (fun r -> r.setups), "s");
          ("solve_s", mean_of_medians runs (fun r -> [ r.solve_s ]), "s");
          ("peak_heap_mb", peak_heap_mb [ alg; paths.(0) ], "MB");
          ( "maxsum_per_pair",
            sum (List.map (fun r -> r.maxsum) firsts)
            /. float_of_int (max 1 (List.fold_left (fun a r -> a + r.pairs) 0 firsts)),
            "sim" );
        ];
    }
  end
  else begin
    let tables = ref [] and untraced_e2e = ref [] and traced_failed = ref 0 in
    repeat ~seconds ~at_least:2 (fun i ->
        let r = untraced 0 in
        untraced_e2e := (List.hd r.setups +. r.solve_s) :: !untraced_e2e;
        let before = List.length !failures in
        traced_solve wl ~key:(key 0) paths.(0) i;
        if List.length !failures > before then incr traced_failed;
        tables := layer_numbers ~root:"bench.solve" i :: !tables);
    let heap =
      if wl.algorithm = Solver.Min_cost_flow then begin
        Gc.compact ();
        let heap_mb, per_pair = network_heap paths.(0) in
        [ ("mcf.build_heap_mb", heap_mb); ("mcf.bytes_per_pair", per_pair) ]
      end
      else []
    in
    let med k = median (List.map (fun t -> get t k) !tables) in
    let traced_e2e = median (List.map (fun t -> get t "trace.traced_s" +. get t "mcf.resolve_s") !tables) in
    let attempted = List.length (all ()) + List.length !tables in
    let failed = failed () + !traced_failed in
    let extra =
      heap
      @ [
          ( "flow.ssp_us_per_aug",
            if med "flow.augmentations" > 0. then 1e6 *. med "flow.ssp_s" /. med "flow.augmentations"
            else 0. );
          ("trace.traced_s", traced_e2e);
          ("trace.untraced_s", median !untraced_e2e);
          ("trace.overhead_s", traced_e2e -. median !untraced_e2e);
          ("failed_frac", float_of_int failed /. float_of_int attempted);
        ]
    in
    { attempted; failed; metrics = per_layer_metrics !tables extra; info = [] }
  end

(* -- Serve workload --------------------------------------------------- *)

(* The served trace is the longest prefix of the generated one that ends
   on a snapshot, so every restart recovers from a snapshot and an empty
   journal — the same recovery work whatever the seed. *)
let served_prefix (t : Trace.t) =
  let every = (serve_config "").Serve_loop.snapshot_every in
  let keep = List.length t.Trace.batches / every * every in
  { t with Trace.batches = List.filteri (fun i _ -> i < keep) t.Trace.batches }

let read_trace path =
  match Trace.read ~path with
  | Ok t -> t
  | Error e -> failwith ("trace: " ^ Error.to_string e)

let serve_run ~log dir trace =
  match Serve_loop.run (serve_config dir) ~out:log trace with
  | Ok r -> r
  | Error e -> failwith ("serve: " ^ Error.to_string e)

(* The arrangement's size: the pair count of the last acknowledged batch,
   read back from the loop's own output lines. *)
let last_pairs log_path =
  let ic = open_in log_path in
  let pairs = ref 0 in
  (try
     while true do
       let line = input_line ic in
       try Scanf.sscanf line "ok %d from %d pairs %d" (fun _ _ p -> pairs := p)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !pairs

type served = {
  run_s : float;
  restarts : float list;
  latencies : float list;
  rate : float;
  batches : int;
  bad : int;
  s_maxsum : float;
  s_pairs : int;
}

(* One untraced iteration: [Serve_loop.run] over the whole trace into a
   fresh state directory — a closed loop, one client replaying batches as
   fast as the loop acknowledges them — then restarts on the directory it
   left (trace parse plus recovery from its last snapshot) until the
   set-up budget is spent. Every restart must reach the run's digest. *)
let untraced_serve ~work ~key path =
  let dir = fresh_dir work in
  let log_path = Filename.concat work "serve.log" in
  let log = open_out log_path in
  let trace = read_trace path in
  Gc.compact ();
  let report, run_s = time (fun () -> serve_run ~log dir trace) in
  close_out log;
  let bad = report.Serve_loop.shed + report.Serve_loop.errors + report.Serve_loop.degraded_batches in
  if bad > 0 || Serve_loop.exit_status report <> 0 then
    fail "serve: %d shed, %d errors, %d degraded" report.Serve_loop.shed report.Serve_loop.errors
      report.Serve_loop.degraded_batches;
  check_same ~key ~what:"serve digest" report.Serve_loop.digest;
  let log = open_out (Filename.concat work "restart.log") in
  let (), restarts =
    repeat_setup (fun () ->
        let t = read_trace path in
        let r = serve_run ~log dir { t with Trace.batches = [] } in
        check_same ~key ~what:"recovered digest" r.Serve_loop.digest)
  in
  close_out log;
  remove_tree dir;
  {
    run_s;
    restarts;
    latencies = report.Serve_loop.latencies_s;
    rate = float_of_int report.Serve_loop.admitted /. run_s;
    batches = report.Serve_loop.batches;
    bad;
    s_maxsum = report.Serve_loop.maxsum;
    s_pairs = last_pairs log_path;
  }

type journal_op = Append of Trace.batch | Truncate

(* One traced iteration: the loop's steps issued one by one through the
   public layer calls — the admission plan per timestamp group, journal
   append (fsync on), apply, repair (suffix replay, or from 0 once the
   dirty suffix reaches the loop's threshold, as [Serve_loop] decides),
   commit, and every [snapshot_every] appends a snapshot and journal
   truncation — then a restart. Both must end at the untraced run's
   digest. Afterwards the same journal operations are replayed with fsync
   off, outside the root, to split [serve.fsync_s] out of
   [serve.journal_s]. *)
let traced_serve ~work ~key path run =
  Span.start_run run;
  let dir = fresh_dir work in
  let c = serve_config dir in
  let journal_path = Filename.concat dir "journal.wal" in
  let snapshot_path = Filename.concat dir "snapshot.geacc" in
  let ops = ref [] and snapshot_bytes = ref 0 in
  let log = open_out (Filename.concat work "traced.log") in
  let state =
    Span.record "bench.serve" (fun () ->
        let trace = Span.record "serve.trace_parse" (fun () -> read_trace path) in
        let state = Serve_state.create ~sim:trace.Trace.sim in
        let journal =
          Span.record "serve.journal" (fun () -> Journal.open_for_append ~path:journal_path ())
        in
        let since = ref 0 in
        let serve_batch (b : Trace.batch) =
          Span.record "serve.journal" (fun () ->
              Journal.append journal ~seq:b.Trace.seq ~payload:(Trace.batch_to_string b));
          ops := Append b :: !ops;
          incr since;
          (match Span.record "serve.apply" (fun () -> Serve_state.apply_batch state b) with
          | Error e -> fail "traced serve: apply %d: %s" b.Trace.seq (Error.to_string e)
          | Ok () ->
              let n = Serve_state.n_users state in
              let full =
                n > 0
                && float_of_int (n - Serve_state.dirty_from state)
                   >= c.Serve_loop.dirty_threshold *. float_of_int n
              in
              let r =
                Span.record "serve.repair" (fun () ->
                    Serve_state.repair
                      ?from:(if full then Some 0 else None)
                      state ~deadline:Budget.unlimited)
              in
              if not r.Serve_state.complete then fail "traced serve: repair incomplete";
              Span.record "serve.commit" (fun () -> Serve_state.commit state r);
              Span.count "serve.repairs" 1.;
              if r.Serve_state.replayed_from = 0 && n > 0 then Span.count "serve.full_replays" 1.;
              Span.count "serve.replayed_users" (float_of_int (n - r.Serve_state.replayed_from)));
          if !since >= c.Serve_loop.snapshot_every then begin
            Span.record "serve.snapshot" (fun () -> Snapshot.save ~path:snapshot_path state);
            snapshot_bytes := !snapshot_bytes + (Unix.stat snapshot_path).Unix.st_size;
            Span.record "serve.journal" (fun () -> Journal.truncate journal);
            ops := Truncate :: !ops;
            since := 0;
            Span.count "serve.snapshots" 1.
          end
        in
        List.iter
          (fun group ->
            let plan =
              Span.record "serve.admission" (fun () ->
                  Admission.plan ~queue_cap:c.Serve_loop.queue_cap ~degraded:false group)
            in
            List.iter
              (fun (b, d) ->
                match d with
                | Admission.Admit -> serve_batch b
                | Admission.Shed -> fail "traced serve: batch %d shed" b.Trace.seq)
              plan)
          (Trace.groups trace.Trace.batches);
        Span.record "serve.journal" (fun () -> Journal.close journal);
        let r =
          Span.record "serve.recover" (fun () ->
              serve_run ~log dir { trace with Trace.batches = [] })
        in
        check_same ~key ~what:"traced recovered digest" r.Serve_loop.digest;
        state)
  in
  close_out log;
  check_same ~key ~what:"traced digest" (Serve_state.digest state);
  Span.count "serve.snapshot_bytes" (float_of_int !snapshot_bytes);
  Span.count "core.maxsum" (Serve_state.maxsum state);
  Span.count "core.pairs" (float_of_int (List.length (Serve_state.pairs state)));
  let nofsync = Filename.concat dir "nofsync.wal" in
  let j = Journal.open_for_append ~fsync:false ~path:nofsync () in
  let journal_bytes = ref 0 in
  let nofsync_s =
    sum
      (List.rev_map
         (function
           | Append b ->
               snd
                 (time (fun () ->
                      Journal.append j ~seq:b.Trace.seq ~payload:(Trace.batch_to_string b)))
           | Truncate ->
               journal_bytes := !journal_bytes + (Unix.stat nofsync).Unix.st_size;
               snd (time (fun () -> Journal.truncate j)))
         !ops)
  in
  Journal.close j;
  Span.count "serve.journal_bytes" (float_of_int (!journal_bytes + (Unix.stat nofsync).Unix.st_size));
  let spans = Span.of_run run in
  Span.count "serve.fsync_s" (Span.sum_named spans "serve.journal" -. nofsync_s);
  Span.count "serve.repair_p95_ms"
    (1000. *. quantile (Span.durations_named spans "serve.repair") 0.95);
  remove_tree dir

let run_serve ~work ~seed ~seconds ~traced =
  let paths =
    Array.init inputs (fun j ->
        let path = Filename.concat work (Printf.sprintf "trace%d.txt" j) in
        Trace.write ~path
          (served_prefix
             (Trace_gen.generate ~seed:(input_seed ~seed j) ~city:Meetup.singapore
                ~arrivals_per_batch:1 ()));
        path)
  in
  let key j = Printf.sprintf "trace%d" j in
  let runs = Array.make inputs [] in
  let untraced j =
    let s = untraced_serve ~work ~key:(key j) paths.(j) in
    runs.(j) <- s :: runs.(j);
    s
  in
  let all () = List.concat (Array.to_list runs) in
  let attempted () = List.fold_left (fun a s -> a + s.batches) 0 (all ()) in
  let failed () = List.fold_left (fun a s -> a + s.bad) 0 (all ()) in
  let batch_metrics () =
    let lat = List.concat_map (fun s -> s.latencies) (all ()) in
    [
      ("serve.batches_per_s", median (List.map (fun s -> s.rate) (all ())));
      ("serve.batch_p50_ms", 1000. *. quantile lat 0.5);
      ("serve.batch_p95_ms", 1000. *. quantile lat 0.95);
      ("serve.batch_samples", float_of_int (List.length lat));
    ]
  in
  if not traced then begin
    repeat ~seconds ~at_least:inputs (fun i -> ignore (untraced (i mod inputs)));
    let firsts = List.filter_map (function s :: _ -> Some s | [] -> None) (Array.to_list runs) in
    let peak_dir = fresh_dir work in
    let attempted = attempted () and failed = failed () in
    {
      attempted;
      failed;
      info =
        ("maxsum", (List.hd firsts).s_maxsum, "sim")
        :: ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted), "ratio")
        :: List.map
             (fun (n, v) -> (n, v, List.assoc n per_layer_units))
             (batch_metrics ());
      metrics =
        [
          ("setup_s", mean_of_medians runs (fun s -> s.restarts), "s");
          ("solve_s", mean_of_medians runs (fun s -> [ s.run_s ]), "s");
          ("peak_heap_mb", peak_heap_mb [ "serve"; paths.(0); peak_dir ], "MB");
          ( "maxsum_per_pair",
            sum (List.map (fun s -> s.s_maxsum) firsts)
            /. float_of_int (max 1 (List.fold_left (fun a s -> a + s.s_pairs) 0 firsts)),
            "sim" );
        ];
    }
  end
  else begin
    let tables = ref [] and untraced_e2e = ref [] and traced_failed = ref 0 in
    repeat ~seconds ~at_least:2 (fun i ->
        let s = untraced 0 in
        untraced_e2e := (s.run_s +. List.hd s.restarts) :: !untraced_e2e;
        let before = List.length !failures in
        traced_serve ~work ~key:(key 0) paths.(0) i;
        if List.length !failures > before then incr traced_failed;
        tables := layer_numbers ~root:"bench.serve" i :: !tables);
    let med k = median (List.map (fun t -> get t k) !tables) in
    let attempted = attempted () + List.length !tables in
    let failed = failed () + !traced_failed in
    let extra =
      batch_metrics ()
      @ [
          ( "serve.incremental_ratio",
            median
              (List.map
                 (fun t -> 1. -. (get t "serve.full_replays" /. Float.max 1. (get t "serve.repairs")))
                 !tables) );
          ("trace.untraced_s", median !untraced_e2e);
          ("trace.overhead_s", med "trace.traced_s" -. median !untraced_e2e);
          ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted));
        ]
    in
    { attempted; failed; metrics = per_layer_metrics !tables extra; info = [] }
  end

(* -- Main ------------------------------------------------------------- *)

let workloads = [ "mcf-zipf-1k"; "greedy-uniform-20k"; "serve-singapore-fine" ]

let usage () =
  prerr_endline
    "usage: geaccbench --workload <mcf-zipf-1k|greedy-uniform-20k|serve-singapore-fine> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let () =
  (match Array.to_list Sys.argv with
  | _ :: flag :: args when flag = peak_child_flag -> peak_child args
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: (("0" | "1") as t) :: rest -> traced := t = "1"; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  ensure_dir work_root;
  let work = Filename.concat work_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  remove_tree work;
  Unix.mkdir work 0o755;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        remove_tree work;
        try Unix.rmdir work_root with Unix.Unix_error _ -> ())
      (fun () ->
        let seconds = !seconds and traced = !traced and seed = !seed in
        match !workload with
        | "mcf-zipf-1k" -> run_solve mcf_zipf_1k ~work ~seed ~seconds ~traced
        | "greedy-uniform-20k" -> run_solve greedy_uniform_20k ~work ~seed ~seconds ~traced
        | _ -> run_serve ~work ~seed ~seconds ~traced)
  in
  if !traced then begin
    ensure_dir out_root;
    Span.write
      ~path:(Filename.concat out_root (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed))
  end;
  List.iter (fun f -> prerr_endline ("geaccbench: correctness: " ^ f)) (List.rev !failures);
  List.iter (fun (n, v, u) -> Printf.printf "metric %-24s %14.6f %s\n" n v u) outcome.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "info   %-24s %14.6f %s\n" n v u) outcome.info;
  let correct = !failures = [] && outcome.failed = 0 in
  let units = if !traced then per_layer_units else end_to_end_units in
  let field (name, unit) =
    let v =
      match List.find_opt (fun (n, _, _) -> n = name) outcome.metrics with
      | Some (_, v, _) when Float.is_finite v -> v
      | _ -> 0.
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct outcome.attempted
    (if correct then 0 else max 1 outcome.failed)
    (String.concat ", " (List.map field units));
  if not correct then exit 1
