open Geacc_core
module Budget = Geacc_robust.Budget
module Chain = Geacc_robust.Chain
module Error = Geacc_robust.Error
module Fault = Geacc_robust.Fault

type health = Healthy | Degraded | Draining

let health_name = function
  | Healthy -> "ok"
  | Degraded -> "degraded"
  | Draining -> "draining"

type config = {
  state_dir : string;
  dirty_threshold : float;
  batch_timeout_s : float;
  queue_cap : int;
  snapshot_every : int;
  max_retries : int;
  backoff_s : float;
  fsync : bool;
}

let default ~state_dir =
  {
    state_dir;
    dirty_threshold = 0.5;
    batch_timeout_s = 0.;
    queue_cap = 64;
    snapshot_every = 32;
    max_retries = 2;
    backoff_s = 0.;
    fsync = true;
  }

type report = {
  batches : int;
  admitted : int;
  shed : int;
  skipped : int;
  applied : int;
  errors : int;
  degraded_batches : int;
  full_replays : int;
  snapshots : int;
  retries : int;
  replayed : int;
  latencies_s : float list;
  health : health;
  digest : string;
  maxsum : float;
  seq : int;
}

let exit_status r =
  if r.errors > 0 then 1
  else if r.degraded_batches > 0 || r.shed > 0 then 3
  else 0

let journal_path c = Filename.concat c.state_dir "journal.wal"
let snapshot_path c = Filename.concat c.state_dir "snapshot.geacc"

let ensure_dir path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

(* -- Repair ------------------------------------------------------------ *)

(* The serving arrangement is canonical (Online greedy in id order), so the
   incremental stage and the full stage compute the same pairs — the chain
   only decides how much gets replayed and what happens under deadline
   pressure or injected faults. *)

let chain_repair c state ~timeout_s =
  let n = Serve_state.n_users state in
  let from = Serve_state.dirty_from state in
  let want_full =
    n > 0 && float_of_int (n - from) >= c.dirty_threshold *. float_of_int n
  in
  let stage name from =
    Chain.stage ~name (fun state ~budget ->
        let r = Serve_state.repair ?from state ~deadline:budget in
        { Chain.value = r; complete = r.Serve_state.complete })
  in
  let stages =
    if want_full then [ stage "repair-full" (Some 0) ]
    else [ stage "repair" None; stage "repair-full" (Some 0) ]
  in
  let better (a : Serve_state.repair) (b : Serve_state.repair) =
    match (a.Serve_state.matching, b.Serve_state.matching) with
    | Some ma, Some mb ->
        Matching.maxsum_recomputed mb > Matching.maxsum_recomputed ma
    | None, Some _ -> true
    | _, None -> false
  in
  Chain.run ?timeout_s ~max_retries:c.max_retries ~backoff_s:c.backoff_s
    ~better stages state

(* -- Startup recovery ------------------------------------------------- *)

(* What recovery hands the loop, beyond the state itself: [replayed]
   journal records were applied (or re-rejected) beyond the snapshot;
   [journaled_seq] is the highest sequence number present in the journal —
   a rejected batch is journaled without advancing the applied seq, so the
   freshness floor must be the max of the two or a restart would append
   the same seq twice and poison the journal's monotonicity check;
   [backlog] is the total record count still in the journal, seeding the
   append-based snapshot cadence so a crash-restart cycle cannot let the
   journal grow without bound. *)

let recover c ~sim =
  ensure_dir c.state_dir;
  let state =
    if Snapshot.exists ~path:(snapshot_path c) then
      Snapshot.load ~path:(snapshot_path c)
    else Ok (Serve_state.create ~sim)
  in
  match state with
  | Error _ as e -> e
  | Ok state -> (
      match Journal.recover ~path:(journal_path c) () with
      | Error _ as e -> e
      | Ok { Journal.records; torn_bytes = _ } ->
          let journaled_seq =
            List.fold_left
              (fun acc (r : Journal.record) -> max acc r.Journal.seq)
              0 records
          in
          let backlog = List.length records in
          let rec replay n = function
            | [] -> Ok (state, n, journaled_seq, backlog)
            | (r : Journal.record) :: rest ->
                if r.Journal.seq <= Serve_state.seq state then replay n rest
                else (
                  match Trace.parse_batch r.Journal.payload with
                  | Error _ as e -> e
                  | Ok batch ->
                      (match Serve_state.apply_batch state batch with
                      | Error _ ->
                          (* The live run journaled this batch, then rejected
                             it; replay rejects it identically. *)
                          ()
                      | Ok () -> (
                          match chain_repair c state ~timeout_s:None with
                          | Ok o -> Serve_state.commit state o.Chain.value
                          | Error _ ->
                              (* No deadline is armed during recovery, so the
                                 chain can only fail through injected faults;
                                 leave the batch uncommitted — the dirty bound
                                 carries it into the next repair. *)
                              ()));
                      replay (n + 1) rest)
          in
          replay 0 records)

(* -- The loop --------------------------------------------------------- *)

let run c ~out trace =
  match recover c ~sim:trace.Trace.sim with
  | Error _ as e -> e
  | Ok (state, replayed, journaled_seq, backlog) ->
      let p fmt = Printf.ksprintf (fun s -> output_string out (s ^ "\n")) fmt in
      p "start seq %d journal %d digest %s" (Serve_state.seq state) replayed
        (Serve_state.digest state);
      let journal =
        Journal.open_for_append ~fsync:c.fsync ~path:(journal_path c) ()
      in
      let timeout_s =
        if c.batch_timeout_s > 0. then Some c.batch_timeout_s else None
      in
      let health = ref Healthy in
      (* Freshness floor: a batch is new only if its seq is above every seq
         already in the journal, not just the applied seq — rejected batches
         journal without applying, and re-journaling one would break the
         journal's strict monotonicity on the next recovery. *)
      let journaled = ref (max journaled_seq (Serve_state.seq state)) in
      (* Snapshot cadence counts journal appends (seeded with the recovered
         backlog), so rejected and repair-failing batches still drive the
         journal toward its next truncation. *)
      let since_snapshot = ref backlog in
      let admitted = ref 0
      and shed = ref 0
      and skipped = ref 0
      and applied = ref 0
      and errors = ref 0
      and degraded_batches = ref 0
      and full_replays = ref 0
      and snapshots = ref 0
      and retries = ref 0 in
      let latencies = ref [] in
      let maybe_snapshot seq =
        if c.snapshot_every > 0 && !since_snapshot >= c.snapshot_every then begin
          Snapshot.save ~path:(snapshot_path c) state;
          Journal.truncate journal;
          since_snapshot := 0;
          Fault.inject "serve.crash";
          incr snapshots;
          p "snapshot %d" seq
        end
      in
      let stats_line seq =
        p "stats %d health %s users %d/%d events %d/%d conflicts %d pairs %d \
           maxsum %g"
          seq
          (health_name !health)
          (Serve_state.live_users state)
          (Serve_state.n_users state)
          (Serve_state.live_events state)
          (Serve_state.n_events state)
          (Serve_state.n_conflicts state)
          (List.length (Serve_state.pairs state))
          (Serve_state.maxsum state)
      in
      let serve_batch (batch : Trace.batch) =
        let t0 = Budget.now_s () in
        Journal.append journal ~seq:batch.Trace.seq
          ~payload:(Trace.batch_to_string batch);
        journaled := batch.Trace.seq;
        incr since_snapshot;
        Fault.inject "serve.crash";
        (match Serve_state.apply_batch state batch with
        | Error e ->
            incr errors;
            p "error %d %s" batch.Trace.seq (Error.to_string e)
        | Ok () -> (
            incr applied;
            match chain_repair c state ~timeout_s with
            | Error e ->
                (* Nothing usable before the deadline (or every stage
                   faulted): the batch stays applied but unserved; the
                   dirty bound rolls into the next batch's repair. *)
                incr degraded_batches;
                health := Degraded;
                p "degraded %d served %d/%d reason %s" batch.Trace.seq
                  (Serve_state.cursor state)
                  (Serve_state.n_users state)
                  (Error.to_string e)
            | Ok
                {
                  Chain.value = repair;
                  status;
                  reason;
                  retries = stage_retries;
                  _;
                } -> (
                (match repair.Serve_state.matching with
                | Some m -> Validate.audit_matching ~site:"serve.commit" m
                | None -> ());
                Serve_state.commit state repair;
                retries := !retries + stage_retries;
                if
                  repair.Serve_state.replayed_from = 0
                  && Serve_state.n_users state > 0
                then incr full_replays;
                Fault.inject "serve.crash";
                match status with
                | Chain.Complete ->
                    health := Healthy;
                    p "ok %d from %d pairs %d maxsum %g" batch.Trace.seq
                      repair.Serve_state.replayed_from
                      (List.length (Serve_state.pairs state))
                      (Serve_state.maxsum state)
                | Chain.Degraded ->
                    incr degraded_batches;
                    health := Degraded;
                    p "degraded %d served %d/%d reason %s" batch.Trace.seq
                      (Serve_state.cursor state)
                      (Serve_state.n_users state)
                      (Option.value reason ~default:"deadline"));
            if
              List.exists
                (fun op -> op = Trace.Stats)
                batch.Trace.ops
            then stats_line batch.Trace.seq));
        (* On every path — rejected batches were journaled too, and the
           cadence must truncate that growth as well. A rejected batch
           leaves the state untouched, so the snapshot is consistent. *)
        maybe_snapshot batch.Trace.seq;
        latencies := (Budget.now_s () -. t0) :: !latencies
      in
      List.iter
        (fun group ->
          let fresh, old =
            List.partition
              (fun (b : Trace.batch) -> b.Trace.seq > !journaled)
              group
          in
          skipped := !skipped + List.length old;
          if fresh <> [] then
            List.iter
              (fun ((batch : Trace.batch), decision) ->
                match decision with
                | Admission.Shed ->
                    incr shed;
                    p "shed %d %s" batch.Trace.seq
                      (Trace.tier_name batch.Trace.tier)
                | Admission.Admit ->
                    incr admitted;
                    serve_batch batch)
              (Admission.plan ~queue_cap:c.queue_cap
                 ~degraded:(!health = Degraded) fresh))
        (Trace.groups trace.Trace.batches);
      health := Draining;
      Journal.close journal;
      let digest = Serve_state.digest state in
      p "done seq %d applied %d degraded %d shed %d errors %d digest %s"
        (Serve_state.seq state) !applied !degraded_batches !shed !errors digest;
      Ok
        {
          batches = List.length trace.Trace.batches;
          admitted = !admitted;
          shed = !shed;
          skipped = !skipped;
          applied = !applied;
          errors = !errors;
          degraded_batches = !degraded_batches;
          full_replays = !full_replays;
          snapshots = !snapshots;
          retries = !retries;
          replayed;
          latencies_s = List.rev !latencies;
          health = !health;
          digest;
          maxsum = Serve_state.maxsum state;
          seq = Serve_state.seq state;
        }
