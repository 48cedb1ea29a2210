(** The [geacc serve] engine: a crash-safe loop over timestamped batches.

    For every admitted batch the loop (1) appends the batch to the
    write-ahead journal and fsyncs — the durability point — then (2)
    applies it to the state, (3) repairs the arrangement under the batch
    deadline through a [Geacc_robust.Chain] (incremental suffix replay
    first, full replay as fallback; transient faults retried with
    backoff), (4) commits and acknowledges, and (5) once [snapshot_every]
    journal appends have accumulated since the last truncation (recovered
    backlog included) snapshots the state and truncates the journal — the
    cadence counts appends, not applied batches, so rejected and
    repair-failing batches cannot grow the journal without bound. Startup
    recovery loads the snapshot (if any), replays the journal suffix —
    skipping records at or below the snapshot's sequence number and
    re-rejecting invalid batches exactly as the live run did — and repairs
    with an unlimited budget, so a crashed-and-recovered run reaches the
    same digest as an uninterrupted one. Input batches are admitted only
    above the highest {e journaled} sequence number (not merely the
    highest applied one): a rejected batch is journaled without advancing
    the applied seq, and journaling it again on restart would violate the
    journal's strict seq monotonicity.

    Crash checkpoints ([serve.crash@N] kills the N-th): after the journal
    append, after the in-memory commit (pre-ack), around the snapshot
    rename (two, inside [Snapshot.save]) and after the journal truncate.
    [io.short_write] additionally crashes mid-append with a torn record.
    These exceptions propagate out of {!run} — the process {e is} the
    crash site; the recovery fuzz re-runs {!run} against the surviving
    state directory.

    Health: [Healthy] until a batch cannot be completed in time, [Degraded]
    until a batch again completes fully (while degraded, admission sheds
    every [Optional] batch), [Draining] once the input is exhausted. *)

type health = Healthy | Degraded | Draining

val health_name : health -> string
(** ["ok"] / ["degraded"] / ["draining"]. *)

type config = {
  state_dir : string;  (** Holds [journal.wal] and [snapshot.geacc]. *)
  dirty_threshold : float;
      (** Fraction of users: when the dirty suffix reaches it, skip the
          incremental stage and replay from 0 directly (default 0.5). The
          two stages produce the same pairs, so this only trades a long
          suffix walk for a cheaper full replay. *)
  batch_timeout_s : float;  (** Per-batch deadline; [<= 0] = unlimited. *)
  queue_cap : int;  (** Admission bound per timestamp group. *)
  snapshot_every : int;
      (** Snapshot cadence in journal appends since the last truncation;
          [<= 0] = never. *)
  max_retries : int;  (** Chain retries for transient faults. *)
  backoff_s : float;
  fsync : bool;  (** [false] trades durability for journal speed. *)
}

val default : state_dir:string -> config
(** Threshold 0.5, no deadline, queue cap 64, snapshot
    every 32 journal appends, 2 retries, no backoff, fsync on. *)

type report = {
  batches : int;  (** Batches in the input trace. *)
  admitted : int;
  shed : int;
  skipped : int;  (** Already journaled before this run (recovery overlap). *)
  applied : int;
  errors : int;  (** Batches rejected by validation. *)
  degraded_batches : int;
  full_replays : int;  (** Committed repairs that replayed from 0. *)
  snapshots : int;
  retries : int;
  replayed : int;  (** Journal records replayed during startup recovery. *)
  latencies_s : float list;
      (** Per-admitted-batch wall seconds, in batch order. *)
  health : health;
  digest : string;
  maxsum : float;
  seq : int;
}

val exit_status : report -> int
(** 0 clean; 3 when anything was degraded or shed (the structured-error
    contract's degraded code); 1 when any batch errored. *)

val run :
  config -> out:out_channel -> Trace.t -> (report, Geacc_robust.Error.t) result
(** Recovers, serves the trace, drains. Emits one line per event on [out]:
    [start], [ok], [degraded], [shed], [error], [stats], [snapshot] and a
    final [done] line (all deterministic — no wall-clock values). [Error]
    is reserved for unrecoverable startup failures: unreadable or corrupt
    snapshot/journal. Crash-injection exceptions propagate. *)
