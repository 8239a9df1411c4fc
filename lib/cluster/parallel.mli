(** True-multicore cluster runtime: one OCaml domain per worker.

    Where {!Driver} simulates a Cloud9 deployment in virtual time (the
    deterministic reference), this runtime actually runs each
    {!Worker.t} — a real {!Engine.Executor} instance — on its own
    [Domain.t] and measures wall-clock scaling, the paper's headline
    result (Figs. 7–8).

    Workers exchange path-encoded jobs, transfer requests, and status
    reports through mutex+condition-protected bounded mailboxes.  The
    coordinator (the calling domain) feeds status reports to the
    existing {!Balancer} and owns the shared fault-tolerance core
    ({!Transport}): every job batch in flight is covered by a {!Ledger}
    lease, retransmitted until acknowledged and deduplicated by the
    receiver, so the runtime survives the same fault model as the
    simulation — Faultplan-driven domain crashes (crash-stop with
    amnesia, the victim observing an atomic crash flag at slice poll
    points), mid-run rejoins on a fresh domain, and seeded message
    loss / delay / duplication on the job wire.  Crashes recover
    exactly: the victim's last status report is its durable recovery
    point, orphaned leases are re-seeded on live workers, and handed-
    away nodes are banned, so a faulty run terminates with exactly the
    fault-free path and error totals — the differential gates
    [bench scaling] (fault-free) and [bench faults-parallel] (faulty)
    enforce.  A heartbeat failure detector (on for faulty plans only)
    declares busy workers that stop reporting, and a watchdog aborts a
    run without coordinator progress for 120 s with a state dump rather
    than hang.

    The runtime explores exhaustively ({!Driver.Exhaust}); dead slots
    are exempt from the quiescence predicate, so a run whose crashed
    workers never rejoin still terminates. *)

type 'env config = {
  ndomains : int;  (** worker domains (the coordinator runs on the caller) *)
  make_worker : int -> 'env Worker.t;
      (** called {e inside} worker [i]'s domain, so domain-local solver
          state (simplify memo, caches) is created where it is used *)
  faults : Faultplan.t;
      (** crash / rejoin / loss schedule, in coordinator ticks of 1 ms.
          The plan is validated against [ndomains] before the run
          starts; a faulty plan also turns the heartbeat failure
          detector on (a busy worker silent for 1 s is suspected, for
          2 s declared crashed). *)
  obs : Obs.Sink.t option;
      (** when set, the runtime profiles itself with wall-clock spans:
          mailbox waits, steal round-trips and (recovery) replays per
          worker domain, quiescence rounds on the coordinator (through
          a buffered lb-attributed view, flushed after all domains
          join); crash/rejoin/lease events are emitted the same way *)
}

val default_config :
  ?obs:Obs.Sink.t ->
  ?faults:Faultplan.t ->
  ndomains:int ->
  make_worker:(int -> 'env Worker.t) ->
  unit ->
  'env config

(** Both cluster runtimes report the same record. *)
type result = Outcome.t

(** Run to exhaustion on [ndomains] worker domains.  [coverable_lines]
    is the denominator of [final_coverage].  The result carries an empty
    frontier export when the run quiesced, and none when every worker
    died for good.

    @raise Invalid_argument when [ndomains < 1] or the fault plan fails
      {!Faultplan.validate}.
    @raise Failure when the watchdog fires (workers are crash-stopped
      and joined first, so the exception is clean). *)
val run : coverable_lines:int -> 'env config -> result
