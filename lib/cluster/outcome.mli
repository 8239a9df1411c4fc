(** What a cluster run reports, whichever runtime ran it.  The simulated
    {!Driver} and the multicore {!Parallel} both return {!t}, built by
    {!make} from the workers' {!Worker.tally}s and the {!Transport}
    credits. *)

(** Everything a campaign persists, besides the counters and coverage of
    {!t}, to resume a run and reach the exact totals of an uninterrupted
    one: the unexplored frontier as job path encodings (each node exactly
    once, captured at a drained barrier) and the cumulative ban set. *)
type frontier_export = {
  fx_jobs : Job.t list;
  fx_bans : Job.t list;
}

(** Statistics of one bucket of virtual ticks (simulated runs only). *)
type bucket = {
  b_start_tick : int;
  mutable transferred : int;
  mutable candidates : int;  (** averaged over the bucket's ticks *)
  mutable cand_sum : int;
  mutable cand_samples : int;
  mutable useful : int;  (** cumulative useful instructions at bucket end *)
  mutable coverage : float;  (** global coverage fraction at bucket end *)
}

type t = {
  ticks : int;  (** virtual ticks ({!Driver}) or coordinator ticks of ~1 ms ({!Parallel}) *)
  reached_goal : bool;
  total_paths : int;
  total_errors : int;
  useful_instrs : int;
  replay_instrs : int;
  broken_replays : int;
  recovery_replay_instrs : int;  (** replay cost of reconstructing orphans *)
  jobs_sent : int;
  jobs_received : int;
  transfers : int;  (** jobs moved between workers *)
  steals : int;  (** transfer requests issued by the balancer *)
  crashes : int;  (** plan victims, heartbeat declarations and lease evictions *)
  recovered_jobs : int;  (** orphaned jobs re-seeded from ledger copies *)
  retransmits : int;  (** job batches resent after an ack timeout *)
  coverage_vector : Bytes.t;  (** union of every engine's line bit vector *)
  final_coverage : float;  (** {!Engine.Coverage.fraction} of [coverage_vector] *)
  per_worker_useful : (int * int) list;  (** live workers only *)
  solver_stats : Smt.Solver.stats;  (** aggregate, crashed workers included *)
  per_worker_solver : (int * Smt.Solver.stats) list;  (** live workers only *)
  buckets : bucket list;  (** oldest first; empty for {!Parallel} runs *)
  export : frontier_export option;
      (** present iff the run stopped at a drained barrier (exhaustion,
          or a simulated run's budget preemption) *)
}

(** [live] holds the tallies of the workers alive at the end, by id;
    [dead] those of crashed workers.  Live workers count their own
    paths and errors, crashed ones are credited from their last ledger
    report by [transport]; instructions, solver stats and coverage count
    every engine.  [frontier] is the unexplored frontier at a drained
    barrier, [None] when the run did not stop at one. *)
val make :
  transport:Transport.t ->
  live:(int * Worker.tally) list ->
  dead:Worker.tally list ->
  coverable:int ->
  ticks:int ->
  reached_goal:bool ->
  transfers:int ->
  steals:int ->
  buckets:bucket list ->
  frontier:Job.t list option ->
  t
