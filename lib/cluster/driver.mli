(** Cluster driver: a discrete-event simulation of a Cloud9 deployment.

    The paper measures wall-clock time on an EC2 cluster; a single-machine
    reproduction cannot honestly run 48 workers concurrently, so time here
    is {e virtual}: each simulated worker embeds a real engine exploring
    the real execution tree, retires a per-tick instruction budget, and
    exchanges messages with simulated latency.  Everything the paper
    measures — time to goal, useful instructions, transfer rates, the
    effect of disabling the balancer — is preserved.  One tick nominally
    represents 100 ms.

    The [faults] plan may crash workers (optionally rejoining with a
    fresh engine), drop/duplicate/delay messages, and partition links.
    Job transfers are leased in the {!Ledger} and delivered at least
    once (ack + timeout + bounded retransmit with backoff, receiver-side
    deduplication); status reports are the reliable control plane and
    double as each worker's durable recovery point.  On a crash the
    driver credits the victim's last-reported counters and re-seeds its
    orphaned subtrees on live workers, so a faulty run completes with
    exactly the fault-free path and error totals. *)

type goal =
  | Exhaust                  (** stop when the global tree is explored *)
  | Coverage_target of float
  | Time_limit               (** run until [max_ticks] *)

type 'env config = {
  nworkers : int;
  make_worker : int -> 'env Worker.t;
  join_tick : int -> int;   (** when worker i joins the cluster *)
  speed : int -> int;       (** instructions per tick for worker i *)
  status_interval : int;    (** ticks between status updates to the LB *)
  latency : int;            (** message latency in ticks *)
  lb_disable_at : int option;  (** Fig. 13's mid-run disable *)
  goal : goal;
  max_ticks : int;
  bucket_ticks : int;       (** statistics bucket size *)
  coverable_lines : int;    (** denominator of global coverage *)
  faults : Faultplan.t;     (** crash / loss / partition schedule *)
  init_frontier : Job.t list option;
      (** campaign resume: seed these checkpointed frontier nodes on the
          first worker instead of the root job *)
  init_bans : Job.t list;   (** checkpointed ban set to re-install *)
  stop_after_instrs : int option;
      (** campaign preemption: once the cluster retires this many
          {e useful} instructions, stop granting execution budgets, let
          in-flight leases settle, and stop at the drained barrier with
          [export] filled.  Replay instructions (restoring a
          resumed frontier) are not charged, so every slice is
          guaranteed to advance exploration and chained slices
          terminate even when the replay bill exceeds the budget *)
}

(** Both cluster runtimes report the same record. *)
type result = Outcome.t

(** [obs] enables observability for the run: the driver advances the
    sink's virtual clock, samples one timeline point per live worker per
    tick (utilization, frontier depth, solver activity), and traces
    cluster control-plane events (joins, crashes, rejoins, job
    transfers); the ledger and balancer trace through the same sink.
    Workers built by [make_worker] are expected to carry
    [Obs.Sink.for_worker obs i] in their engine config so engine and
    solver events are attributed to them. *)
val run : ?obs:Obs.Sink.t -> 'env config -> result

(** A homogeneous cluster with sensible defaults (speed 2000, status every
    20 ticks, latency 2, exhaustive goal, no faults). *)
val default_config :
  ?faults:Faultplan.t ->
  nworkers:int ->
  make_worker:(int -> 'env Worker.t) ->
  coverable_lines:int ->
  unit ->
  'env config
