(** Query orchestration: simplification, constraint-independence slicing,
    satisfiability cache, and counterexample (model) cache on top of the
    bit blaster and CDCL SAT core — the same solver stack structure
    KLEE/Cloud9 rely on.  Each optimization can be disabled at construction
    for ablation experiments. *)

type result = Sat of Model.t | Unsat

type stats = {
  mutable queries : int;     (** total satisfiability questions asked *)
  mutable trivial : int;     (** answered by simplification alone *)
  mutable range_hits : int;  (** answered by interval analysis *)
  mutable cache_hits : int;  (** answered by the satisfiability cache *)
  mutable cex_hits : int;    (** answered by probing a cached model *)
  mutable sat_calls : int;   (** full bit-blast + SAT runs *)
}

(** Counters of the incremental SAT path (all zero when
    [use_incremental:false]).  [group_hits] counts constraints whose
    clause group was already blasted into the live persistent instance —
    a reused group contributes zero new clauses to its query. *)
type inc_stats = {
  mutable assumption_solves : int;
      (** SAT calls answered by an assumption solve on the persistent
          instance (vs. a fresh bit-blast) *)
  mutable group_hits : int;
  mutable group_misses : int;
  mutable retirements : int;
      (** persistent instances discarded — by {!clear_caches} or the
          instance-growth cap *)
}

type t

(** [obs] attaches an observability sink: every answered query bumps a
    per-tier [solver_queries] counter (handles resolved here, once) and
    emits a {!Obs.Event.Solver_query} trace event; it also registers the
    hashcons shard-lock stats provider on the sink (idempotent).
    [prof] additionally enables wall-clock query profiling: every
    answered query closes a [latency_ns{kind=solver_query,tier=...}]
    span chained from the entry point (fused fork queries attribute
    shared simplify/slice work to the first polarity). *)
val create :
  ?use_sat_cache:bool ->
  ?use_cex_cache:bool ->
  ?use_independence:bool ->
  ?use_range:bool ->
  ?use_incremental:bool ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  unit ->
  t

val stats : t -> stats

(** Immutable snapshot of the live counters. *)
val copy_stats : t -> stats

(** Live counters of the incremental SAT path (see {!inc_stats}). *)
val inc_stats : t -> inc_stats

(** Immutable snapshot of {!inc_stats}. *)
val copy_inc_stats : t -> inc_stats

(** CDCL counters of the live persistent instance ([None] when disabled
    or not yet built / retired). *)
val inc_sat_stats : t -> Sat.stats option

val zero_stats : unit -> stats

(** [accum_stats acc src] adds [src]'s counters into [acc] (for
    aggregating per-worker solvers into a cluster total). *)
val accum_stats : stats -> stats -> unit

(** Drop all caches {e and} retire the persistent incremental instance;
    models transferred to another worker lose their source's caches and
    must never solve against the source's stale activation groups (paper
    section 6, "Constraint Caches"). *)
val clear_caches : t -> unit

(** Is the conjunction satisfiable?  On [Sat], the model covers every
    symbol mentioned in the constraints. *)
val check : t -> Expr.t list -> result

(** [branch_feasible t ~pc cond]: is [pc /\ cond] satisfiable?  Requires
    the invariant that [pc] alone is satisfiable (true for every live
    execution state); under it, independence slicing seeded by [cond] is
    sound.  Re-normalizes the whole [pc] per call: it is the raw-pc
    reference for {!branch_feasible_norm}/{!fork_feasible}, which answer
    the same query over an already normalized pc (e.g. [State.npc]). *)
val branch_feasible : t -> pc:Expr.t list -> Expr.t -> bool

(** Same query over a pre-normalized path condition [npc] (each member
    simplified, no trivially-true members, e.g. the incrementally
    maintained [State.npc]); only [cond] is normalized.  [boxes] are the
    pc's interval facts if the caller carries them; omitted, they are
    recomputed from [npc]. *)
val branch_feasible_norm :
  t -> npc:Expr.t list -> ?boxes:Range.boxes -> Expr.t -> bool

(** [fork_feasible t ~npc ?boxes cond] answers
    [(branch_feasible cond, branch_feasible (not cond))] in one entry
    point: the condition is simplified once and the interval boxes and
    independence slice are shared between the two polarities.  Each
    polarity still counts as one query in {!stats} (with exactly one tier
    hit), so reconciliation invariants are unchanged. *)
val fork_feasible :
  t -> npc:Expr.t list -> ?boxes:Range.boxes -> Expr.t -> bool * bool

(** [must_be_true t ~pc cond] holds when [pc -> cond] is valid. *)
val must_be_true : t -> pc:Expr.t list -> Expr.t -> bool

(** Alias of {!check}, used when a full test-case model is wanted. *)
val get_model : t -> Expr.t list -> result

(** Like {!check}, but the returned model depends only on the canonical
    constraint set — never on query history — so every worker computes the
    same model for the same path condition.  Required for replay-stable
    concretization (paper section 6). *)
val check_deterministic : t -> Expr.t list -> result

(** Refresh the cache-size / hashcons gauges on the attached obs sink (a
    no-op without one).  Also runs automatically every few hundred
    answered queries. *)
val sample_gauges : t -> unit
