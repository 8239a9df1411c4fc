(** A campaign: one target × strategy × budget submitted to the testing
    service, advanced in preemptible slices (simulated runtime) or one
    non-preemptible turn (multicore runtime).  The mutable half is what
    {!Snapshot} persists. *)

type runtime =
  | Sim  (** simulated cluster; preemptible and checkpointable mid-flight *)
  | Parallel of int  (** real domains; runs to completion in one turn *)

type spec = {
  sp_name : string;
  sp_target : string;            (** {!Core.Registry} target name *)
  sp_variant : string option;
  sp_runtime : runtime;
  sp_workers : int;
  sp_speed : int;
  sp_max_steps : int;
  sp_seed : int;
  sp_slice_instrs : int option;  (** per-campaign slice-budget override *)
}

type status = Queued | Running | Paused | Done | Cancelled

val status_to_string : status -> string
val status_of_string : string -> (status, string) result

type t = {
  spec : spec;
  mutable status : status;
  mutable paths : int;
  mutable errors : int;
  mutable useful : int;
  mutable replay : int;
  mutable transfers : int;
  mutable slices : int;
  mutable started : bool;   (** [false] = next slice seeds the root job *)
  mutable frontier : Engine.Path.t list;
  mutable bans : Engine.Path.t list;
  mutable coverage : Bytes.t;
  mutable coverable : int;
  mutable coverage_frac : float;
}

val create : spec -> t

(** The scheduler may hand it a slice (Queued or Running). *)
val runnable : t -> bool

(** OR a turn's union coverage vector into the cumulative one. *)
val or_coverage : t -> Bytes.t -> unit

(** Recompute [coverage_frac] ({!Engine.Coverage.fraction}) once the
    campaign has started. *)
val recompute_coverage_frac : t -> unit

(** Fold one turn in — a simulated slice or a one-shot multicore run:
    counters, coverage vector, and the exported frontier and bans.
    [Error] when the run stopped short of a drained barrier (no
    export).  An empty exported frontier marks the campaign [Done]. *)
val apply : t -> Cluster.Outcome.t -> coverable:int -> (unit, string) result

(** Resume point for the next slice; [None] = seed the root. *)
val resume_export : t -> Cluster.Outcome.frontier_export option

(** Control-plane summary row. *)
val summary : t -> Obs.Json.t
