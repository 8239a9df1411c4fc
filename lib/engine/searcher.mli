(** Exploration strategies: which candidate state to execute next.

    All searchers share one interface and support removal by path (a
    state's path is its unique key).  [random-path], [cov-opt] and
    [interleaved] are one weighted frontier ({!Trie}) that differs only in
    which descent each selection uses. *)

type 'env t = {
  add : 'env State.t -> unit;
  select : unit -> 'env State.t option;  (** removes the selected state *)
  remove : Path.t -> unit;
  size : unit -> int;
  pending : unit -> int;
      (** Diagnostic: entries in the internal ordering structure, including
          stale ones awaiting compaction; equals [size] for searchers
          without lazy deletion.  Tests assert stale entries stay bounded
          relative to the live population. *)
}

val dfs : unit -> 'env t
val bfs : unit -> 'env t

(** The paper's evaluation default: KLEE's random-path strategy (walk the
    execution tree from the root, picking uniformly among a node's own
    state and its non-empty subtrees) alternating with coverage-optimized
    weighted selection ({!State.weight}). *)
val default : rng:Random.State.t -> unit -> 'env t

(** The strategy names {!of_name} accepts, in documentation order. *)
val names : string list

(** By name: "dfs", "bfs", "random-path", "cov-opt",
    "interleaved"/"default".
    @raise Invalid_argument on unknown names (the message lists the
    valid ones). *)
val of_name : rng:Random.State.t -> string -> 'env t
