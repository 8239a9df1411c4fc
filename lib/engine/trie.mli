(** A trie over execution-tree paths with subtree counts and subtree
    weight sums: the one frontier container behind the local searchers
    (alive states) and the cluster worker (frontier, fence and ban sets).
    Random-path and weighted descents both cost O(depth × fan-out).

    Every payload carries a weight (0 unless given).  Counts and sums are
    recomputed from the children after every update, never adjusted by
    deltas, so an emptied trie's {!total} is exactly [0.0]. *)

type 'a t

(** A position in the trie.  A node whose payload was {!take}n may anchor
    an {!add} ([~at]) until the next [add] without [~at] or {!remove};
    adding under it relinks it if its subtree had emptied. *)
type 'a node

val create : unit -> 'a t

(** Number of payloads stored. *)
val size : 'a t -> int

(** Sum of the stored payloads' weights. *)
val total : 'a t -> float

(** Insert (or replace) the payload at a path below [at] (default: the
    root), with weight [weight] (default [0.0]). *)
val add : ?weight:float -> ?at:'a node -> 'a t -> Path.t -> 'a -> unit

val find : 'a t -> Path.t -> 'a option

(** Returns [true] when a payload was removed. *)
val remove : 'a t -> Path.t -> bool

val root : 'a t -> 'a node
val payload : 'a node -> 'a option

(** Remove and return the node's payload. *)
val take : 'a node -> 'a option

(** Random-path descent (KLEE's strategy): from the root, choose uniformly
    among the payload here and each non-empty child subtree.  Returns a
    node holding a payload, or the root of an empty trie.  Allocates
    nothing. *)
val random_pick : Random.State.t -> 'a t -> 'a node

(** Weighted descent: with the payload weights laid end to end in the
    order of {!fold}, the node whose span holds [target], for [target] in
    [\[0, total t)].  A target at or past the end clamps to the last
    payload of positive weight.  Returns the root when [total t = 0.0]. *)
val pick : 'a t -> target:float -> 'a node

(** Preorder: a node's payload, then its children's subtrees. *)
val fold : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Nodes plus edges of the trie skeleton — the byte size of a preorder
    serialization with one structure byte per node and one per edge. *)
val structure_size : 'a t -> int

(** Every node's count and weight sum equal their recomputation from
    scratch, and every node but the root holds a payload in its subtree
    (the property tests' invariant). *)
val well_formed : 'a t -> bool
