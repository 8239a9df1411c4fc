(** Line-coverage bit vectors: bit [l mod 8] of byte [l / 8] is set once
    source line [l] has executed.  Engines, the load balancer, both
    cluster runtimes and the campaign service all union, count and
    divide such vectors through this module. *)

(** [union_into dst src] ORs [src] into [dst] over their common length. *)
val union_into : Bytes.t -> Bytes.t -> unit

(** A fresh vector as long as the longest input, holding their OR. *)
val union : Bytes.t list -> Bytes.t

(** Number of set bits. *)
val popcount : Bytes.t -> int

(** [covered / coverable].  A program without coverable lines counts as
    fully covered: [1.0]. *)
val ratio : coverable:int -> int -> float

(** [ratio ~coverable (popcount v)]. *)
val fraction : coverable:int -> Bytes.t -> float
