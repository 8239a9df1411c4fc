(** Test-case generation: solving a terminated path's condition yields
    concrete bytes for every symbolic input — a regular test driving the
    program down that exact path. *)

type t = {
  termination : Errors.termination;
  inputs : (string * string) list;  (** input name -> concrete bytes *)
  path : Path.t;
  steps : int;
  pc_size : int;  (** number of non-trivial path constraints *)
}

(** Solve the state's path condition and materialize each named input.
    [None] only if the path condition is unsatisfiable (an engine bug:
    explored paths are feasible by construction). *)
val of_state : Smt.Solver.t -> 'env State.t -> Errors.termination -> t option

val pp_bytes : Format.formatter -> string -> unit
val pp : Format.formatter -> t -> unit
