(** Associative aggregate accumulators for the §3.6 grouped query
    shapes.

    An accumulator is a partial aggregate that merges associatively:
    answers folded from cached tuples, per-shard partials in the
    router, and the brute-force oracle all fold tuples into the same
    representation, so streamed and ground-truth results can be
    compared for exact equality after {!finalize}.

    AVG is never finalized early — the accumulator carries SUM and
    COUNT separately (averaging two per-shard averages is wrong unless
    the group sizes match), and the division happens only in
    {!finalize}. Integer SUM/COUNT stay exact [int]s so oracle
    equality is not at the mercy of float rounding. *)

open Minirel_storage

type spec =
  | Count  (** [count] over all rows *)
  | Count_of of int  (** [count] of one attribute at an expanded result position *)
  | Sum of int
  | Avg of int  (** carried as SUM + COUNT; divided only at finalize *)
  | Min of int
  | Max of int

val arg_pos : spec -> int option
(** The expanded-result position the aggregate reads, if any. *)

val name : spec -> string
(** Short name ("count", "sum", ...) for headers and telemetry. *)

type acc = {
  mutable n : int;  (** non-null inputs folded in *)
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable mn : Value.t option;
  mutable mx : Value.t option;
}

val create : unit -> acc

val add : spec -> acc -> Tuple.t -> unit
(** Fold one expanded result tuple into the accumulator. *)

val merge : acc -> acc -> unit
(** [merge dst src] folds [src] into [dst]. Associative and
    commutative, so shard partials merge in any order. *)

val finalize : spec -> acc -> Value.t
(** Count -> [Int n]; Sum -> exact [Int] unless a float was folded in;
    Avg -> [Float (sum / n)] or [Null] on an empty group; Min/Max ->
    the extremum or [Null]. *)

val of_tuples : spec array -> Tuple.t list -> acc array
(** Fresh accumulators folded over a tuple list — the oracle path. *)

val equal_acc : spec -> acc -> acc -> bool
(** Equality of the observable state (what {!finalize} depends on). *)
