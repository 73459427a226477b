(** Boolean predicates over tuples, with positional attribute
    references. Used for the parameter-free selections inside Cjoin and
    for residual filtering in the executor. *)

open Minirel_storage

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of cmp * int * Value.t
  | In_set of int * Value.t list
  | In_interval of int * Interval.t
  | And of t list
  | Or of t list
  | Not of t

val eval : t -> Tuple.t -> bool

(** [pinned_value pos p] is [Some v] when [p]'s top-level conjunction
    fixes attribute [pos] to [v] with [=] or a singleton [IN] (the
    first such conjunct wins); [None] otherwise. *)
val pinned_value : int -> t -> Value.t option

(** Shift every position by [delta]; applies a relation-local predicate
    to a joined tuple whose relation starts at offset [delta]. *)
val shift : int -> t -> t

(** Conjunction, flattening the empty and singleton cases. *)
val conj : t list -> t

(** Attribute positions the predicate reads (with duplicates). *)
val positions : t -> int list

val pp : t Fmt.t
