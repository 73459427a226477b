(** SplitMix64: a tiny, fast, deterministic PRNG. Every experiment and
    fault-injection campaign is seeded so paper-figure regeneration and
    torture replays are reproducible run to run. Leaf library: no
    minirel dependencies. *)

type t

val create : seed:int -> t

(** Seed from a raw 64-bit state (e.g. a derived per-site stream). *)
val of_int64 : int64 -> t

val next_int64 : t -> int64

(** Uniform in [0, 1). *)
val float : t -> float

(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)
val int : t -> bound:int -> int

(** Uniform in [lo, hi]. @raise Invalid_argument if [hi < lo]. *)
val int_range : t -> lo:int -> hi:int -> int

val bool : t -> bool

(** [distinct t ~n draw]: up to [n] distinct samples of [draw]; fewer
    only when the effective domain is too small after many retries. *)
val distinct : t -> n:int -> (t -> 'a) -> 'a list

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
