(** Uniform interface over replacement policies (CLOCK, 2Q, LRU, FIFO).

    A policy manages a bounded set of {e resident} keys. Residency is
    what entitles the owner (the PMV entry store, the simulator) to hold data
    for the key. Two operations mutate the recency state:

    [reference k] records one access without forcing residency:
    - [`Resident]: already resident; recency updated (CLOCK refbit,
      LRU move-to-front).
    - [`Admitted]: the reference itself made the key resident — only 2Q
      does this, promoting a key from its ghost queue A1 to Am (the
      paper's Section 4.1 behaviour). Victims are reported through the
      eviction callback first.
    - [`Rejected]: not resident. CLOCK/LRU/FIFO leave the state
      untouched; 2Q stages the key in A1.

    [admit k] forces residency, evicting as needed; a no-op when the
    key is already resident. Owners consult [admit_on_fill]: CLOCK,
    LRU and FIFO admit when data to cache materialises (the paper's
    Operation O3); 2Q never admits on fill — residency is earned by a
    second query-time reference. *)

type outcome = [ `Resident | `Admitted | `Rejected ]

type 'k t = {
  name : string;
  mutable capacity : int;
  admit_on_fill : bool;
  mem : 'k -> bool;
  reference : 'k -> outcome;
  admit : 'k -> unit;
  remove : 'k -> unit;
  size : unit -> int;
  iter : ('k -> unit) -> unit;
  set_on_evict : ('k -> unit) -> unit;
  resize : int -> unit;
  stats : Cache_stats.t;
}

val name : 'k t -> string
val capacity : 'k t -> int

(** Change the resident-key bound in place (the budget arbiter's
    rebalance). Shrinking evicts victims in the policy's own
    replacement order through the eviction callback; growing only
    raises the bound. @raise Invalid_argument when [n <= 0]. *)
val resize : 'k t -> int -> unit

val admit_on_fill : 'k t -> bool

(** Whether the key is resident (data-holding). *)
val mem : 'k t -> 'k -> bool

val reference : 'k t -> 'k -> outcome
val admit : 'k t -> 'k -> unit

(** Drop the key if resident or staged; no-op otherwise. The eviction
    callback is {e not} invoked for explicit removals. *)
val remove : 'k t -> 'k -> unit

(** Number of resident keys. *)
val size : 'k t -> int

(** Iterate resident keys, unspecified order. *)
val iter : 'k t -> ('k -> unit) -> unit

val set_on_evict : 'k t -> ('k -> unit) -> unit
val stats : 'k t -> Cache_stats.t
