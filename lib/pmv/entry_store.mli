(** Bounded storage for PMV entries (Section 3.2): a hash table from
    basic condition part to its cached result tuples — the paper's
    "index I on bcp" — with residency governed by a pluggable
    replacement policy (CLOCK by default, 2Q per Section 3.5) and at
    most F tuples per bcp. The entry table and the policy stay in lock
    step: an entry exists iff its bcp is resident; evictions drop the
    entry and report each dropped tuple through [on_change].

    Every entry additionally publishes an immutable {!version} through
    an atomic pointer (DESIGN.md Section 13): writers mutate under the
    engine's X discipline and swap in fresh versions, retiring old ones
    to an epoch domain; {!probe} reads the current version under an
    epoch guard, lock-free and tear-free against concurrent
    maintenance. *)

open Minirel_storage
open Minirel_query

type version = {
  v_tuples : Tuple.t list;  (** immutable snapshot, most recent first *)
  v_n : int;
  v_complete : bool;
      (** the whole result multiset for the bcp, not a partial fill *)
  v_stamp : int;  (** data stamp at publication; see {!version_trusted} *)
}

type entry = {
  e_bcp : Bcp.t;
  mutable tuples : Tuple.t list;  (** most recently cached first; length <= F *)
  mutable n : int;
  mutable refs : int;  (** lifetime references; feeds popularity ranking *)
  published : version Atomic.t;  (** current immutable snapshot *)
}

type change = Added | Removed

type t

(** @raise Invalid_argument if [f_max <= 0] or [capacity <= 0]. *)
val create :
  ?policy:Minirel_cache.Policies.kind -> capacity:int -> f_max:int -> unit -> t

(** Observe every cached-tuple addition and removal (fills, deferred
    maintenance, evictions); used to maintain auxiliary indexes. *)
val set_on_change : t -> (change -> Bcp.t -> Tuple.t -> unit) -> unit

val f_max : t -> int
val capacity : t -> int

(** Change the entry capacity in place (the global-budget arbiter's
    rebalance, DESIGN.md Section 17). Shrinking evicts victims through
    the normal eviction route, so [on_change] observes every dropped
    tuple. *)
val resize : t -> capacity:int -> unit

val n_entries : t -> int
val n_tuples : t -> int

(** Current bytes of cached tuples (excluding the bcp index side). *)
val tuple_bytes : t -> int

val policy_name : t -> string
val policy_stats : t -> Minirel_cache.Cache_stats.t

(** Pure lookup: no recency update, no admission. Writer-side only. *)
val find : t -> Bcp.t -> entry option

(** {2 Lock-free read side} *)

(** Lock-free probe from any domain: the bcp's currently published
    version, or [None] when the bcp is not resident. Runs under an
    epoch guard; never blocks on or tears under concurrent writers. *)
val probe : t -> Bcp.t -> version option

(** Bracket a multi-probe section in a single epoch guard. Escaped
    versions stay valid (immutable, GC-kept); the guard bounds how long
    the store must retain superseded versions. *)
val read : t -> (unit -> 'a) -> 'a

(** The data staleness clock: bumped by {!invalidate_complete} on every
    relevant base delta. *)
val current_stamp : t -> int

(** Untrust every complete version published before now (one atomic
    increment; versions are untouched). *)
val invalidate_complete : t -> unit

(** A version may be served as the bcp's whole answer iff it was
    installed complete and no relevant delta committed since. *)
val version_trusted : t -> version -> bool

(** Install the complete result multiset for [bcp] as captured against
    data state [stamp]; [false] if it exceeds F. Racing deltas are
    safe: they bump the stamp, so a late install publishes
    already-untrusted. *)
val install_complete : t -> Bcp.t -> Tuple.t list -> stamp:int -> bool

val epoch_stats : t -> Minirel_parallel.Epoch.stats

(** Release retired versions no active probe can still observe. *)
val reclaim : t -> int

(** Engine shutdown: drain the whole retire chain (caller guarantees no
    probe in flight) so create/destroy cycles do not leak versions. *)
val shutdown : t -> unit

(** {2 Write side (engine-serialized)} *)

(** One query-time reference (Operation O2): [`Resident entry] serves;
    [`Admitted entry] is 2Q's ghost promotion (empty entry, to be
    filled by this query's O3); [`Rejected storable] is a miss —
    [storable] tells whether O3 may admit the bcp when a result tuple
    materialises ({!admit_for_fill}). *)
val reference : t -> Bcp.t -> [ `Resident of entry | `Admitted of entry | `Rejected of bool ]

(** Operation O3 admission: make the bcp resident (possibly purging a
    victim) and return its (possibly fresh, empty) entry. *)
val admit_for_fill : t -> Bcp.t -> entry

(** Cache one result tuple, respecting the per-bcp bound F; [false]
    when the entry is full. *)
val add_tuple : t -> entry -> Tuple.t -> bool

(** Remove one occurrence from the bcp's entry (deferred maintenance);
    entries may become empty but keep their slot until evicted. *)
val remove_tuple : t -> Bcp.t -> Tuple.t -> bool

(** Drop an entry and its residency entirely. *)
val drop_entry : t -> Bcp.t -> unit

val iter : t -> (entry -> unit) -> unit
val fold : t -> ('a -> entry -> 'a) -> 'a -> 'a

(** The Section 3.2 bounds: entries <= L, tuples <= L*F, every entry
    consistent with its published version. *)
val invariants_ok : t -> bool
