(** The partial materialized view object (Section 3.2):

    {v create partial materialized view V_PM as subset of
         select Ls' from R1, ..., Rn where Cjoin
         with selection condition template Cselect v}

    A view bundles the compiled template, the bounded entry store, and
    (when enabled) auxiliary in-memory indexes over each base relation's
    Ls' attributes — the full version's device for delete/update
    maintenance without delta joins. The auxiliary path removes every
    cached tuple agreeing with the deleted base tuple on that relation's
    Ls' attributes: a superset of the true victims, which is always safe
    because a PMV is {e any} subset of its containing MV. *)

open Minirel_storage
open Minirel_query

type stats = {
  mutable queries : int;  (** queries answered through this view *)
  mutable query_hits : int;  (** queries whose probe found >= 1 resident bcp *)
  mutable partial_tuples : int;  (** tuples served from the view *)
  mutable fills : int;  (** tuples cached during O3 *)
  mutable skipped_inserts : int;  (** base inserts needing no maintenance *)
  mutable maint_removed : int;  (** tuples dropped by deferred maintenance *)
  mutable maint_skipped_updates : int;  (** updates not touching Ls'/Cjoin *)
  mutable shaped_queries : int;
      (** §3.6 shaped answers (DISTINCT/grouped/ordered/EXISTS) served
          through this view; feeds the budget arbiter's value measure *)
}

type t

(** Maintenance deltas deferred past a reader's S lock; managed by
    {!Maintain}. *)
val pending_deltas : t -> Minirel_txn.Txn.delta list

val set_pending_deltas : t -> Minirel_txn.Txn.delta list -> unit

(** [create ~capacity ~name compiled] builds an empty view holding at
    most [capacity] basic condition parts with at most [f_max] (default
    2, the paper's example) result tuples each, managed by [policy]
    (default CLOCK). [aux_maintenance] (default true) builds the
    auxiliary indexes when every relation contributes at least one Ls'
    attribute; otherwise maintenance falls back to delta joins. *)
val create :
  ?policy:Minirel_cache.Policies.kind ->
  ?f_max:int ->
  ?aux_maintenance:bool ->
  capacity:int ->
  name:string ->
  Template.compiled ->
  t

val name : t -> string
val compiled : t -> Template.compiled
val store : t -> Entry_store.t

(** Lock-free fast-path store of complete per-bcp answers (DESIGN.md
    Section 13); filled by fallback queries, probed without locks. *)
val probe_store : t -> Entry_store.t

(** Untrust every complete fast-path answer (a relevant base delta is
    about to be applied, deferred, or was lost to a fault). *)
val invalidate_probe : t -> unit

(** Drain both stores' retired version chains at engine shutdown. *)
val shutdown : t -> unit

val stats : t -> stats
val has_aux : t -> bool

(** Positions in relation [i]'s schema that matter to the view (Ls',
    join and fixed-predicate attributes); pure, uncached form. *)
val relevant_positions_of : Template.compiled -> int -> int list

(** Memoized {!relevant_positions_of} — computed once per (view,
    relation) at creation, O(1) thereafter. *)
val relevant_positions : t -> int -> int list

(** Lock-manager object name for the Section 3.6 protocol. *)
val lock_object : t -> string

val n_entries : t -> int
val n_tuples : t -> int

(** Approximate footprint: cached tuples plus the paper's 4%-of-entry
    accounting for the bcp index side. *)
val size_bytes : t -> int

(** Fraction of answered queries that hit the view. *)
val hit_ratio : t -> float

(** Cached (bcp, tuple) pairs agreeing with [base] on relation [rel]'s
    Ls' attributes. @raise Invalid_argument when aux indexes are off. *)
val aux_victims : t -> rel:int -> Tuple.t -> (Bcp.t * Tuple.t) list

(** Store bounds hold and every cached tuple belongs to the bcp whose
    entry holds it. *)
val invariants_ok : t -> bool
