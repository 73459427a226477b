(** Extensions from Section 3.6: DISTINCT, aggregates, early
    termination, and EXISTS-style nested queries, built on the same
    O1/O2/O3 machinery. *)

open Minirel_storage
open Minirel_query

(** {1 DISTINCT} *)

(** Answer with set semantics: each distinct result tuple is delivered
    exactly once, cached tuples first. Returns the answer statistics
    and the number of distinct tuples delivered. *)
val answer_distinct :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?probe_path:Answer.probe_path ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  on_tuple:(Answer.phase -> Tuple.t -> unit) ->
  Answer.stats * int

(** {1 Early termination (Benefit 2)} *)

exception Stop

(** The first [k] result tuples (hot ones first), terminating the query
    early once they are in hand. Cached tuples serve only while no
    deferred maintenance is pending on the view; otherwise the query
    executes plainly up to the k-th row.
    @raise Invalid_argument if [k <= 0]. *)
val answer_first_k :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  k:int ->
  Tuple.t list

(** {1 Exact grouped aggregation}

    Unfinalized associative accumulators per group, sorted by the
    projected key tuple. Kept unfinalized so per-shard partials merge
    exactly ({!merge_groups}); {!finalize_groups} only at the end —
    which is why AVG ships as SUM+COUNT. *)

type group_acc = (Tuple.t * Aggregate.acc array) list

(** Fold one delivered tuple into its group's accumulators (creating
    the group on first sight). The building block shared by
    {!answer_groups} and external fan-out paths (the shard router). *)
val fold_group :
  Aggregate.acc array Tuple.Table.t ->
  key:int array ->
  aggs:Aggregate.spec array ->
  Tuple.t ->
  unit

(** Drain a fold table into a {!group_acc}, sorted by key. *)
val collect_groups : Aggregate.acc array Tuple.Table.t -> group_acc

(** Bump the per-shape answer counter for a query answered by an
    external assembly of this module's building blocks (one count per
    query, at the routing layer). *)
val note_shape : [ `Distinct | `Grouped | `Ordered | `Exists ] -> unit

type grouped_exact = {
  g_partial : group_acc;
      (** accumulated over the O2 (PMV-served) phase — the early
          approximate preview *)
  g_groups : group_acc;  (** over the whole delivered stream: exact *)
  g_stats : Answer.stats;
}

(** Exact grouped answer through the O1/O2/O3 pipeline: each delivered
    tuple folds into its group exactly once (the DS identity), so the
    accumulators are exact. [key] and every aggregate position index
    into the Ls' result tuple. *)
val answer_groups :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?probe_path:Answer.probe_path ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  key:int array ->
  aggs:Aggregate.spec array ->
  grouped_exact

(** Merge two sorted group lists; shared keys fold the right operand's
    accumulators into the left's (mutating the left). Associative and
    commutative up to the shared total key order. *)
val merge_groups : group_acc -> group_acc -> group_acc

val finalize_groups :
  aggs:Aggregate.spec array -> group_acc -> (Tuple.t * Value.t array) list

(** O2-only grouped fast path: assemble the grouped answer from the
    view's probe store alone when every condition part's bcp holds a
    trusted complete version (inexact parts filter the cached tuples).
    [None] on any miss — fall back to {!answer_groups}. *)
val probe_groups :
  view:View.t ->
  Instance.t ->
  key:int array ->
  aggs:Aggregate.spec array ->
  group_acc option

(** {1 ORDER BY ... LIMIT k}

    The first [k] tuples of the total order [Ordering.cmp ~order] via a
    bounded top-k heap over the delivered stream. Prefix-exact under
    the shared comparator. @raise Invalid_argument if [k <= 0]. *)
val answer_ordered_k :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?probe_path:Answer.probe_path ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  order:Ordering.key array ->
  k:int ->
  Tuple.t list * Answer.stats

(** {1 EXISTS nested queries} *)

(** [true] when the view caches a tuple that would satisfy the
    instance — a valid EXISTS witness. Pure lookups (no recency update,
    no admission). On the locked path the witness only counts while no
    deferred maintenance is pending; on the epoch path only a trusted
    complete version serves. *)
val cached_witness :
  ?probe_path:Answer.probe_path -> view:View.t -> Instance.t -> bool

(** Witness check for an EXISTS subquery: [true, `From_pmv] when the
    subquery's PMV caches a satisfying tuple (pure lookups, no engine
    work); otherwise executes just far enough to find one tuple. On the
    locked path cached witnesses are only used while no deferred
    maintenance is pending; on the epoch path only trusted complete
    versions serve. *)
val exists_ :
  ?probe_path:Answer.probe_path ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  bool * [ `From_pmv | `Executed ]

(** Filter [candidates] by an EXISTS subquery built per candidate,
    short-circuiting through the subquery's PMV. Returns the kept
    candidates and how many checks the PMV answered. *)
val filter_exists :
  view:View.t ->
  Minirel_index.Catalog.t ->
  candidates:'a list ->
  subquery_of:('a -> Instance.t) ->
  'a list * int
