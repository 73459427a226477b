(** Consistency oracle for the PMV pipeline. Ground truth is computed
    by a full-scan join, independent of the planner, executor, plan
    cache and views, and diffed — as a multiset — against what the
    O1/O2/O3 answering pipeline actually streamed. On top sit two
    deeper checks: the DS exactly-once accounting identity and the
    containment of every cached PMV tuple in its containing MV. *)

open Minirel_storage
open Minirel_query

(** The full materialized view by full scan: every Ls' tuple of the
    template's join satisfying Cjoin and the fixed predicates, as a
    multiset. Independent of the planner/executor. *)
val full_mv : Minirel_index.Catalog.t -> Template.compiled -> Tuple.t list

(** Ground truth for one query: {!full_mv} filtered by the instance's
    Cselect. *)
val ground_truth : Minirel_index.Catalog.t -> Instance.t -> Tuple.t list

(** {!ground_truth} with set semantics (first occurrence kept). *)
val ground_truth_distinct : Minirel_index.Catalog.t -> Instance.t -> Tuple.t list

(** Finalized per-group aggregate values over {!ground_truth}, sorted
    by the projected key tuple. Shares only [Aggregate.finalize] with
    the streamed path. *)
val ground_truth_grouped :
  Minirel_index.Catalog.t ->
  Instance.t ->
  key:int array ->
  aggs:Aggregate.spec array ->
  (Tuple.t * Value.t array) list

(** {!ground_truth} under the shared total order [Ordering.cmp ~order],
    optionally cut to the first [limit] tuples (prefix-exact target for
    first-k answers). *)
val ground_truth_ordered :
  Minirel_index.Catalog.t ->
  Instance.t ->
  order:Ordering.key array ->
  ?limit:int ->
  unit ->
  Tuple.t list

val ground_truth_exists : Minirel_index.Catalog.t -> Instance.t -> bool

(** Multiset difference, both directions. *)
type diff = {
  missing : Tuple.t list;  (** expected but not delivered *)
  extra : Tuple.t list;  (** delivered but not expected *)
}

val diff_is_empty : diff -> bool
val diff_multiset : expected:Tuple.t list -> actual:Tuple.t list -> diff
val pp_diff : diff Fmt.t

(** Oracle verdict for one answered query. *)
type report = {
  diff : diff;
  delivered : int;  (** on_tuple invocations *)
  partials : int;  (** of which phase [Partial] *)
  ds_identity_ok : bool;
      (** the DS exactly-once accounting identity
          [delivered = total_count + stale_purged]: every executed
          tuple reaches the user exactly once, plus the stale cached
          tuples O2 already streamed *)
  stats : Pmv.Answer.stats;
  template : string option;
      (** which template the query instantiated — printed first by
          {!pp_report} so sharded mismatches triage fast *)
  shape : string option;  (** query-shape class (plain/distinct/grouped/...) *)
}

(** No diff and the DS identity holds. *)
val report_ok : report -> bool

(** When pending maintenance may legitimately have left stale cached
    tuples: nothing missing, every extra accounted for by the stale
    purge, DS identity intact. *)
val report_ok_allowing_stale : report -> bool

val pp_report : report Fmt.t

(** Judge an arbitrary answer source — a single view, a sharded router,
    anything that streams tuples and returns {!Pmv.Answer.stats} —
    against a precomputed [expected] multiset. The DS exactly-once
    identity is checked on the returned stats, so merged shard streams
    must satisfy it under summation just as a single engine does. *)
val check_answer_via :
  ?template:string ->
  ?shape:string ->
  expected:Tuple.t list ->
  (on_tuple:(Pmv.Answer.phase -> Tuple.t -> unit) -> Pmv.Answer.stats) ->
  report

(** Answer [instance] through [view] and diff the streamed result
    against {!ground_truth}. *)
val check_answer :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?probe_path:Pmv.Answer.probe_path ->
  view:Pmv.View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  report

(** Deep view invariants, [] when consistent: the Section 3.2 store
    bounds (entries <= L, per-entry tuples <= F), entry/bcp agreement,
    optionally the storage budget [ub_bytes], and containment — every
    cached tuple must appear in {!full_mv} at least as often as it is
    cached, filed under the bcp {!Condition_part.bcp_of_result}
    assigns it. *)
val check_view :
  ?ub_bytes:int -> Pmv.View.t -> Minirel_index.Catalog.t -> string list
