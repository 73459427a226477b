(** Managing many PMVs at once — one per frequently used query
    template, as the paper's sizing example anticipates ("the memory
    can hold many PMVs"). The manager sizes views from per-view storage
    budgets via the Section 3.2 rule, routes queries to the right view,
    and attaches deferred maintenance for all of them. *)

open Minirel_query

type t

(** [registry] receives the engine-level telemetry sources (buffer
    pool, plan cache, executor) and every per-view [pmv.<template>]
    source; default: the process-global registry. *)
val create :
  ?default_f_max:int ->
  ?default_policy:Minirel_cache.Policies.kind ->
  ?registry:Minirel_telemetry.Registry.t ->
  Minirel_index.Catalog.t ->
  t

val catalog : t -> Minirel_index.Catalog.t

(** The telemetry registry this manager registers its sources in. *)
val registry : t -> Minirel_telemetry.Registry.t

(** The template plan cache every routed query answers through. *)
val plan_cache : t -> Minirel_exec.Plan_cache.t

val views : t -> View.t list
val n_views : t -> int

(** The view registered for a template name, if any. *)
val find : t -> template:string -> View.t option

(** Create and register a PMV for the template. Size it either directly
    ([capacity]) or from a storage budget ([ub_bytes], with [sample]
    result tuples refining the paper's At). If maintenance is attached,
    the new view subscribes immediately.
    @raise Invalid_argument when the template already has a view or
    when neither [capacity] nor [ub_bytes] is given. *)
val create_view :
  ?policy:Minirel_cache.Policies.kind ->
  ?f_max:int ->
  ?capacity:int ->
  ?ub_bytes:int ->
  ?sample:Minirel_storage.Tuple.t list ->
  t ->
  Template.compiled ->
  View.t

(** {2 Global UB budget arbitration (DESIGN.md Section 17)}

    Instead of freezing each template's UB at creation, the manager can
    own one global byte budget: {!rebalance} re-splits it across
    templates in proportion to their EMA-smoothed measured
    hit-value-per-byte (hits + shaped answers + 1% of partial tuples,
    per byte of footprint), floors every share at half the equal share,
    and resizes each view's entry store (and 4x probe store) through
    the Section 3.2 rule. *)

(** [set_global_budget ?auto_every t total] arms the arbiter with
    [total] bytes across all views; when [auto_every] is given,
    {!answer} triggers a rebalance every that many view-answered
    queries. @raise Invalid_argument on non-positive arguments. *)
val set_global_budget : ?auto_every:int -> t -> int -> unit

val global_budget : t -> int option

(** Re-split the global budget now; returns the new (template, L) pairs
    ([] when no budget is armed or no views exist). *)
val rebalance : t -> (string * int) list

(** Rebalances performed since creation. *)
val rebalances : t -> int

(** Attach deferred maintenance for every current and future view. *)
val attach_maintenance : t -> Minirel_txn.Txn.t -> unit

val drop_view : t -> template:string -> unit

(** Answer through the template's view when one exists, plainly
    otherwise; the boolean reports whether a view was used. Plans come
    from the manager's plan cache; [profile] collects per-operator
    executor counters; [par] runs O3 scans and hash joins
    morsel-parallel on the Domain pool; [probe_path] selects the
    {!Answer.probe_path} (default [Locked]); [trace] propagates a
    caller-owned trace context (see {!Answer.answer}). *)
val answer :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?par:Minirel_parallel.Pool.t ->
  ?profile:Minirel_exec.Exec_stats.t ->
  ?probe_path:Answer.probe_path ->
  ?trace:Minirel_telemetry.Span.trace ->
  t ->
  Instance.t ->
  on_tuple:(Answer.phase -> Minirel_storage.Tuple.t -> unit) ->
  Answer.stats * bool

val total_bytes : t -> int

type report_row = {
  template : string;
  entries : int;
  tuples : int;
  bytes : int;
  hit_ratio : float;
  queries : int;
}

val report : t -> report_row list
val pp_report : t Fmt.t
