(** Hash-partitioned sharding of the PMV pipeline across N scoped
    {!Engine} instances. Base relations are either hash-partitioned by
    one attribute (in the intended layout the join key, so
    co-partitioned relations join shard-locally) or replicated to every
    shard. DML routes to the owning shard; queries fan out and the
    partial/remaining streams merge with the DS exactly-once identity
    intact under summation. Each shard has private fault and telemetry
    scopes. *)

type t

(** [create ~shards ()] builds [shards] scoped engines named
    [shard0..]. [pool_capacity] etc. apply per shard.
    @raise Invalid_argument when [shards <= 0]. *)
val create :
  ?pool_capacity:int ->
  ?default_f_max:int ->
  ?default_policy:Minirel_cache.Policies.kind ->
  shards:int ->
  unit ->
  t

val n_shards : t -> int
val shard : t -> int -> Engine.t
val shards : t -> Engine.t list

(** The attached Domain pool, if any. *)
val parallel : t -> Minirel_parallel.Pool.t option

(** Attach (or detach, with [None]) a Domain pool: {!answer} then
    fans per-shard answers out to the pool's worker domains. The pool
    also threads down to every shard engine ({!Engine.set_parallel}),
    so a shard task forks its O3 morsel batches into its worker's
    deque for idle domains to steal. The pool stays externally owned —
    shut it down where it was created. *)
val set_parallel : t -> Minirel_parallel.Pool.t option -> unit

(** Default read path for {!answer} (initially {!Pmv.Answer.Locked});
    a per-call [probe_path] argument wins. *)
val probe_path : t -> Pmv.Answer.probe_path

(** Switch the default read path. [Epoch] also threads down to every
    shard engine's own probe fast path ({!Engine.set_probe_path}). *)
val set_probe_path : t -> Pmv.Answer.probe_path -> unit

(** Deterministic router-owned fast-path counters, also exported as the
    process-global [router.probe] telemetry source. *)
type probe_stats = {
  mutable fast_hits : int;  (** queries served without fan-out *)
  mutable fallbacks : int;  (** epoch queries that missed and fanned out *)
  mutable probes : int;  (** per-bcp segment probes *)
  mutable probe_hits : int;  (** probes returning a trusted version *)
  probe_ns : Minirel_telemetry.Histogram.t;
      (** probe-phase latency, hit or miss *)
}

val probe_stats : t -> probe_stats

(** Summary (count/p50/p99...) of the probe-phase latency histogram. *)
val probe_summary : t -> Minirel_telemetry.Histogram.summary

val reset_probe_stats : t -> unit

(** Per-segment [(hits, misses, installs)] of the template's router
    probe cache, in shard order; [[||]] when the template has no
    routed view. Also exported as
    [router.probe.<template>.s<i>.{hits,misses,installs}] and, in
    {!prometheus_string}, as [router_probe_cache_*] series with
    [{shard,template}] labels. *)
val probe_cache_counters : t -> template:string -> (int * int * int) array

(** Engine-affinity cache counters [(hits, misses, invalidations)]:
    how often a parallel fan-out checked out a warm per-shard harness
    (SPSC stream, tuple batch buffer, span label) left by a previous
    fan-out, built a cold one, or discarded a slot stranded by a DDL
    epoch bump. Also exported as the [router.affinity] telemetry
    source, both process-global and in {!snapshot_merged}. *)
val affinity_stats : t -> int * int * int

(** Monotonic schema-shape epoch: bumped by {!declare},
    {!create_relation}, {!create_index}, {!create_view} and
    {!load_from}; every affinity slot built under an older epoch is
    invalidated. *)
val ddl_epoch : t -> int

type part = Hash of int  (** partition-key position *) | Replicated

val partitioning : t -> rel:string -> part option

(** Owning shard of a partition-key value (integers hash to
    themselves, keeping co-partitioned integer keys together). *)
val shard_of_value : t -> Minirel_storage.Value.t -> int

(** Record the relation's partitioning without creating it — for
    relations already present in a catalog that {!load_from} will
    partition.
    @raise Invalid_argument when [`Hash attr] names no attribute. *)
val declare :
  t ->
  Minirel_storage.Schema.t ->
  part:[ `Hash of string | `Replicated ] ->
  unit

(** Create the relation on every shard and record its partitioning.
    @raise Invalid_argument when [`Hash attr] names no attribute. *)
val create_relation :
  t ->
  Minirel_storage.Schema.t ->
  part:[ `Hash of string | `Replicated ] ->
  unit

val create_index :
  t ->
  ?kind:Minirel_index.Index.kind ->
  rel:string ->
  name:string ->
  attrs:string list ->
  unit ->
  unit

(** Shards a change must run on: the owner for inserts and for
    deletes/updates whose predicate pins the partition key; every
    shard otherwise (correct — shards hold disjoint rows).
    @raise Invalid_argument when an update would modify a partition
    key. *)
val targets : t -> Minirel_txn.Txn.change -> int list

(** Run a transaction, routing each change per {!targets}. Returns
    [(shard index, deltas)] for the shards that ran anything; each
    shard's locks, WAL and deferred PMV maintenance fire locally. *)
val run :
  t -> Minirel_txn.Txn.change list -> (int * Minirel_txn.Txn.delta list) list

(** Create the template's PMV on every shard ([capacity]/[ub_bytes]
    are per shard — aggregate cache budget scales with the shard
    count). Returns the views in shard order. *)
val create_view :
  ?policy:Minirel_cache.Policies.kind ->
  ?f_max:int ->
  ?capacity:int ->
  ?ub_bytes:int ->
  t ->
  Minirel_query.Template.compiled ->
  Pmv.View.t array

(** Shards a template's answer consults: all when any base relation is
    hash-partitioned, just shard 0 when everything is replicated. *)
val template_shards : t -> Minirel_query.Template.compiled -> int list

(** Sum per-shard answer stats: counters and times add, first-tuple
    latencies take the min; the DS identity survives summation. *)
val merge_stats : Pmv.Answer.stats -> Pmv.Answer.stats -> Pmv.Answer.stats

(** Tuples carried per SPSC message on the parallel fan-out path: each
    worker hands its stream to the merger in chunks of this size, so
    the queue's mutex/condvar round-trips amortize across a batch. *)
val tuple_batch : int

(** Answer across the template's shards, streaming every shard's O2
    partials and O3 remainder through [on_tuple]; returns the summed
    stats and whether every consulted shard used a view.

    With a pool attached ({!set_parallel}) or passed ([par]) and at
    least two target shards, per-shard answers run concurrently on the
    pool, each streaming through a bounded per-shard queue; the merge
    consumes the queues in shard order, so the delivered stream is
    tuple-for-tuple identical to the sequential one and the DS
    identity still sums exactly. The in-order merge cannot starve
    under the pool's work-stealing dispatch: shard tasks are claimed
    off the injector in submission order, so the earliest undrained
    shard's task is always completed, running, or the next claim (see
    pool.mli). Profiled runs stay sequential. When [on_tuple] raises
    in parallel mode, in-flight shards finish with their output
    discarded before the exception re-raises.

    Under [probe_path = Epoch] (per call, or the {!set_probe_path}
    default) the router first tries the shard-local probe fast path:
    a query whose every bcp holds a trusted complete version in the
    template's router-level probe cache answers straight from the
    owning segments — no fan-out, no merge, no pool dispatch. Misses
    fall back to the full fan-out on the shards' classic locked path
    (the router-level cache subsumes per-shard fast paths) and install
    what the fallback's stale-purge count proves complete.

    [trace] propagates a caller-owned trace context: the router stitches
    one span tree per query — a [router.probe] span under [Epoch], then
    either the cache-hit stream or per-shard [shard<i>] subtrees (built
    task-locally on the pool and grafted back in shard order) each
    annotated with shard/domain/worker and the shard's own probe-path
    spans. *)
val answer :
  ?par:Minirel_parallel.Pool.t ->
  ?profile:Minirel_exec.Exec_stats.t ->
  ?probe_path:Pmv.Answer.probe_path ->
  ?trace:Minirel_telemetry.Span.trace ->
  t ->
  Minirel_query.Instance.t ->
  on_tuple:(Pmv.Answer.phase -> Minirel_storage.Tuple.t -> unit) ->
  Pmv.Answer.stats * bool

(** First [k] result tuples across the shards (hot cached tuples
    first per shard), terminating all execution once [k] are in hand.
    @raise Invalid_argument if [k <= 0]. *)
val answer_first_k :
  t -> Minirel_query.Instance.t -> k:int -> Minirel_storage.Tuple.t list

(** {2 Section 3.6 query shapes across shards} *)

(** Sharded GROUP BY: each target shard folds its own delivered stream
    into shard-local accumulators; only those — one unfinalized
    accumulator array per group — cross the shard boundary, merged per
    group by [Extensions.merge_groups] (no per-shard full recompute;
    AVG merges because it travels as SUM+COUNT). Returns the merged
    exact/partial groups with summed stats, and whether every shard
    answered through a view. With a pool attached or passed the shard
    folds run concurrently. *)
val answer_grouped :
  ?par:Minirel_parallel.Pool.t ->
  ?probe_path:Pmv.Answer.probe_path ->
  t ->
  Minirel_query.Instance.t ->
  key:int array ->
  aggs:Minirel_query.Aggregate.spec array ->
  Pmv.Extensions.grouped_exact * bool

(** Router-cache grouped fast path: folds the grouped answer straight
    out of the template's router-level probe-cache segments when every
    bcp holds a trusted complete version; [None] on any miss. *)
val probe_grouped :
  t ->
  Minirel_query.Instance.t ->
  key:int array ->
  aggs:Minirel_query.Aggregate.spec array ->
  Pmv.Extensions.group_acc option

(** Sharded ORDER BY ... LIMIT k: per-shard bounded top-k (at most [k]
    candidates surrendered per shard), merged and cut to the global
    first [k] under the shared total order — prefix-exact.
    @raise Invalid_argument if [k <= 0]. *)
val answer_ordered_k :
  ?probe_path:Pmv.Answer.probe_path ->
  t ->
  Minirel_query.Instance.t ->
  order:Minirel_query.Ordering.key array ->
  k:int ->
  Minirel_storage.Tuple.t list * Pmv.Answer.stats

(** Sharded EXISTS: any target shard's cached witness settles the
    question as [`From_pmv] with no engine work; otherwise executes
    shard by shard, stopping at the first tuple. On the epoch path the
    paper stores also serve witnesses, but only while their view has no
    delta pending; execution never serves cached tuples. *)
val exists_ :
  ?probe_path:Pmv.Answer.probe_path ->
  t ->
  Minirel_query.Instance.t ->
  bool * [ `From_pmv | `Executed ]

(** Apply queued (lock-deferred) deltas on every shard's views. *)
val flush_pending : t -> unit

(** Partition an existing catalog into the shards: relations without a
    recorded partitioning replicate; tuples route by the partition
    rule; secondary indexes are recreated per shard. *)
val load_from : t -> Minirel_index.Catalog.t -> unit

(** Per-shard telemetry snapshots, in shard order. *)
val snapshots :
  t -> (string * (string * Minirel_telemetry.Registry.value) list) list

(** One aggregated snapshot (counters/gauges add, histogram summaries
    merge), including the router-level [router.probe] and
    [router.affinity] sources. *)
val snapshot_merged : t -> (string * Minirel_telemetry.Registry.value) list

(** Prometheus exposition of every shard with a [shard="i"] label on
    each series, followed by the router probe-cache counter families
    ([router_probe_cache_{hits,misses,installs}]) labelled with both
    [shard] and [template]. *)
val prometheus_string : t -> string

val reset_telemetry : t -> unit

(** Shut every shard engine down ({!Engine.shutdown}) and drain the
    router probe caches' retired version chains. The router must not
    answer queries afterwards. *)
val shutdown : t -> unit
