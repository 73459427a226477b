(** Plan interpreter: compiles a {!Plan.t} into a pull cursor against a
    catalog. Heap fetches and index node visits are charged to the
    catalog's buffer pool, so {!Minirel_storage.Io_stats} diffs around a
    cursor drain give the simulated I/O cost of a query.

    Passing [profile] registers one {!Exec_stats} node per plan operator
    and counts rows/time through each; omitting it leaves the cursors
    uninstrumented.

    Passing [par] enables morsel-driven parallelism: heap scans and
    hash-join build/probe phases split their page range into morsels
    executed on the Domain pool. Results are tuple-for-tuple identical
    to the sequential cursor (morsels merge in page order). Ignored
    when [profile] is also given — {!Exec_stats} trees are
    single-owner — or when the pool has fewer than 2 workers. *)

(** @raise Invalid_argument on plans naming unknown indexes;
    @raise Not_found on unknown relations. *)
val cursor :
  ?par:Minirel_parallel.Pool.t ->
  ?profile:Exec_stats.t ->
  Minirel_index.Catalog.t ->
  Plan.t ->
  Minirel_storage.Tuple.t Cursor.t

val run_to_list :
  ?par:Minirel_parallel.Pool.t ->
  ?profile:Exec_stats.t ->
  Minirel_index.Catalog.t ->
  Plan.t ->
  Minirel_storage.Tuple.t list

val count :
  ?par:Minirel_parallel.Pool.t ->
  ?profile:Exec_stats.t ->
  Minirel_index.Catalog.t ->
  Plan.t ->
  int

(** Register the catalog's executor counters (root cursors opened,
    tuples produced at plan roots against that catalog) as telemetry
    source [name] (default ["exec"]). The counters live in the catalog
    ({!Minirel_index.Catalog.cursors}), so scoped engines report and
    reset independently and nothing global holds a catalog. *)
val register_telemetry :
  ?registry:Minirel_telemetry.Registry.t ->
  ?name:string ->
  Minirel_index.Catalog.t ->
  unit
