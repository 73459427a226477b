(** A first-class engine instance: one catalog plus everything wired to
    it — buffer pool, transaction manager (and its lock manager), PMV
    manager (and its plan cache), SQL session, optional WAL — and the
    fault/telemetry scopes they all report into.

    {!create} wires the engine against the process-global scopes, a
    drop-in for the ad-hoc wiring the shell, [pmvctl] and the test
    helpers used to repeat; {!scoped} gives it fresh private scopes so
    any number of engines coexist in one process with independent
    failpoints, seeds and metrics — the building block
    {!Shard_router} fans out over. *)

type t

(** Build an engine. With [catalog], adopt an existing catalog (note:
    its buffer pool keeps the fault scope it was created with);
    otherwise create a fresh CLOCK buffer pool ([pool_capacity], default
    4000 pages) and an empty catalog in [fault]'s scope. [registry]
    receives every component's telemetry source; [fault] scopes the
    lock manager, WAL and maintenance failpoints. Defaults are the
    process-global scopes. *)
val create :
  ?name:string ->
  ?fault:Minirel_fault.Fault.reg ->
  ?registry:Minirel_telemetry.Registry.t ->
  ?tracer:Minirel_telemetry.Tracer.t ->
  ?pool_capacity:int ->
  ?default_f_max:int ->
  ?default_policy:Minirel_cache.Policies.kind ->
  ?catalog:Minirel_index.Catalog.t ->
  unit ->
  t

(** Like {!create} but with fresh, private fault/telemetry/tracer
    scopes: nothing this engine does shows up globally, and nothing
    armed or recorded globally reaches it. *)
val scoped :
  ?name:string ->
  ?pool_capacity:int ->
  ?default_f_max:int ->
  ?default_policy:Minirel_cache.Policies.kind ->
  ?catalog:Minirel_index.Catalog.t ->
  unit ->
  t

val name : t -> string
val catalog : t -> Minirel_index.Catalog.t
val pool : t -> Minirel_storage.Buffer_pool.t
val txn_mgr : t -> Minirel_txn.Txn.t
val locks : t -> Minirel_txn.Lock_manager.t
val manager : t -> Pmv.Manager.t
val session : t -> Minirel_sql.Session.t
val plan_cache : t -> Minirel_exec.Plan_cache.t
val fault : t -> Minirel_fault.Fault.reg
val registry : t -> Minirel_telemetry.Registry.t
val tracer : t -> Minirel_telemetry.Tracer.t
val wal : t -> Minirel_txn.Wal.t option

(** Default read path for {!answer} (initially
    {!Pmv.Answer.Locked}); a per-call [probe_path] argument wins. *)
val probe_path : t -> Pmv.Answer.probe_path

val set_probe_path : t -> Pmv.Answer.probe_path -> unit

(** Open a WAL in this engine's fault scope, subscribe it to the
    transaction manager and register its telemetry. *)
val attach_wal : t -> filename:string -> Minirel_txn.Wal.t

(** Unsubscribe and close the attached WAL, if any. *)
val detach_wal : t -> unit

(** Run a transaction through the engine: locks, WAL (when attached)
    and deferred PMV maintenance all fire.
    @raise Minirel_txn.Lock_manager.Conflict on a lock conflict. *)
val run : t -> Minirel_txn.Txn.change list -> Minirel_txn.Txn.delta list

(** The template's view, creating it on first use ({!Pmv.Manager.create_view}
    semantics: pass [capacity] or [ub_bytes]). *)
val ensure_view :
  ?policy:Minirel_cache.Policies.kind ->
  ?f_max:int ->
  ?capacity:int ->
  ?ub_bytes:int ->
  t ->
  Minirel_query.Template.compiled ->
  Pmv.View.t

val find_view : t -> template:string -> Pmv.View.t option

(** Answer under the Section 3.6 S-lock protocol through the engine's
    manager — PMV when the template has one, plain otherwise; the
    boolean reports whether a view was used.
    [probe_path] overrides the engine default ({!set_probe_path});
    [trace] propagates a caller-owned trace context so the whole
    pipeline records into one stitched span tree (see
    {!Pmv.Answer.answer}). *)
val answer :
  ?profile:Minirel_exec.Exec_stats.t ->
  ?probe_path:Pmv.Answer.probe_path ->
  ?trace:Minirel_telemetry.Span.trace ->
  t ->
  Minirel_query.Instance.t ->
  on_tuple:(Pmv.Answer.phase -> Minirel_storage.Tuple.t -> unit) ->
  Pmv.Answer.stats * bool

(** Root-trace lifecycle on this engine's tracer (subject to its
    stratified sampling; [None] when sampled out or telemetry is
    disabled). The serving surface opens the root span here, threads
    the trace through {!answer} or the router, then closes it with
    {!trace_finish} to land it in the retained ring. [at] reuses a
    monotonic timestamp the surface already read for its own latency
    accounting, sparing always-on tracing a second clock read. *)
val trace_start : ?at:int64 -> t -> string -> Minirel_telemetry.Span.trace option

val trace_finish : ?at:int64 -> t -> Minirel_telemetry.Span.trace -> unit
val last_trace : t -> Minirel_telemetry.Span.trace option
val force_next_trace : t -> unit

(** This engine's telemetry snapshot. *)
val snapshot : t -> (string * Minirel_telemetry.Registry.value) list

(** Zero this engine's metrics and retained traces (registrations
    survive). *)
val reset_telemetry : t -> unit

(** Close the WAL and drain every view's retired version chains. The
    engine must not answer queries afterwards; repeated
    {!scoped}-create/shutdown cycles then leak no version history. *)
val shutdown : t -> unit
