(** Query answering with a PMV (Section 3.3): O1 breaks Cselect into
    condition parts; O2 probes the view and streams cached tuples
    immediately, remembering them in DS; O3 executes the query,
    delivers every not-yet-seen tuple (so the full multiset reaches the
    user exactly once) and refreshes the view for free.

    The instrumentation separates the {e overhead} the method adds (O1,
    O2, DS bookkeeping and fills inside O3) from the engine's own
    execution cost — the quantity Figures 8-10 report. *)

open Minirel_storage
open Minirel_query

type phase = Partial  (** delivered from the PMV in O2 *) | Remaining  (** from execution *)

(** Which read path a query uses (DESIGN.md Section 13): [Locked] is
    the paper's Section 3.6 S/X protocol; [Epoch] takes no lock — it
    serves complete per-bcp answers from the view's probe store under
    an epoch guard, falling back to the lock-free O2/O3 pipeline on a
    miss (and installing what the fallback proves complete). The epoch
    path requires maintenance hooks to be attached, since staleness is
    detected through the probe store's stamp rather than the purge. *)
type probe_path = Locked | Epoch

val probe_path_of_string : string -> probe_path option
val probe_path_to_string : probe_path -> string

type stats = {
  h : int;  (** condition parts generated by O1 *)
  probes : int;
  probe_hits : int;  (** probes finding the bcp resident *)
  partial_count : int;
  total_count : int;  (** result multiset cardinality *)
  filled : int;  (** tuples cached into the PMV during O3 *)
  overhead_ns : int64;
  exec_ns : int64;
  first_partial_ns : int64 option;  (** time to the first PMV tuple *)
  first_exec_ns : int64 option;  (** time to the first executed tuple *)
  io_reads : int;
  io_writes : int;
  stale_purged : int;  (** leftover DS tuples; 0 when maintenance is attached *)
}

val now : unit -> int64

(** Answer [instance] through [view]. [on_tuple] receives every result
    tuple exactly once in Ls' shape (project with
    {!Template.visible_of_result} for display). With [locks], an S lock
    on the view is held across O2-O3 per Section 3.6. [on_tuple] may
    raise to terminate early (the paper's Benefit 2): the exception
    propagates after the view's statistics are finalised. With
    [plan_cache], O3's plan comes from the template plan cache (bound
    skeleton) instead of a fresh planning pass; with [profile],
    per-operator executor counters are collected into it; with
    [probe_path:Epoch], no lock is taken (see {!probe_path}); with
    [trace], spans are recorded as an ["answer:<template>"] child of
    the caller-owned trace context instead of starting a sampled trace
    of their own — how one span tree is stitched across shard engines.
    @raise Minirel_txn.Lock_manager.Conflict when the lock cannot be
    granted. *)
val answer :
  ?locks:Minirel_txn.Lock_manager.t ->
  ?txn:int ->
  ?plan_cache:Minirel_exec.Plan_cache.t ->
  ?profile:Minirel_exec.Exec_stats.t ->
  ?probe_path:probe_path ->
  ?trace:Minirel_telemetry.Span.trace ->
  view:View.t ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  on_tuple:(phase -> Tuple.t -> unit) ->
  stats

(** Plain execution without a PMV: the baseline of Figures 8-10. All
    tuples arrive with phase [Remaining]. *)
val answer_plain :
  ?plan_cache:Minirel_exec.Plan_cache.t ->
  ?profile:Minirel_exec.Exec_stats.t ->
  ?trace:Minirel_telemetry.Span.trace ->
  Minirel_index.Catalog.t ->
  Instance.t ->
  on_tuple:(phase -> Tuple.t -> unit) ->
  stats
