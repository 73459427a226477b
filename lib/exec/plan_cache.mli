(** Template plan cache: skeletons keyed by (template, driver index),
    revalidated against {!Minirel_index.Catalog.version} (bumped by
    index DDL and vacuum) and a statistics epoch (bumped by
    {!set_stats}). A hit binds parameters in O(params); cached skeletons
    are compiled with the fast path ([~fast:true]), so index-less join
    edges run as hash joins instead of naive nested loops. Any error
    falls back to the uncached planner. *)

type t

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;  (** stale entries recompiled *)
  mutable fallbacks : int;  (** bind failures routed to the full planner *)
}

val create : ?stats:Stats.t -> Minirel_index.Catalog.t -> t

(** Plan via the cache; equivalent results to {!Planner.plan_query}
    (plan shape may use hash joins where the uncached planner emits
    naive nested loops). When disabled, delegates straight to
    {!Planner.plan_query}. *)
val plan : t -> Minirel_query.Instance.t -> Plan.t

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val stats : t -> Stats.t option

(** Install (or clear) table statistics and bump the statistics epoch,
    invalidating every cached skeleton. *)
val set_stats : t -> Stats.t option -> unit

(** Drop all cached skeletons (counters are kept). *)
val clear : t -> unit

val counters : t -> counters

(** Always 0: there is no domain-local shadow. Kept only because
    [bench/e2e] still calls it. *)
val shadow_hits : t -> int

(** Stable name/value pairs for telemetry registration. *)
val counters_to_list : counters -> (string * int) list

(** Zero the hit/miss/invalidation/fallback counters. *)
val reset_counters : t -> unit

(** Register this cache as telemetry source [name] (default
    ["plancache"]). *)
val register_telemetry :
  ?registry:Minirel_telemetry.Registry.t -> ?name:string -> t -> unit

val size : t -> int
val pp_counters : counters Fmt.t
val pp : t Fmt.t
