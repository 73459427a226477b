(** The shell: a statement interpreter tying the SQL frontend to the
    engine and the PMV layer. One shell owns a catalog, a SQL session
    (template cache + grids), a transaction manager, and a
    {!Pmv.Manager} with one budgeted view per query template, created
    on first use.

    SELECTs route through the template's PMV; GROUP BY aggregates are
    evaluated over the answer stream with an early partial-groups
    preview; ORDER BY and LIMIT apply at the end (LIMIT without ORDER
    BY terminates execution early). DDL/DML statements run through the
    transaction manager, so deferred PMV maintenance fires. *)

open Minirel_storage

type t

(** Interpret statements against an existing engine — its catalog,
    session, transaction manager, PMV manager and fault/telemetry
    scopes. *)
val of_engine : ?view_ub_bytes:int -> ?auto_views:bool -> Minirel_engine.Engine.t -> t

(** Interpret statements against a shard router: queries fan out and
    merge across the shards, DML routes to owning shards, CREATE TABLE
    replicates (declare hash-partitioned relations through
    {!Minirel_engine.Shard_router.create_relation} first), and METRICS
    reports the merged per-shard telemetry. The accessors below then
    refer to shard 0, which also serves parsing/binding/EXPLAIN. *)
val of_router :
  ?view_ub_bytes:int -> ?auto_views:bool -> Minirel_engine.Shard_router.t -> t

(** [create catalog] is {!of_engine} over an engine adopting [catalog]
    with the process-global scopes. *)
val create : ?view_ub_bytes:int -> ?auto_views:bool -> Minirel_index.Catalog.t -> t

val engine : t -> Minirel_engine.Engine.t
val catalog : t -> Minirel_index.Catalog.t
val session : t -> Minirel_sql.Session.t
val manager : t -> Pmv.Manager.t
val txn_mgr : t -> Minirel_txn.Txn.t

type result =
  | Rows of {
      header : string list;
      rows : Tuple.t list;  (** user-visible shape, ordered/limited *)
      from_pmv : int;  (** tuples that arrived via O2 *)
      total : int;  (** result tuples before LIMIT *)
      overhead_ns : int64;
    }
  | Grouped of {
      header : string list;
      groups : (Tuple.t * Value.t list) list;  (** key, aggregate values *)
      partial_groups : (Tuple.t * Value.t list) list;
          (** early preview over the PMV-cached subset *)
    }
  | Table_created of string
  | Index_created of string
  | Inserted of int
  | Updated of int
  | Deleted of int
  | Explained of string  (** physical plan text *)
  | Traced of string
      (** per-operator executor profile, telemetry span tree, and
          plan-cache counters for one answered query *)
  | Metrics of string
      (** [METRICS]: a telemetry snapshot; [METRICS RESET]:
          confirmation that counters were zeroed *)
  | Slo_report of string
      (** [SLO]: the tail-latency watchdog report (per-template
          quantiles, breach count, slow-query span trees); [SLO RESET]
          and [SLO THRESHOLD <µs>] confirm their action *)
  | Flight_dump of string
      (** [FLIGHT [DUMP]]: the merged, time-ordered flight-recorder
          event log with its digest; [FLIGHT RESET|ON|OFF] confirm
          their action *)
  | Budget_report of string
      (** [BUDGET [STATUS]]: the UB budget arbiter's armed total,
          rebalance count and current footprint; [BUDGET TOTAL <bytes>]
          and [BUDGET REBALANCE] confirm / report the new per-template
          capacities *)

exception Error of string

(** Execute one statement (SELECT [DISTINCT] / EXPLAIN / TRACE /
    METRICS / SLO / FLIGHT / CREATE TABLE / CREATE INDEX / INSERT /
    UPDATE / DELETE). Every SELECT opens a root span on the engine's
    tracer (subject to sampling), threads it through the pipeline, and
    accounts its end-to-end latency to {!Minirel_telemetry.Slo.default}.
    @raise Error, the frontend's Lexer/Parser/Binder errors, or
    Invalid_argument on bad input. *)
val exec : t -> string -> result

(** Observe every successfully executed statement (e.g. into a
    {!Trace}). *)
val set_recorder : t -> (string -> unit) -> unit

(** Which {!Pmv.Answer.probe_path} routed queries take (default
    [Locked]). The state lives on the backend: the router default when
    sharded, the engine default otherwise. *)
val probe_path : t -> Pmv.Answer.probe_path

val set_probe_path : t -> Pmv.Answer.probe_path -> unit

val pp_result : result Fmt.t
