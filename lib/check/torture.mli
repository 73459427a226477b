(** Deterministic torture driver: replays a seeded Zipf workload of
    queries and insert/delete/update transactions against a PMV with
    WAL and deferred maintenance attached, injects faults at the
    {!Minirel_fault.Fault} sites (WAL crashes with recovery from
    snapshot + replay, injected lock conflicts, buffer-pool I/O errors,
    forced maintenance deferral, lost maintenance with view rebuild),
    and oracle-checks every query answer plus periodic deep view and
    recovery invariants.

    Everything — event choice, parameters, fault firing — derives from
    [cfg.seed], so a failing run reproduces exactly from the seed and
    the printed event digest matches run to run. *)

type cfg = {
  seed : int;
  events : int;  (** workload events to replay *)
  scale : float;  (** TPC-R scale factor for the base data *)
  check_every : int;  (** deep view + catalog check every k events *)
  shards : int;  (** engine count for {!run_sharded}; {!run} ignores it *)
  domains : int;
      (** Domain-pool workers for {!run_sharded}'s parallel shard
          fan-out (1 = sequential; {!run} ignores it). The digest is
          reproducible run to run for a fixed (seed, domains) pair. *)
  probe_path : Pmv.Answer.probe_path;
      (** read path queries take (default [Locked], which keeps the
          lock-manager fault sites on the query path hot; [Epoch]
          exercises the lock-free probe fast path instead). Each path
          has its own reproducible digest for a fixed seed. *)
  dir : string option;  (** snapshot/WAL directory; default a temp dir *)
  log : (string -> unit) option;  (** per-event trace sink *)
}

val default_cfg : seed:int -> cfg

type outcome = {
  events : int;
  queries : int;  (** answered and oracle-checked *)
  txns : int;  (** committed transactions *)
  crashes : int;  (** WAL crash injections *)
  recoveries : int;  (** successful snapshot+replay recoveries *)
  deferrals : int;  (** maintenance deltas forced through the pending queue *)
  lock_rejects : int;  (** injected lock conflicts observed *)
  io_faults : int;  (** injected buffer-pool errors observed *)
  rebuilds : int;  (** views rebuilt after lost maintenance *)
  deep_checks : int;
  failures : string list;  (** oracle violations; [] means a clean run *)
  digest : string;  (** order-sensitive hash of the event trace *)
}

val ok : outcome -> bool
val pp_outcome : outcome Fmt.t

(** Run one torture campaign. Never raises on oracle violations — they
    are collected in [failures]; infrastructure errors (I/O, corrupt
    snapshot) do escape. *)
val run : cfg -> outcome

(** Run a sharded torture campaign across [cfg.shards] (at least 1)
    hash-partitioned engines — orders/lineitem partitioned by orderkey,
    customer replicated — driven by the same seeded workload generators
    as {!run} and oracle-checked against one unsharded reference
    catalog that replays the identical change stream. Lock, I/O,
    deferral and lost-maintenance faults fire inside individual shards'
    private scopes; WAL crash/recovery events are the single-engine
    campaign's subject and do not occur here ([crashes] and
    [recoveries] are 0). The oracle additionally checks that the merged
    answer stream keeps the DS exactly-once identity under summation,
    that the union of the shard heaps equals the reference catalog,
    that every row of a partitioned relation sits on its owning shard,
    and that replicas stay identical. *)
val run_sharded : cfg -> outcome
