(* Public counters of every layer, read from the outside before and
   after the timed phase; per-layer metrics are their differences. *)

module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Lock_manager = Minirel_txn.Lock_manager
module Plan_cache = Minirel_exec.Plan_cache
module Buffer_pool = Minirel_storage.Buffer_pool
module Cache_stats = Minirel_cache.Cache_stats
module Histogram = Minirel_telemetry.Histogram
module Entry_store = Pmv.Entry_store
module View = Pmv.View
module Pool = Minirel_parallel.Pool

type t = {
  fast_hits : int;
  fallbacks : int;
  router_probe_ns : int;
  aff_hits : int;
  aff_misses : int;
  acquires : int;
  conflicts : int;
  acquire_ns : int;
  pc_hits : int;
  pc_misses : int;
  pc_invalidations : int;
  io_reads : int;
  bp_refs : int;
  bp_hits : int;
  rebalances : int;
  store_refs : int;
  store_hits : int;
  store_evictions : int;
  maint_removed : int;
  epoch_retired : int;
  epoch_in_flight : int;
  pool_submitted : int;
  pool_steals : int;
  pool_parks : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let snapshot (sut : Sut.t) pool =
  let engines = Array.to_list sut.Sut.engines in
  let views = Sut.views sut in
  let fast_hits, fallbacks, router_probe_ns, aff_hits, aff_misses =
    match sut.Sut.backend with
    | Sut.R r ->
        let ps = Router.probe_stats r in
        let h, m, _ = Router.affinity_stats r in
        ( ps.Router.fast_hits,
          ps.Router.fallbacks,
          Int64.to_int (Histogram.sum_ns ps.Router.probe_ns),
          h,
          m )
    | Sut.E _ -> (0, 0, 0, 0, 0)
  in
  let locks e = Lock_manager.stats (Engine.locks e) in
  let pc e = Plan_cache.counters (Engine.plan_cache e) in
  let bp e = Buffer_pool.policy_stats (Engine.pool e) in
  let store v = Entry_store.policy_stats (View.store v) in
  let epoch v =
    [ Entry_store.epoch_stats (View.store v); Entry_store.epoch_stats (View.probe_store v) ]
  in
  let pstats = Option.map Pool.stats pool in
  let pool_field f = match pstats with Some s -> f s | None -> 0 in
  let gc = Gc.quick_stat () in
  {
    fast_hits;
    fallbacks;
    router_probe_ns;
    aff_hits;
    aff_misses;
    acquires = sum (fun e -> (locks e).Lock_manager.acquires) engines;
    conflicts = sum (fun e -> (locks e).Lock_manager.conflicts) engines;
    acquire_ns =
      sum (fun e -> Int64.to_int (Histogram.sum_ns (locks e).Lock_manager.acquire_ns)) engines;
    pc_hits =
      sum (fun e -> (pc e).Plan_cache.hits + Plan_cache.shadow_hits (Engine.plan_cache e)) engines;
    pc_misses = sum (fun e -> (pc e).Plan_cache.misses) engines;
    pc_invalidations = sum (fun e -> (pc e).Plan_cache.invalidations) engines;
    io_reads =
      sum (fun e -> (Buffer_pool.stats (Engine.pool e)).Minirel_storage.Io_stats.reads) engines;
    bp_refs = sum (fun e -> (bp e).Cache_stats.references) engines;
    bp_hits = sum (fun e -> (bp e).Cache_stats.hits) engines;
    rebalances = sum (fun e -> Pmv.Manager.rebalances (Engine.manager e)) engines;
    store_refs = sum (fun v -> (store v).Cache_stats.references) views;
    store_hits = sum (fun v -> (store v).Cache_stats.hits) views;
    store_evictions = sum (fun v -> (store v).Cache_stats.evictions) views;
    maint_removed = sum (fun v -> (View.stats v).View.maint_removed) views;
    epoch_retired =
      sum (fun v -> sum (fun (s : Minirel_parallel.Epoch.stats) -> s.retired) (epoch v)) views;
    epoch_in_flight =
      sum (fun v -> sum (fun (s : Minirel_parallel.Epoch.stats) -> s.in_flight) (epoch v)) views;
    pool_submitted = pool_field (fun s -> s.Pool.submitted);
    pool_steals = pool_field (fun s -> s.Pool.steals);
    pool_parks = pool_field (fun s -> s.Pool.parks);
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
  }

(* Cached bytes at the end of the run: the paper's stores (what UB
   bounds) and the epoch probe stores beside them. The router's own
   probe-cache segments are not readable through any public function;
   [cache_live_mb] is what catches them. *)
let resident_bytes (sut : Sut.t) = sum View.size_bytes (Sut.views sut)

let probe_store_bytes (sut : Sut.t) =
  sum (fun v -> Entry_store.tuple_bytes (View.probe_store v)) (Sut.views sut)
