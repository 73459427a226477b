(* Template plan cache.

   Planning a template query decomposes into a template-constant part
   (driver choice, join order, predicate structure, projection — see
   Planner.skeleton) and an O(params) binding step. This cache keys
   skeletons by (template name, driver index) and revalidates them
   against the catalog's index-DDL version and a statistics epoch, so a
   steady-state query answers with one Hashtbl probe plus a bind instead
   of a full planning pass — and, more importantly, gets the fast-path
   plan shapes (hash joins for index-less edges, stats-informed join
   order) that only compiled skeletons carry.

   On any error the cache falls back to the uncached planner, so a
   cache bug can cost performance but never correctness. *)

open Minirel_query
module Catalog = Minirel_index.Catalog

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;  (* stale entries recompiled *)
  mutable fallbacks : int;  (* bind failures routed to the full planner *)
}

type entry = {
  skeleton : Planner.skeleton;
  catalog_version : int;  (* Catalog.version at compile time *)
  stats_epoch : int;  (* cache stats epoch at compile time *)
}

type t = {
  catalog : Catalog.t;
  mutable stats : Stats.t option;
  mutable stats_epoch : int;
  mutable enabled : bool;
  table : (string * int, entry) Hashtbl.t;  (* (template, driver) -> entry *)
  counters : counters;
}

let create ?stats catalog =
  {
    catalog;
    stats;
    stats_epoch = 0;
    enabled = true;
    table = Hashtbl.create 16;
    counters = { hits = 0; misses = 0; invalidations = 0; fallbacks = 0 };
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let stats t = t.stats

let set_stats t stats =
  t.stats <- stats;
  t.stats_epoch <- t.stats_epoch + 1

let clear t = Hashtbl.reset t.table
let counters t = t.counters
let size t = Hashtbl.length t.table

let compile t instance =
  {
    skeleton = Planner.compile_skeleton ?stats:t.stats ~fast:true t.catalog instance;
    catalog_version = Catalog.version t.catalog;
    stats_epoch = t.stats_epoch;
  }

let plan t instance =
  if not t.enabled then Planner.plan_query ?stats:t.stats t.catalog instance
  else
    try
      let key =
        let compiled = Instance.compiled instance in
        ( compiled.Template.spec.Template.name,
          Option.value ~default:(-1) (Planner.driver_index ?stats:t.stats t.catalog instance)
        )
      in
      let entry =
        match Hashtbl.find_opt t.table key with
        | Some e
          when e.catalog_version = Catalog.version t.catalog && e.stats_epoch = t.stats_epoch
          ->
            t.counters.hits <- t.counters.hits + 1;
            e
        | Some _ ->
            (* indexes or statistics changed since compilation *)
            t.counters.invalidations <- t.counters.invalidations + 1;
            let e = compile t instance in
            Hashtbl.replace t.table key e;
            e
        | None ->
            t.counters.misses <- t.counters.misses + 1;
            let e = compile t instance in
            Hashtbl.replace t.table key e;
            e
      in
      Planner.bind entry.skeleton (Instance.params instance)
    with _ ->
      t.counters.fallbacks <- t.counters.fallbacks + 1;
      Planner.plan_query ?stats:t.stats t.catalog instance

let counters_to_list c =
  [
    ("hits", c.hits);
    ("misses", c.misses);
    ("invalidations", c.invalidations);
    ("fallbacks", c.fallbacks);
  ]

(* Kept for bench/e2e only: there is no domain-local shadow. *)
let shadow_hits _ = 0

let reset_counters t =
  t.counters.hits <- 0;
  t.counters.misses <- 0;
  t.counters.invalidations <- 0;
  t.counters.fallbacks <- 0

let register_telemetry ?(registry = Minirel_telemetry.Registry.default)
    ?(name = "plancache") t =
  let module R = Minirel_telemetry.Registry in
  R.register_source registry ~name
    ~reset:(fun () -> reset_counters t)
    (fun () ->
      List.map (fun (k, v) -> (k, R.Counter v)) (counters_to_list t.counters)
      @ [
          ("entries", R.Gauge (float_of_int (size t)));
          ("enabled", R.Gauge (if t.enabled then 1.0 else 0.0));
        ])

let pp_counters ppf c =
  Fmt.pf ppf "hits %d  misses %d  invalidations %d  fallbacks %d" c.hits c.misses
    c.invalidations c.fallbacks

let pp ppf t =
  Fmt.pf ppf "plan cache: %d entries, %a%s" (size t) pp_counters t.counters
    (if t.enabled then "" else " (disabled)")
