(* Metric definitions, their values for one run, and the result file.
   BENCHMARK.json mirrors [end_to_end] and [per_layer_units]; the
   smoke test checks that the two agree. *)

module W = Workload

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* Everything a run measured. *)
type run = {
  w : W.t;
  seed : int;
  traced : bool;
  stop : Measure.stop;
  setup_runs_s : float list;
  cache_live_bytes : int;
  heap_peak_bytes : int;
  m : Measure.t;
  summary : Measure.summary;
  layers : (Layers.t * Layers.t) option;  (* before, after the timed phase *)
  resident_bytes : int;
  probe_store_bytes : int;
  span_cost_ns : float;
  spans_recorded : int;
  oracle : Oracle.verdict;
}

let mb bytes = float_of_int bytes /. 1048576.0
let kb bytes = float_of_int bytes /. 1024.0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let total_budget (w : W.t) =
  match w.W.budget with W.Static b -> b | W.Global { total; _ } -> total

let p50 sorted = Dist.percentile sorted 0.5
let p99 sorted = Dist.percentile sorted 0.99

type e2e = { name : string; unit : string; better : better; bound : float; value : run -> float }

let e2e name unit better bound value = { name; unit; better; bound; value }

(* Bounds: the share of the parent's median by which a metric may
   worsen before a change counts as a regression. The timing bounds
   are as wide as the host's run-to-run spread needs (README.md). *)
let end_to_end =
  let s r = r.summary in
  [
    e2e "setup_s" "s" Lower 0.25 (fun r -> Dist.median r.setup_runs_s);
    e2e "ops_per_s" "1/s" Higher 0.25 (fun r -> (s r).Measure.ops_per_s);
    e2e "query_ttfr_p50_us" "us" Lower 0.25 (fun r -> p50 (s r).Measure.ttfr);
    e2e "query_ttfr_p99_us" "us" Lower 0.25 (fun r -> p99 (s r).Measure.ttfr);
    e2e "query_ttc_p50_us" "us" Lower 0.25 (fun r -> p50 (s r).Measure.ttc);
    e2e "query_ttc_p99_us" "us" Lower 0.25 (fun r -> p99 (s r).Measure.ttc);
    e2e "op_p99_us" "us" Lower 0.25 (fun r -> p99 (s r).Measure.op);
    e2e "partial_share" "fraction" Higher 0.15 (fun r ->
        ratio r.m.Measure.plain_partial r.m.Measure.plain_total);
    e2e "cache_live_mb" "MB" Lower 0.15 (fun r -> mb r.cache_live_bytes);
    e2e "heap_peak_mb" "MB" Lower 0.10 (fun r -> mb r.heap_peak_bytes);
  ]

(* Per-layer metrics of the traced run, named after the modules they
   read. Layer times are shares of wall time, so a layer a workload
   never enters reads 0 rather than a time. *)
type ctx = { r : run; before : Layers.t; after : Layers.t }

let d c f = f c.after - f c.before
let m c = c.r.m
let swall c = (m c).Measure.stats_wall_ns
let twall c = (m c).Measure.txn_wall_ns
let shape_p50 c sh = p50 (Measure.class_latencies (m c) (W.shape_index sh))
let over_plain sh c = fratio (shape_p50 c sh) (shape_p50 c W.Plain)
let per_query c n = ratio n (m c).Measure.queries
let per_stats_query c n = ratio n (m c).Measure.stats_queries
let per_op c n = ratio n (m c).Measure.ops
let hits_share c h miss = ratio (d c h) (d c h + d c miss)
let counter c f = float_of_int (d c f)
let gc_per_op c f = fratio (f c.after -. f c.before) (float_of_int (m c).Measure.ops)

let per_layer_defs =
  let open Layers in
  [
    ( "shard_router.fast_hit_share",
      "fraction",
      fun c -> hits_share c (fun l -> l.fast_hits) (fun l -> l.fallbacks) );
    ( "shard_router.probe_share",
      "fraction",
      fun c -> ratio (d c (fun l -> l.router_probe_ns)) (swall c) );
    ( "shard_router.fallbacks_per_query",
      "count/query",
      fun c -> per_query c (d c (fun l -> l.fallbacks)) );
    ( "shard_router.merge_share",
      "fraction",
      fun c -> ratio (m c).Measure.fallback_gap_ns (swall c) );
    ( "shard_router.affinity_hit_share",
      "fraction",
      fun c -> hits_share c (fun l -> l.aff_hits) (fun l -> l.aff_misses) );
    ( "answer.overhead_us_per_query",
      "us",
      fun c -> per_stats_query c (m c).Measure.overhead_ns /. 1e3 );
    ("answer.exec_us_per_query", "us", fun c -> per_stats_query c (m c).Measure.exec_ns /. 1e3);
    ( "answer.probe_hit_share",
      "fraction",
      fun c -> ratio (m c).Measure.probe_hits (m c).Measure.probes );
    ("answer.fills_per_query", "count/query", fun c -> per_stats_query c (m c).Measure.fills);
    ("answer.io_reads_per_query", "count/query", fun c -> per_stats_query c (m c).Measure.io_reads);
    ("answer.stale_purged", "count", fun c -> float_of_int (m c).Measure.stale_purged);
    ("extensions.plain_ttc_p50_us", "us", fun c -> shape_p50 c W.Plain);
    ("extensions.grouped_ttc_over_plain", "ratio", over_plain W.Grouped);
    ("extensions.ordered_ttc_over_plain", "ratio", over_plain W.Ordered);
    ("extensions.exists_ttc_over_plain", "ratio", over_plain W.Exists);
    ( "extensions.exists_from_pmv_share",
      "fraction",
      fun c -> ratio (m c).Measure.exists_from_pmv (m c).Measure.exists );
    ( "entry_store.hit_share",
      "fraction",
      fun c -> ratio (d c (fun l -> l.store_hits)) (d c (fun l -> l.store_refs)) );
    ( "entry_store.evictions_per_query",
      "count/query",
      fun c -> per_query c (d c (fun l -> l.store_evictions)) );
    ("entry_store.resident_kb", "KB", fun c -> kb c.r.resident_bytes);
    ("entry_store.probe_store_kb", "KB", fun c -> kb c.r.probe_store_bytes);
    ("entry_store.ub_kb", "KB", fun c -> kb (total_budget c.r.w));
    ( "entry_store.resident_over_ub",
      "ratio",
      fun c -> ratio c.r.resident_bytes (total_budget c.r.w) );
    ("entry_store.epoch_versions_retired", "count", fun c -> counter c (fun l -> l.epoch_retired));
    ("entry_store.epoch_in_flight_end", "count", fun c -> float_of_int c.after.epoch_in_flight);
    ("maintain.txn_share", "fraction", fun c -> ratio (m c).Measure.txn_maint_ns (twall c));
    ("maintain.removed_tuples", "count", fun c -> counter c (fun l -> l.maint_removed));
    ("maintain.pending_max", "count", fun c -> float_of_int (m c).Measure.pending_max);
    ("txn.base_apply_share", "fraction", fun c -> ratio (m c).Measure.txn_base_ns (twall c));
    ("txn.wall_share", "fraction", fun c -> ratio (twall c) (m c).Measure.wall_ns);
    ("lock_manager.acquires_per_op", "count/op", fun c -> per_op c (d c (fun l -> l.acquires)));
    ("lock_manager.conflicts", "count", fun c -> counter c (fun l -> l.conflicts));
    ( "lock_manager.acquire_share",
      "fraction",
      fun c -> ratio (d c (fun l -> l.acquire_ns)) (m c).Measure.wall_ns );
    ("manager.rebalances", "count", fun c -> counter c (fun l -> l.rebalances));
    ( "manager.rebalance_share",
      "fraction",
      fun c -> ratio (m c).Measure.rebalance_ns (m c).Measure.wall_ns );
    ( "plan_cache.hit_share",
      "fraction",
      fun c -> hits_share c (fun l -> l.pc_hits) (fun l -> l.pc_misses) );
    ("plan_cache.invalidations", "count", fun c -> counter c (fun l -> l.pc_invalidations));
    ("buffer_pool.reads_per_op", "count/op", fun c -> per_op c (d c (fun l -> l.io_reads)));
    ( "buffer_pool.hit_share",
      "fraction",
      fun c -> ratio (d c (fun l -> l.bp_hits)) (d c (fun l -> l.bp_refs)) );
    ( "pool.submitted_per_query",
      "count/query",
      fun c -> per_query c (d c (fun l -> l.pool_submitted)) );
    ("pool.steals", "count", fun c -> counter c (fun l -> l.pool_steals));
    ("pool.parks_per_query", "count/query", fun c -> per_query c (d c (fun l -> l.pool_parks)));
    ("gc.minor_words_per_op", "words/op", fun c -> gc_per_op c (fun l -> l.minor_words));
    ("gc.promoted_words_per_op", "words/op", fun c -> gc_per_op c (fun l -> l.promoted_words));
    ("gc.major_collections", "count", fun c -> counter c (fun l -> l.major_collections));
    ("attr.query_overhead_share", "fraction", fun c -> ratio (m c).Measure.overhead_ns (swall c));
    ("attr.query_exec_share", "fraction", fun c -> ratio (m c).Measure.exec_ns (swall c));
    ( "attr.query_unattributed_share", "fraction",
      fun c ->
        let m = m c in
        ratio
          (swall c - m.Measure.overhead_ns - m.Measure.exec_ns - m.Measure.fallback_gap_ns)
          (swall c) );
    ( "attr.txn_unattributed_share", "fraction",
      fun c -> ratio (twall c - (m c).Measure.txn_base_ns - (m c).Measure.txn_maint_ns) (twall c) );
    ( "trace.overhead_pct", "%",
      fun c ->
        100.0 *. float_of_int c.r.spans_recorded *. c.r.span_cost_ns
        /. float_of_int (max 1 (m c).Measure.wall_ns) );
  ]

let per_layer_units = List.map (fun (n, u, _) -> (n, u)) per_layer_defs

let per_layer r =
  match r.layers with
  | None -> invalid_arg "Report.per_layer: untraced run"
  | Some (before, after) ->
      let c = { r; before; after } in
      List.map (fun (n, u, f) -> (n, u, f c)) per_layer_defs

let failed r = r.m.Measure.failed + List.length r.oracle.Oracle.failures
let attempted r = r.m.Measure.ops + r.oracle.Oracle.checked
let correct r = failed r = 0

let count n = Json.Num (float_of_int n)

(* --- provenance --------------------------------------------------------- *)

(* Lines of the files under [dir] whose names satisfy [keep]; 0 when
   the directory is absent (the smoke test runs inside the build
   tree). *)
let rec count_lines ~keep dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then acc + count_lines ~keep path
          else if keep name then begin
            let ic = open_in_bin path in
            let n = ref 0 in
            (try
               while true do
                 ignore (input_line ic);
                 incr n
               done
             with End_of_file -> ());
            close_in ic;
            acc + !n
          end
          else acc)
        0 names

let baseline_file = Filename.concat "bench" (Filename.concat "e2e" "baseline.json")

let provenance r =
  let ocaml_src name = Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" in
  let baseline =
    match Json.read_file baseline_file with
    | exception (Sys_error _ | Json.Error _) -> Json.Null
    | b -> (
        match Json.member "workloads" b with
        | Some ws -> Option.value (Json.member r.w.W.name ws) ~default:Json.Null
        | None -> Json.Null)
  in
  Json.Obj
    [
      ("host_cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ( "pool_workers",
        count (match r.w.W.target with W.Router -> Sut.pool_workers () | W.Engine -> 0) );
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("lib_lines", Json.Num (float_of_int (count_lines ~keep:ocaml_src "lib")));
      ("tools_lines", Json.Num (float_of_int (count_lines ~keep:(fun _ -> true) "tools")));
      ("baseline", baseline);
    ]

(* --- output ------------------------------------------------------------- *)

let metric_obj l =
  Json.Obj
    (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) l)

let e2e_values r = List.map (fun e -> (e.name, e.unit, e.value r)) end_to_end
let e2e_json r = metric_obj (e2e_values r)
let layer_json r = metric_obj (per_layer r)

(* Sample counts behind the reported percentiles (the quiet windows'
   ops), and how many of the run's slices were quiet. *)
let samples_json r =
  let s = r.summary in
  let n name sorted =
    let n = Array.length sorted in
    (name, Json.Obj [ ("n", count n); ("beyond_p99", count (Dist.beyond ~n 0.99)) ])
  in
  Json.Obj
    [
      n "query" s.Measure.ttc;
      n "ttfr" s.Measure.ttfr;
      n "op" s.Measure.op;
      ("slices", count s.Measure.slices);
      ("quiet_slices", count s.Measure.quiet);
      ("probe_us", Json.Num s.Measure.probe_us);
    ]

let result_json r =
  let m = r.m in
  let w = r.w in
  Json.Obj
    ([
       ("workload", Json.Str w.W.name);
       ("why", Json.Str w.W.why);
       ("traced", Json.Bool r.traced);
       ("seed", count r.seed);
       ("scale", Json.Num w.W.scale);
       ("stream_ops", count w.W.ops);
       ("warmup_ops", count w.W.warmup);
       ( "stop",
         Json.Str
           (match r.stop with
           | Measure.Ops n -> Printf.sprintf "after %d ops" n
           | Measure.Deadline _ -> "at the deadline") );
       ("timed_s", Json.Num (float_of_int m.Measure.wall_ns /. 1e9));
       ("correct", Json.Bool (correct r));
       ("attempted", count (attempted r));
       ("failed", count (failed r));
       ("failed_share", Json.Num (ratio (failed r) (attempted r)));
       ("ops", count m.Measure.ops);
       ("queries", count m.Measure.queries);
       ("txns", count m.Measure.txns);
       ("checksum", Json.Str (Printf.sprintf "%x" m.Measure.checksum));
       ("rows", count m.Measure.rows);
       ("samples", samples_json r);
       ("setup_runs_s", Json.Arr (List.map (fun s -> Json.Num s) r.setup_runs_s));
       ("metrics", e2e_json r);
     ]
    @ (if r.traced then [ ("per_layer", layer_json r) ] else [])
    @ [
        ( "oracle",
          Json.Obj
            [
              ("checked", count r.oracle.Oracle.checked);
              ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.oracle.Oracle.failures));
            ] );
        ("provenance", provenance r);
      ])

(* The line the benchmark ends its standard output with. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", count (attempted r));
         ("failed", count (failed r));
         ("metrics", if r.traced then layer_json r else e2e_json r);
       ])

let print_human ppf r =
  Fmt.pf ppf "%s seed %d%s: %d ops (%d queries, %d txns) in %.2f s, %s@." r.w.W.name r.seed
    (if r.traced then " [traced]" else "")
    r.m.Measure.ops r.m.Measure.queries r.m.Measure.txns
    (float_of_int r.m.Measure.wall_ns /. 1e9)
    (if correct r then "oracle clean" else Printf.sprintf "%d FAILED" (failed r));
  List.iter (fun f -> Fmt.pf ppf "  FAIL %s@." f) r.oracle.Oracle.failures;
  let line (n, u, v) = Fmt.pf ppf "  %-34s %14.4f %s@." n v u in
  List.iter line (e2e_values r);
  if r.traced then List.iter line (per_layer r)
