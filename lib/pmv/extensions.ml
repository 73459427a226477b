(* Extensions from Section 3.6: DISTINCT queries, aggregate queries, and
   EXISTS-style nested queries, plus small conveniences built on the
   same O1/O2/O3 machinery. *)

open Minirel_storage
open Minirel_query

(* Per-shape answer counters: how often each §3.6 query shape is
   served, mirroring answer.ml's process-wide metric handles. *)
module Tm = Minirel_telemetry.Telemetry

let c_shape_distinct = Tm.counter "answer.shape.distinct"
let c_shape_grouped = Tm.counter "answer.shape.grouped"
let c_shape_ordered = Tm.counter "answer.shape.ordered"
let c_shape_exists = Tm.counter "answer.shape.exists"

let count_shape c = if Tm.is_enabled () then Minirel_telemetry.Registry.incr c

(* For answer paths assembled outside this module (the shard router):
   count the query once at the routing layer, not once per shard. *)
let note_shape = function
  | `Distinct -> count_shape c_shape_distinct
  | `Grouped -> count_shape c_shape_grouped
  | `Ordered -> count_shape c_shape_ordered
  | `Exists -> count_shape c_shape_exists

(* Per-view shaped-answer count: the budget arbiter's value measure
   weighs shaped traffic alongside plain probe hits (DESIGN.md
   Section 17). *)
let note_view_shape view =
  let s = View.stats view in
  s.View.shaped_queries <- s.View.shaped_queries + 1

(* --- DISTINCT --- *)

(* Answer with set semantics: each distinct result tuple is delivered
   exactly once; partial (PMV-served) tuples keep their early-delivery
   advantage. Implemented as the paper prescribes: only distinct tuples
   from O2 are surfaced, and O3 suppresses anything already delivered. *)
let answer_distinct ?locks ?txn ?probe_path ~view catalog instance ~on_tuple =
  count_shape c_shape_distinct;
  note_view_shape view;
  let seen = Tuple.Table.create 256 in
  let dedup phase tuple =
    if not (Tuple.Table.mem seen tuple) then begin
      Tuple.Table.replace seen tuple ();
      on_tuple phase tuple
    end
  in
  let stats = Answer.answer ?locks ?txn ?probe_path ~view catalog instance ~on_tuple:dedup in
  (stats, Tuple.Table.length seen)

(* --- early termination (Benefit 2) --- *)

exception Stop

(* The first [k] result tuples (hot ones first, since O2 streams before
   execution), terminating the query early once they are in hand.
   Cached tuples serve only while no delta waits in deferred
   maintenance, the rule {!cached_witness} follows: a pending delete
   leaves its tuples in the cache, and stopping early would skip the
   stale purge that drops them. Otherwise the query executes plainly,
   stopped at the k-th row. *)
let answer_first_k ?locks ?txn ~view catalog instance ~k =
  if k <= 0 then invalid_arg "Extensions.answer_first_k: k must be positive";
  let acc = ref [] and n = ref 0 in
  let take t =
    acc := t :: !acc;
    incr n;
    if !n >= k then raise Stop
  in
  (try
     if View.pending_deltas view = [] then
       ignore (Answer.answer ?locks ?txn ~view catalog instance ~on_tuple:(fun _ t -> take t))
     else
       let plan = Minirel_exec.Planner.plan_query catalog instance in
       Minirel_exec.Cursor.iter take (Minirel_exec.Executor.cursor catalog plan)
   with Stop -> ());
  List.rev !acc

(* --- exact grouped aggregation (associative accumulators) --- *)

(* Groups keyed by the projected key tuple, each carrying unfinalized
   accumulators, sorted by key. Kept unfinalized so per-shard partials
   merge associatively (DESIGN.md Section 15); finalize only at the
   very end. *)
type group_acc = (Tuple.t * Aggregate.acc array) list

type grouped_exact = {
  g_partial : group_acc;  (* accumulated over the O2 (PMV-served) phase *)
  g_groups : group_acc;  (* over the whole delivered stream *)
  g_stats : Answer.stats;
}

let collect_groups tbl =
  Tuple.Table.fold (fun key accs out -> (key, accs) :: out) tbl []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let fold_group tbl ~key ~aggs tuple =
  let k = Tuple.project tuple key in
  let accs =
    match Tuple.Table.find_opt tbl k with
    | Some accs -> accs
    | None ->
        let accs = Array.map (fun _ -> Aggregate.create ()) aggs in
        Tuple.Table.add tbl k accs;
        accs
  in
  Array.iteri (fun i spec -> Aggregate.add spec accs.(i) tuple) aggs

(* Exact grouped answer through the O1/O2/O3 pipeline: every delivered
   tuple (exactly once, by the DS identity) folds into its group, so
   the accumulators inherit exactly-once too. *)
let answer_groups ?locks ?txn ?probe_path ~view catalog instance ~key ~aggs =
  count_shape c_shape_grouped;
  note_view_shape view;
  let partial_tbl = Tuple.Table.create 64 and exact_tbl = Tuple.Table.create 64 in
  let on_tuple phase tuple =
    (match phase with
    | Answer.Partial -> fold_group partial_tbl ~key ~aggs tuple
    | Answer.Remaining -> ());
    fold_group exact_tbl ~key ~aggs tuple
  in
  let g_stats = Answer.answer ?locks ?txn ?probe_path ~view catalog instance ~on_tuple in
  { g_partial = collect_groups partial_tbl; g_groups = collect_groups exact_tbl; g_stats }

(* Merge two sorted group lists; on a shared key the right operand's
   accumulators fold into the left's (the left is mutated — call sites
   own their operands). Associative, so shard partials merge in any
   order. *)
let rec merge_groups a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, aa) :: ta, (kb, ab) :: tb ->
      let c = Tuple.compare ka kb in
      if c < 0 then (ka, aa) :: merge_groups ta b
      else if c > 0 then (kb, ab) :: merge_groups a tb
      else begin
        Array.iteri (fun i acc -> Aggregate.merge aa.(i) acc) ab;
        (ka, aa) :: merge_groups ta tb
      end

let finalize_groups ~aggs groups =
  List.map
    (fun (k, accs) -> (k, Array.mapi (fun i acc -> Aggregate.finalize aggs.(i) acc) accs))
    groups

(* O2-only grouped fast path: when every condition part's bcp holds a
   trusted complete version in the view's probe store, the grouped
   answer is assembled from the cache alone, with no O3 execution;
   inexact condition parts filter the cached tuples by the residual
   predicate. [None] on any miss or untrusted version. *)
let probe_groups ~view instance ~key ~aggs =
  let compiled = Instance.compiled instance in
  let store = View.probe_store view in
  let rec go acc = function
    | [] -> Some acc
    | cp :: rest -> (
        match Entry_store.probe store (Condition_part.bcp cp) with
        | Some v when Entry_store.version_trusted store v ->
            let tbl = Tuple.Table.create 8 in
            List.iter
              (fun t ->
                if Condition_part.is_exact cp || Condition_part.check compiled cp t then
                  fold_group tbl ~key ~aggs t)
              v.v_tuples;
            go (merge_groups acc (collect_groups tbl)) rest
        | Some _ | None -> None)
  in
  go [] (Condition_part.decompose instance)

(* --- ORDER BY ... LIMIT k (top-k heap) --- *)

(* The first [k] tuples of the total order [Ordering.cmp ~order] — a
   bounded heap over the whole delivered stream (sorting is blocking,
   so unlike [answer_first_k] the scan cannot stop early; the heap
   bounds memory to k and the result is prefix-exact under the shared
   comparator). *)
let answer_ordered_k ?locks ?txn ?probe_path ~view catalog instance ~order ~k =
  count_shape c_shape_ordered;
  note_view_shape view;
  if k <= 0 then invalid_arg "Extensions.answer_ordered_k: k must be positive";
  let all = ref [] in
  let stats =
    Answer.answer ?locks ?txn ?probe_path ~view catalog instance ~on_tuple:(fun _ t ->
        all := t :: !all)
  in
  let sorted =
    Minirel_exec.Grouping.top_k ~cmp:(Ordering.cmp ~order) ~k
      (Minirel_exec.Cursor.of_list !all)
  in
  (sorted, stats)

(* --- EXISTS nested queries --- *)

(* Witness check for an EXISTS subquery: if the subquery's PMV caches
   any tuple satisfying it, EXISTS is true without touching the engine
   ("a PMV can be used to quickly generate partial results of the
   subquery... the process of checking the EXISTS condition can be sped
   up"). Falls back to executing the subquery until the first tuple.
   Probing uses pure lookups: no recency update, no admission. *)
let cached_witness ?(probe_path = Answer.Locked) ~view instance =
  let compiled = Instance.compiled instance in
  let cps = Condition_part.decompose instance in
  match probe_path with
    | Answer.Locked ->
        (* a cached tuple is a valid witness only while no relevant
           delta is waiting in deferred maintenance *)
        let store = View.store view in
        View.pending_deltas view = []
        && List.exists
             (fun cp ->
               match Entry_store.find store (Condition_part.bcp cp) with
               | None -> false
               | Some entry ->
                   List.exists
                     (fun tuple -> Condition_part.check compiled cp tuple)
                     entry.Entry_store.tuples)
             cps
    | Answer.Epoch ->
        (* lock-free: only a trusted complete version proves freshness *)
        let store = View.probe_store view in
        List.exists
          (fun cp ->
            match Entry_store.probe store (Condition_part.bcp cp) with
            | None -> false
            | Some v ->
                Entry_store.version_trusted store v
                && List.exists
                     (fun tuple -> Condition_part.check compiled cp tuple)
                     v.Entry_store.v_tuples)
          cps

let exists_ ?(probe_path = Answer.Locked) ~view catalog instance =
  count_shape c_shape_exists;
  note_view_shape view;
  if cached_witness ~probe_path ~view instance then (true, `From_pmv)
  else
    let plan = Minirel_exec.Planner.plan_query catalog instance in
    let cursor = Minirel_exec.Executor.cursor catalog plan in
    ((match cursor () with Some _ -> true | None -> false), `Executed)

(* Main query with an EXISTS subquery template: for each candidate
   tuple, build the subquery instance and short-circuit through the
   subquery's PMV. Returns the accepted candidates and how many EXISTS
   checks the PMV answered. *)
let filter_exists ~view catalog ~candidates ~subquery_of =
  let hits = ref 0 in
  let kept =
    List.filter
      (fun candidate ->
        let sub = subquery_of candidate in
        match exists_ ~view catalog sub with
        | true, `From_pmv ->
            incr hits;
            true
        | true, `Executed -> true
        | false, _ -> false)
      candidates
  in
  (kept, !hits)
