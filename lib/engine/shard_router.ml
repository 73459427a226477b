(* Hash-partitioned sharding of the PMV pipeline across N engine
   instances (the scale-out the paper's sizing discussion anticipates:
   each shard budgets its own PMV memory, so aggregate cache capacity
   grows with the shard count).

   Partitioning model:
   - a {e hash-partitioned} relation is split by one partition-key
     attribute — in the intended layout the join key, so co-partitioned
     relations join entirely shard-locally;
   - a {e replicated} relation is copied to every shard (the usual
     treatment for small dimension tables).

   Routing:
   - inserts go to the owning shard (hash of the key), replicated
     inserts to every shard;
   - deletes/updates whose predicate pins the partition key (an [=] or
     singleton [IN] in the top-level conjunction) go to the owner;
     otherwise they are broadcast — correct because the shards hold
     disjoint row sets, so each shard only touches its own rows. An
     update may not modify the partition key (it would have to migrate
     the row across shards); this raises [Invalid_argument].
   - deferred maintenance needs no extra routing: a delta is only ever
     produced on the shard that owns the changed rows, and that shard's
     transaction manager drives its own views' maintenance.

   Answering: a query fans out to every shard holding a partitioned
   base relation of its template (shard 0 alone when the template
   touches only replicated relations — every shard would return the
   identical answer). The partial (O2) and remaining (O3) streams
   concatenate; because the shards partition the data, the per-shard
   result multisets are disjoint pieces of the global answer, and the
   DS exactly-once identity survives summation:
     Σ delivered_i = Σ (total_i + stale_purged_i). *)

module Catalog = Minirel_index.Catalog
module Schema = Minirel_storage.Schema
module Value = Minirel_storage.Value
module Template = Minirel_query.Template
module Predicate = Minirel_query.Predicate
module Condition_part = Minirel_query.Condition_part
module Bcp = Minirel_query.Bcp
module Txn = Minirel_txn.Txn
module Export = Minirel_telemetry.Export
module Histogram = Minirel_telemetry.Histogram
module Span = Minirel_telemetry.Span
module Flight = Minirel_telemetry.Flight

module Pool = Minirel_parallel.Pool
module Spsc = Minirel_parallel.Spsc

type part = Hash of int (* partition-key position *) | Replicated

(* Router-level probe cache for one template: complete per-bcp answers
   to the *merged* (cross-shard) query, segmented by bcp hash so the
   aggregate fast-path capacity scales with the shard count — the
   shard-local probe fast path. A hit answers straight out of the
   owning segment: no fan-out, no merge, no pool dispatch. *)
type probe_cache = {
  pc_compiled : Template.compiled;
  pc_segments : Pmv.Entry_store.t array;  (* one per shard, disjoint bcp sets *)
  (* Per-segment fast-path counters, atomic because pool-driven callers
     may race a concurrent reader; indexed like [pc_segments]. Exported
     per (template, shard) through the [router.probe] source and with
     {shard,template} labels in {!prometheus_string}. *)
  pc_hits : int Atomic.t array;  (* probes returning a trusted version *)
  pc_misses : int Atomic.t array;  (* probes finding nothing trusted *)
  pc_installs : int Atomic.t array;  (* complete answers installed *)
}

(* Deterministic, router-owned fast-path counters (the per-run numbers
   the bench embeds); also exported as the [router.probe] source. *)
type probe_stats = {
  mutable fast_hits : int;  (* queries served without fan-out *)
  mutable fallbacks : int;  (* queries that missed and fanned out *)
  mutable probes : int;  (* per-bcp segment probes *)
  mutable probe_hits : int;  (* probes returning a trusted complete version *)
  probe_ns : Histogram.t;  (* latency of the probe phase, hit or miss *)
}

(* One recycled fan-out harness for a shard: the SPSC stream, the
   tuple batch buffer and the interned span label a shard task needs.
   Building these per query was measurable allocation on the fan-out
   path; a slot keyed by shard id hands a stolen shard task the warm
   state the previous fan-out already built. Slots are validated
   against the router's [ddl_epoch] — any DDL (declare/create/index/
   view/load) bumps it and strands every older slot, so a recycled
   queue can never straddle a schema change. *)
type aff_slot = {
  aff_queue : msg Spsc.t;
  aff_buf : (Pmv.Answer.phase * Minirel_storage.Tuple.t) array;
  aff_label : string;  (* "shard%d", precomputed *)
  aff_epoch : int;  (* ddl_epoch the slot was built under *)
}

and msg =
  | Batch of (Pmv.Answer.phase * Minirel_storage.Tuple.t) array
  | Done of Pmv.Answer.stats * bool * Span.t option
  | Fail of exn

(* Engine-affinity counters: how often a fan-out found a warm slot. *)
type aff_stats = {
  aff_hits : int Atomic.t;
  aff_misses : int Atomic.t;  (* slot empty or taken by a racing query *)
  aff_invalidations : int Atomic.t;  (* slot discarded: stale ddl_epoch *)
}

type t = {
  shards : Engine.t array;
  parts : (string, part) Hashtbl.t;  (* relation -> partitioning *)
  probe_caches : (string, probe_cache) Hashtbl.t;  (* template name -> cache *)
  pstats : probe_stats;
  mutable probe_path : Pmv.Answer.probe_path;  (* default for [answer] *)
  (* Domain pool for parallel shard fan-out; externally owned, see
     [set_parallel]. *)
  mutable par : Pool.t option;
  (* Engine-affinity cache: one recyclable fan-out harness per shard,
     taken with an atomic exchange (concurrent queries miss rather
     than share), invalidated by [ddl_epoch]. *)
  aff_slots : aff_slot option Atomic.t array;
  ddl_epoch : int Atomic.t;
  astats : aff_stats;
  (* Router-owned scoped registry holding the router-level sources
     (probe fast path, engine affinity) so [snapshot_merged] carries
     them next to the summed per-shard series. *)
  registry : Minirel_telemetry.Registry.t;
}

let empty_probe_stats () =
  { fast_hits = 0; fallbacks = 0; probes = 0; probe_hits = 0; probe_ns = Histogram.create () }

(* The router-level sources register twice: in the process-global
   registry (visible to [pmvctl metrics] next to engine-level series; a
   newer router takes the name over, following the live instance) and
   in the router's own scoped [registry], which [snapshot_merged] folds
   in so sharded snapshots carry them too. *)
let probe_cache_templates t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.probe_caches [])

(* Per-(template, shard) cache counter rows, template-sorted so
   snapshots and exports stay deterministic. *)
let probe_cache_rows t =
  List.concat_map
    (fun template ->
      let pc = Hashtbl.find t.probe_caches template in
      List.concat
        (List.init (Array.length pc.pc_segments) (fun i ->
             [
               (template, i, "hits", Atomic.get pc.pc_hits.(i));
               (template, i, "misses", Atomic.get pc.pc_misses.(i));
               (template, i, "installs", Atomic.get pc.pc_installs.(i));
             ])))
    (probe_cache_templates t)

let probe_cache_counters t ~template =
  match Hashtbl.find_opt t.probe_caches template with
  | None -> [||]
  | Some pc ->
      Array.init (Array.length pc.pc_segments) (fun i ->
          (Atomic.get pc.pc_hits.(i), Atomic.get pc.pc_misses.(i),
           Atomic.get pc.pc_installs.(i)))

let reset_probe_cache_counters t =
  Hashtbl.iter
    (fun _ pc ->
      let zero = Array.iter (fun c -> Atomic.set c 0) in
      zero pc.pc_hits;
      zero pc.pc_misses;
      zero pc.pc_installs)
    t.probe_caches

let register_probe_telemetry ?(registry = Minirel_telemetry.Registry.default) t =
  let module R = Minirel_telemetry.Registry in
  let ps = t.pstats in
  R.register_source registry ~name:"router.probe"
    ~reset:(fun () ->
      ps.fast_hits <- 0;
      ps.fallbacks <- 0;
      ps.probes <- 0;
      ps.probe_hits <- 0;
      Histogram.reset ps.probe_ns;
      reset_probe_cache_counters t)
    (fun () ->
      [
        ("fast_hits", R.Counter ps.fast_hits);
        ("fallbacks", R.Counter ps.fallbacks);
        ("probes", R.Counter ps.probes);
        ("probe_hits", R.Counter ps.probe_hits);
        ("probe_ns", R.Histogram (Histogram.summary ps.probe_ns));
      ]
      @ List.map
          (fun (template, i, kind, n) ->
            (Printf.sprintf "%s.s%d.%s" template i kind, R.Counter n))
          (probe_cache_rows t))

let register_affinity_telemetry ?(registry = Minirel_telemetry.Registry.default) t =
  let module R = Minirel_telemetry.Registry in
  let a = t.astats in
  R.register_source registry ~name:"router.affinity"
    ~reset:(fun () ->
      Atomic.set a.aff_hits 0;
      Atomic.set a.aff_misses 0;
      Atomic.set a.aff_invalidations 0)
    (fun () ->
      [
        ("aff_hits", R.Counter (Atomic.get a.aff_hits));
        ("aff_misses", R.Counter (Atomic.get a.aff_misses));
        ("aff_invalidations", R.Counter (Atomic.get a.aff_invalidations));
        ("ddl_epoch", R.Counter (Atomic.get t.ddl_epoch));
      ])

let affinity_stats t =
  ( Atomic.get t.astats.aff_hits,
    Atomic.get t.astats.aff_misses,
    Atomic.get t.astats.aff_invalidations )

let ddl_epoch t = Atomic.get t.ddl_epoch

(* Any schema-shape change strands every outstanding affinity slot:
   bump the epoch and drop what is parked right now (slots checked out
   by in-flight queries age out on their put-back epoch check). *)
let bump_ddl_epoch t =
  Atomic.incr t.ddl_epoch;
  Array.iter (fun slot -> Atomic.set slot None) t.aff_slots

let create ?pool_capacity ?default_f_max ?default_policy ~shards () =
  if shards <= 0 then invalid_arg "Shard_router.create: shards must be positive";
  let t =
    {
      shards =
        Array.init shards (fun i ->
            Engine.scoped
              ~name:(Printf.sprintf "shard%d" i)
              ?pool_capacity ?default_f_max ?default_policy ());
      parts = Hashtbl.create 8;
      probe_caches = Hashtbl.create 8;
      pstats = empty_probe_stats ();
      probe_path = Pmv.Answer.Locked;
      par = None;
      aff_slots = Array.init shards (fun _ -> Atomic.make None);
      ddl_epoch = Atomic.make 0;
      astats =
        {
          aff_hits = Atomic.make 0;
          aff_misses = Atomic.make 0;
          aff_invalidations = Atomic.make 0;
        };
      registry = Minirel_telemetry.Registry.create ();
    }
  in
  register_probe_telemetry t;
  register_affinity_telemetry t;
  register_probe_telemetry ~registry:t.registry t;
  register_affinity_telemetry ~registry:t.registry t;
  t

let parallel t = t.par
(* The pool threads down to every shard engine: a shard task running
   on a pool worker then forks its O3 morsel batches into that
   worker's deque (Pool.map fork-join), where idle domains steal them
   — the morsel path is stealable end to end instead of running
   inline inside one shard task. *)
let set_parallel t pool =
  t.par <- pool;
  Array.iter (fun e -> Engine.set_parallel e pool) t.shards
let probe_path t = t.probe_path

(* Switch the default read path for [answer]; [Epoch] also threads down
   to each consulted shard's own probe fast path. *)
let set_probe_path t path =
  t.probe_path <- path;
  Array.iter (fun e -> Engine.set_probe_path e path) t.shards

let probe_stats t = t.pstats
let probe_summary t = Histogram.summary t.pstats.probe_ns

let reset_probe_stats t =
  let ps = t.pstats in
  ps.fast_hits <- 0;
  ps.fallbacks <- 0;
  ps.probes <- 0;
  ps.probe_hits <- 0;
  Histogram.reset ps.probe_ns;
  reset_probe_cache_counters t

let n_shards t = Array.length t.shards
let shard t i = t.shards.(i)
let shards t = Array.to_list t.shards

let partitioning t ~rel = Hashtbl.find_opt t.parts rel

(* Owning shard of one partition-key value. Ints hash to themselves so
   co-partitioned relations sharing integer keys land together. *)
let shard_of_value t v =
  let h =
    match (v : Value.t) with Value.Int i -> i land max_int | v -> Hashtbl.hash v
  in
  h mod Array.length t.shards

(* --- DDL --------------------------------------------------------------- *)

(* Record how [schema]'s relation partitions without creating it — for
   relations that already live in a catalog about to be [load_from]'d.
   [part] is [`Hash attr] (partition by that attribute) or
   [`Replicated]. *)
let declare t schema ~part =
  let rel = Schema.name schema in
  let part =
    match part with
    | `Replicated -> Replicated
    | `Hash attr -> (
        match Schema.pos_opt schema attr with
        | Some pos -> Hash pos
        | None ->
            invalid_arg
              (Printf.sprintf "Shard_router: %s has no attribute %s" rel attr))
  in
  Hashtbl.replace t.parts rel part;
  bump_ddl_epoch t

(* Create [schema]'s relation on every shard under [part]. *)
let create_relation t schema ~part =
  declare t schema ~part;
  Array.iter (fun e -> ignore (Catalog.create_relation (Engine.catalog e) schema)) t.shards

let create_index t ?kind ~rel ~name ~attrs () =
  Array.iter
    (fun e -> ignore (Catalog.create_index (Engine.catalog e) ?kind ~rel ~name ~attrs ()))
    t.shards;
  bump_ddl_epoch t

(* --- DML routing ------------------------------------------------------- *)

let all_shards t = List.init (Array.length t.shards) Fun.id

(* Shards a change must run on. *)
let targets t (change : Txn.change) =
  match change with
  | Txn.Insert { rel; tuple } -> (
      match Hashtbl.find_opt t.parts rel with
      | Some (Hash pos) -> [ shard_of_value t tuple.(pos) ]
      | Some Replicated | None -> all_shards t)
  | Txn.Delete { rel; pred } -> (
      match Hashtbl.find_opt t.parts rel with
      | Some (Hash pos) -> (
          match Predicate.pinned_value pos pred with
          | Some v -> [ shard_of_value t v ]
          | None -> all_shards t)
      | Some Replicated | None -> all_shards t)
  | Txn.Update { rel; pred; set } -> (
      match Hashtbl.find_opt t.parts rel with
      | Some (Hash pos) ->
          if List.mem_assoc pos set then
            invalid_arg
              (Printf.sprintf
                 "Shard_router: update may not modify the partition key of %s" rel);
          (match Predicate.pinned_value pos pred with
          | Some v -> [ shard_of_value t v ]
          | None -> all_shards t)
      | Some Replicated | None -> all_shards t)

(* Untrust router-level complete answers for every template ranging
   over a changed relation; one atomic bump per affected segment. *)
let invalidate_probe_caches t changes =
  let rels =
    List.sort_uniq String.compare
      (List.map
         (function
           | Txn.Insert { rel; _ } | Txn.Delete { rel; _ } | Txn.Update { rel; _ } -> rel)
         changes)
  in
  Hashtbl.iter
    (fun _ pc ->
      let trels = pc.pc_compiled.Template.spec.Template.relations in
      if List.exists (fun r -> Array.exists (String.equal r) trels) rels then
        Array.iter Pmv.Entry_store.invalidate_complete pc.pc_segments)
    t.probe_caches

(* Run a transaction, routing each change to its owning shard(s).
   Returns the per-shard deltas as [(shard index, deltas)] for the
   shards that ran anything. Router probe caches are invalidated even
   when a shard fails mid-transaction (shard-local faults may have
   committed sibling shards' changes already). *)
let run t changes =
  Fun.protect ~finally:(fun () -> invalidate_probe_caches t changes) @@ fun () ->
  let n = Array.length t.shards in
  let per = Array.make n [] in
  List.iter
    (fun change -> List.iter (fun s -> per.(s) <- change :: per.(s)) (targets t change))
    changes;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if per.(i) <> [] then out := (i, Engine.run t.shards.(i) (List.rev per.(i))) :: !out
  done;
  !out

(* --- views ------------------------------------------------------------- *)

(* Create the template's PMV on every shard. [capacity]/[ub_bytes] are
   per shard: the aggregate cache budget scales with the shard count,
   which is precisely the scale-out lever. *)
let create_view ?policy ?f_max ?capacity ?ub_bytes t compiled =
  let views =
    Array.map
      (fun e ->
        Pmv.Manager.create_view ?policy ?f_max ?capacity ?ub_bytes (Engine.manager e)
          compiled)
      t.shards
  in
  (* Router-level probe cache: one segment per shard, each sized like a
     shard view's probe store (4x its paper store — see View.create),
     holding complete merged answers bounded at 64 tuples per bcp.
     Aggregate fast-path capacity therefore scales with the shard
     count, while the 1-shard router matches the engine's own probe
     store entry for entry. *)
  let seg_capacity = Pmv.Entry_store.capacity (Pmv.View.probe_store views.(0)) in
  let n = Array.length t.shards in
  let counters () = Array.init n (fun _ -> Atomic.make 0) in
  Hashtbl.replace t.probe_caches compiled.Template.spec.Template.name
    {
      pc_compiled = compiled;
      pc_segments =
        Array.init n (fun _ -> Pmv.Entry_store.create ~capacity:seg_capacity ~f_max:64 ());
      pc_hits = counters ();
      pc_misses = counters ();
      pc_installs = counters ();
    };
  bump_ddl_epoch t;
  views

(* Shards a template's answer must consult: all of them as soon as any
   base relation is hash-partitioned, only shard 0 when every relation
   is replicated (each shard holds the identical copy). *)
let template_shards t compiled =
  let rels = compiled.Template.spec.Template.relations in
  let partitioned =
    Array.exists
      (fun rel ->
        match Hashtbl.find_opt t.parts rel with Some (Hash _) -> true | _ -> false)
      rels
  in
  if partitioned then all_shards t else [ 0 ]

(* --- answering --------------------------------------------------------- *)

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (if Int64.compare x y <= 0 then x else y)

(* Sum per-shard answer stats. Counters and times add (the single-core
   interpretation: total work); first-tuple latencies take the min —
   the user saw the first tuple when the first shard produced one. The
   DS identity is preserved: summing delivered = total + purged over
   shards keeps the equation exact. *)
let merge_stats (a : Pmv.Answer.stats) (b : Pmv.Answer.stats) =
  {
    Pmv.Answer.h = max a.Pmv.Answer.h b.Pmv.Answer.h;
    probes = a.Pmv.Answer.probes + b.Pmv.Answer.probes;
    probe_hits = a.Pmv.Answer.probe_hits + b.Pmv.Answer.probe_hits;
    partial_count = a.Pmv.Answer.partial_count + b.Pmv.Answer.partial_count;
    total_count = a.Pmv.Answer.total_count + b.Pmv.Answer.total_count;
    filled = a.Pmv.Answer.filled + b.Pmv.Answer.filled;
    overhead_ns = Int64.add a.Pmv.Answer.overhead_ns b.Pmv.Answer.overhead_ns;
    exec_ns = Int64.add a.Pmv.Answer.exec_ns b.Pmv.Answer.exec_ns;
    first_partial_ns = min_opt a.Pmv.Answer.first_partial_ns b.Pmv.Answer.first_partial_ns;
    first_exec_ns = min_opt a.Pmv.Answer.first_exec_ns b.Pmv.Answer.first_exec_ns;
    io_reads = a.Pmv.Answer.io_reads + b.Pmv.Answer.io_reads;
    io_writes = a.Pmv.Answer.io_writes + b.Pmv.Answer.io_writes;
    stale_purged = a.Pmv.Answer.stale_purged + b.Pmv.Answer.stale_purged;
  }

(* Per-shard stream messages ([msg], declared with the affinity slot
   type above) flow producer (shard task) to consumer (the merging
   caller) over a bounded SPSC queue. Tuples travel in morsel batches,
   not singly: the producer coalesces up to [tuple_batch] of them per
   message, so the queue's mutex/condvar handshake is paid once per
   chunk instead of once per tuple. [Done] carries the shard task's
   finished span subtree when the query is traced: spans are built
   shard-locally (each task owns its private trace, so no cross-domain
   mutation) and grafted onto the caller's trace in shard order by the
   consumer — one stitched tree per query. *)

(* Tuples per [Batch] message. *)
let tuple_batch = 64

(* Bounds how far any shard can run ahead of the merge (backpressure),
   in messages — up to [shard_stream_capacity * tuple_batch] buffered
   tuples per shard; roomy enough that shards rarely stall on the
   consumer. *)
let shard_stream_capacity = 64

(* Check out shard [i]'s fan-out harness, or build a cold one. The
   atomic exchange means two concurrent queries over the same shard
   never share a slot — the loser takes a fresh harness and counts a
   miss. A hit hands the (possibly stolen) shard task the queue,
   batch buffer and span label the previous fan-out warmed up. *)
let aff_take t i =
  let epoch = Atomic.get t.ddl_epoch in
  match Atomic.exchange t.aff_slots.(i) None with
  | Some slot when slot.aff_epoch = epoch ->
      Atomic.incr t.astats.aff_hits;
      slot
  | prior ->
      if Option.is_some prior then Atomic.incr t.astats.aff_invalidations
      else Atomic.incr t.astats.aff_misses;
      {
        aff_queue = Spsc.create ~capacity:shard_stream_capacity;
        aff_buf = Array.make tuple_batch (Pmv.Answer.Partial, [||]);
        aff_label = Printf.sprintf "shard%d" i;
        aff_epoch = epoch;
      }

(* Park the harness for the next fan-out — only once its queue is
   fully drained (the consumer always pops through [Done]/[Fail], so
   recycling never observes a non-empty queue). A slot that aged past
   a DDL bump is dropped; a slot already re-parked by a racing query
   is simply discarded. *)
let aff_put t i slot =
  if slot.aff_epoch = Atomic.get t.ddl_epoch then
    ignore (Atomic.compare_and_set t.aff_slots.(i) None (Some slot))

(* Parallel fan-out: one pool task per target shard, each answering on
   its own single-owner engine and streaming through its own SPSC
   queue. The consumer drains the queues in shard order, so the merged
   stream is tuple-for-tuple the sequential one.

   The merge cannot starve under work stealing — the argument that
   replaced the old "pool dispatch is FIFO" invariant: shard tasks
   enter the pool's injector in shard order and are *claimed* in that
   order (a worker only takes injector work when its own deque is
   empty, and deques hold only finite descendants of already-running
   tasks), so when the consumer blocks on shard i every earlier
   shard's task has already completed and shard i's task is running
   or is the next external claim; thieves steal the oldest fork
   first, so stolen morsel work inside a shard task finishes in fork
   order too. Property-tested in test_parallel.ml (steal storms never
   change the merged stream).

   Early termination changes shape here: when [on_tuple] raises, shard
   tasks cannot be cancelled, so remaining queues are drained and
   discarded until every producer settles (a blocked producer would
   otherwise poison the pool), then the first exception re-raises. *)
let answer_parallel ?trace pool ~probe_path t targets instance ~on_tuple =
  let traced = Option.is_some trace in
  let queues = List.map (fun i -> (i, aff_take t i)) targets in
  List.iter
    (fun (i, slot) ->
      let q = slot.aff_queue in
      Pool.submit pool (fun () ->
          (* Task-private span subtree: started on the worker domain,
             finished before shipment, attached by the consumer. *)
          let sub =
            if not traced then None
            else begin
              let s = Span.start slot.aff_label in
              Span.kv s "shard" (string_of_int i);
              Span.kv s "domain" (string_of_int (Domain.self () :> int));
              (match Pool.worker_index () with
              | Some w -> Span.kv s "worker" (string_of_int w)
              | None -> ());
              Some s
            end
          in
          let buf = slot.aff_buf in
          let bn = ref 0 in
          let flush () =
            if !bn > 0 then begin
              Spsc.push q (Batch (Array.sub buf 0 !bn));
              bn := 0
            end
          in
          let finished () =
            Option.map
              (fun s ->
                Span.finish s;
                Span.root s)
              sub
          in
          match
            Engine.answer ~probe_path ?trace:sub t.shards.(i) instance
              ~on_tuple:(fun phase tuple ->
                buf.(!bn) <- (phase, tuple);
                incr bn;
                if !bn = tuple_batch then flush ())
          with
          | stats, used ->
              flush ();
              Spsc.push q (Done (stats, used, finished ()))
          | exception exn ->
              (* tuples already delivered before the failure still
                 reach the consumer, exactly as unbatched pushes did *)
              ignore (finished ());
              flush ();
              Spsc.push q (Fail exn)))
    queues;
  let failure = ref None in
  let note exn = if Option.is_none !failure then failure := Some exn in
  let results =
    List.map
      (fun (i, slot) ->
        let q = slot.aff_queue in
        let rec drain () =
          match Spsc.pop q with
          | Batch items ->
              Array.iter
                (fun (phase, tuple) ->
                  if Option.is_none !failure then
                    try on_tuple phase tuple with exn -> note exn)
                items;
              drain ()
          | Done (stats, used, sub) ->
              (match (trace, sub) with
              | Some tr, Some s -> Span.attach tr s
              | _ -> ());
              Some (stats, used)
          | Fail exn ->
              note exn;
              None
        in
        let r = drain () in
        (* producer settled (it pushed Done/Fail last) and the queue is
           drained: safe to park the harness for the next fan-out *)
        aff_put t i slot;
        r)
      queues
  in
  match !failure with
  | Some exn -> raise exn
  | None ->
      List.fold_left
        (fun acc r ->
          match (acc, r) with
          | None, r -> r
          | acc, None -> acc
          | Some (s, u), Some (s', u') -> Some (merge_stats s s', u && u'))
        None results
      |> Option.get

(* Fan out to the target shards: parallel when a pool with >= 2 workers
   is attached (or passed), >= 2 targets, no profile (Exec_stats trees
   are single-owner) and the caller is not itself a pool worker (a
   worker-side [submit] runs inline, so a worker-driven fan-out would
   produce into its own un-drained SPSC queues); sequential otherwise.
   Either way the merged stream is identical to the sequential one. *)
let answer_fanout ?par ?profile ?trace ~probe_path t targets instance ~on_tuple =
  let pool = match par with Some _ -> par | None -> t.par in
  match pool with
  | Some pool
    when Pool.size pool >= 2 && List.length targets >= 2 && Option.is_none profile
         && Pool.worker_index () = None ->
      answer_parallel ?trace pool ~probe_path t targets instance ~on_tuple
  | _ -> (
      List.fold_left
        (fun acc i ->
          (* sequential fan-out: the shard span opens inline on the
             caller's trace, same shape as the grafted parallel one *)
          (match trace with
          | Some tr ->
              Span.enter tr (Printf.sprintf "shard%d" i);
              Span.kv tr "shard" (string_of_int i);
              Span.kv tr "domain" (string_of_int (Domain.self () :> int))
          | None -> ());
          let stats, used =
            match Engine.answer ?profile ?trace ~probe_path t.shards.(i) instance ~on_tuple with
            | r ->
                Option.iter Span.leave trace;
                r
            | exception exn ->
                Option.iter Span.leave trace;
                raise exn
          in
          match acc with
          | None -> Some (stats, used)
          | Some (acc_stats, acc_used) ->
              Some (merge_stats acc_stats stats, acc_used && used))
        None targets
      |> function
      | Some r -> r
      | None -> assert false (* targets is never empty *))

(* The shard-local probe fast path: serve the whole query from the
   template's router-level probe cache when every bcp holds a trusted
   (complete, stamp-current) version in its owning segment. A hit
   streams straight out of the segments — no fan-out, no merge, no pool
   dispatch. A miss falls back to the full fan-out while capturing each
   exact bcp's merged delivered stream; when the summed stats prove the
   stream exact ([stale_purged = 0]), the captures install as complete
   answers stamped with the segments' pre-query stamps — a delta racing
   the query bumps a stamp first, so a losing install publishes
   already-untrusted. *)
let answer_epoch ?par ?profile ?trace t pc instance ~on_tuple =
  let compiled = pc.pc_compiled in
  let ps = t.pstats in
  let nseg = Array.length pc.pc_segments in
  let seg_idx bcp = (Bcp.hash bcp land max_int) mod nseg in
  let t0 = Pmv.Answer.now () in
  let stamps = Array.map Pmv.Entry_store.current_stamp pc.pc_segments in
  let cps = Condition_part.decompose instance in
  let h = List.length cps in
  (* probe each distinct bcp once, memoising the trusted version *)
  let memo = Bcp.Table.create (2 * h) in
  let n_probed = ref 0 and n_hits = ref 0 in
  Option.iter (fun tr -> Span.enter tr "router.probe") trace;
  let all_hit =
    List.for_all
      (fun cp ->
        let bcp = Condition_part.bcp cp in
        Bcp.Table.mem memo bcp
        ||
        begin
          incr n_probed;
          let si = seg_idx bcp in
          let seg = pc.pc_segments.(si) in
          match Pmv.Entry_store.probe seg bcp with
          | Some v when Pmv.Entry_store.version_trusted seg v ->
              incr n_hits;
              Atomic.incr pc.pc_hits.(si);
              Flight.record Flight.Probe_hit ~a:si ~b:(Bcp.hash bcp land 0xffff);
              Bcp.Table.replace memo bcp v;
              true
          | Some _ | None ->
              Atomic.incr pc.pc_misses.(si);
              Flight.record Flight.Probe_miss ~a:si ~b:(Bcp.hash bcp land 0xffff);
              false
        end)
      cps
  in
  Histogram.record ps.probe_ns (Int64.sub (Pmv.Answer.now ()) t0);
  ps.probes <- ps.probes + !n_probed;
  ps.probe_hits <- ps.probe_hits + !n_hits;
  Option.iter
    (fun tr ->
      Span.kv tr "probes" (string_of_int !n_probed);
      Span.kv tr "probe_hits" (string_of_int !n_hits);
      Span.kv tr "path" (if all_hit then "router_cache" else "router_fallback");
      Span.leave tr)
    trace;
  if all_hit then begin
    ps.fast_hits <- ps.fast_hits + 1;
    let delivered = ref 0 in
    let first = ref None in
    (* stream per condition part, mirroring O2's delivery multiset *)
    List.iter
      (fun cp ->
        let v = Bcp.Table.find memo (Condition_part.bcp cp) in
        List.iter
          (fun tuple ->
            if Condition_part.is_exact cp || Condition_part.check compiled cp tuple
            then begin
              on_tuple Pmv.Answer.Partial tuple;
              incr delivered;
              if !first = None then first := Some (Int64.sub (Pmv.Answer.now ()) t0)
            end)
          v.Pmv.Entry_store.v_tuples)
      cps;
    ( {
        Pmv.Answer.h;
        probes = !n_probed;
        probe_hits = !n_hits;
        partial_count = !delivered;
        total_count = !delivered;
        filled = 0;
        overhead_ns = Int64.sub (Pmv.Answer.now ()) t0;
        exec_ns = 0L;
        first_partial_ns = !first;
        first_exec_ns = None;
        io_reads = 0;
        io_writes = 0;
        stale_purged = 0;
      },
      true )
  end
  else begin
    ps.fallbacks <- ps.fallbacks + 1;
    (* Capture the merged delivered stream per exact bcp (an exact cp is
       its bcp's only cp, the cps being non-overlapping, so the capture
       is the bcp's whole merged answer). Cells are pre-created so empty
       answers install too; one-over the segment bound marks overflow. *)
    let seg_fmax = Pmv.Entry_store.f_max pc.pc_segments.(0) in
    let captures = Bcp.Table.create (2 * h) in
    List.iter
      (fun cp ->
        if Condition_part.is_exact cp then begin
          let bcp = Condition_part.bcp cp in
          if not (Bcp.Table.mem captures bcp) then
            Bcp.Table.replace captures bcp (ref [], ref 0)
        end)
      cps;
    let capturing phase tuple =
      on_tuple phase tuple;
      match
        Bcp.Table.find_opt captures (Condition_part.bcp_of_result compiled tuple)
      with
      | Some (lst, n) ->
          if !n <= seg_fmax then begin
            lst := tuple :: !lst;
            incr n
          end
      | None -> ()
    in
    let targets = template_shards t compiled in
    (* the shards answer on the classic locked path: the router-level
       cache subsumes their per-view probe stores for routed templates,
       and stacking both epoch layers would pay O1 and the capture
       bookkeeping twice per miss *)
    Option.iter (fun tr -> Span.enter tr "router.fallback") trace;
    let ((stats, _) as result) =
      match
        answer_fanout ?par ?profile ?trace ~probe_path:Pmv.Answer.Locked t targets
          instance ~on_tuple:capturing
      with
      | r ->
          Option.iter Span.leave trace;
          r
      | exception exn ->
          Option.iter Span.leave trace;
          raise exn
    in
    if stats.Pmv.Answer.stale_purged = 0 then
      Bcp.Table.iter
        (fun bcp (lst, n) ->
          if !n <= seg_fmax then begin
            let si = seg_idx bcp in
            if Pmv.Entry_store.install_complete pc.pc_segments.(si) bcp !lst
                 ~stamp:stamps.(si)
            then Atomic.incr pc.pc_installs.(si)
          end)
        captures;
    result
  end

(* Answer [instance] across the template's shards, streaming each
   shard's O2 partials and O3 remainder through [on_tuple]. Returns the
   summed stats and whether every consulted shard answered through a
   view. With a pool attached ([set_parallel]) or passed ([par]) and at
   least two target shards, the per-shard answers run concurrently;
   profiled runs stay sequential (Exec_stats trees are single-owner).
   Either way the merged stream is identical to the sequential one.
   Under [probe_path = Epoch] (per call, or the [set_probe_path]
   default) the router first tries the shard-local probe fast path. *)
let answer ?par ?profile ?probe_path ?trace t instance ~on_tuple =
  let compiled = Minirel_query.Instance.compiled instance in
  let path = match probe_path with Some p -> p | None -> t.probe_path in
  Option.iter
    (fun tr -> Span.kv tr "probe_path" (Pmv.Answer.probe_path_to_string path))
    trace;
  match
    (path, Hashtbl.find_opt t.probe_caches compiled.Template.spec.Template.name)
  with
  | Pmv.Answer.Epoch, Some pc -> answer_epoch ?par ?profile ?trace t pc instance ~on_tuple
  | _ ->
      answer_fanout ?par ?profile ?trace ~probe_path:path t (template_shards t compiled)
        instance ~on_tuple

exception Enough

(* First [k] result tuples across the shards (each shard's hot cached
   tuples first), stopping all execution as soon as k are in hand. *)
let answer_first_k t instance ~k =
  if k <= 0 then invalid_arg "Shard_router.answer_first_k: k must be positive";
  let targets = template_shards t (Minirel_query.Instance.compiled instance) in
  let acc = ref [] and got = ref 0 in
  (try
     List.iter
       (fun i ->
         let e = t.shards.(i) in
         let template =
           (Minirel_query.Instance.compiled instance).Template.spec.Template.name
         in
         let want = k - !got in
         let rows =
           match Engine.find_view e ~template with
           | Some view ->
               Pmv.Extensions.answer_first_k ~locks:(Engine.locks e) ~view
                 (Engine.catalog e) instance ~k:want
           | None ->
               (* no view on this shard: plain answer, stopped early *)
               let rows = ref [] and n = ref 0 in
               (try
                  ignore
                    (Engine.answer e instance ~on_tuple:(fun _ tuple ->
                         rows := tuple :: !rows;
                         incr n;
                         if !n >= want then raise Pmv.Extensions.Stop))
                with Pmv.Extensions.Stop -> ());
               List.rev !rows
         in
         acc := !acc @ rows;
         got := !got + List.length rows;
         if !got >= k then raise Enough)
       targets
   with Enough -> ());
  !acc

(* --- §3.6 query shapes across shards ----------------------------------- *)

module Tuple = Minirel_storage.Tuple
module Aggregate = Minirel_query.Aggregate
module Ordering = Minirel_query.Ordering

(* Sharded GROUP BY: each target shard folds its own delivered stream
   into shard-local accumulators, and only those — one unfinalized
   accumulator array per group, not tuples — cross the shard boundary;
   the router merges them per group with [Extensions.merge_groups].
   Nothing is recomputed over the union: the per-shard streams are
   disjoint pieces of the global answer, the accumulators are
   associative, and AVG stays mergeable because it travels as
   SUM+COUNT. With a pool attached the shard folds run concurrently
   (group merging is order-insensitive, unlike the streamed tuple
   order, so no in-order queue discipline is needed). *)
let answer_grouped ?par ?probe_path t instance ~key ~aggs =
  Pmv.Extensions.note_shape `Grouped;
  let compiled = Minirel_query.Instance.compiled instance in
  let path = match probe_path with Some p -> p | None -> t.probe_path in
  let targets = Array.of_list (template_shards t compiled) in
  (* Under the epoch path a grouped miss warms the router cache exactly
     like a plain epoch miss: each shard captures its own delivered
     stream per exact bcp, bounded at the segment f_max, so what
     crosses the shard boundary on top of the accumulator arrays stays
     small. When the merged stats prove the stream exact the per-shard
     captures concatenate into complete merged answers stamped with the
     segments' pre-query stamps — subsequent grouped (and plain) probes
     of those bcps take the fast path. *)
  let install_ctx =
    match path with
    | Pmv.Answer.Locked -> None
    | Pmv.Answer.Epoch -> (
        match
          Hashtbl.find_opt t.probe_caches compiled.Template.spec.Template.name
        with
        | None -> None
        | Some pc ->
            let stamps = Array.map Pmv.Entry_store.current_stamp pc.pc_segments in
            let seen = Bcp.Table.create 8 in
            let exact_bcps =
              List.filter_map
                (fun cp ->
                  let bcp = Condition_part.bcp cp in
                  if Condition_part.is_exact cp && not (Bcp.Table.mem seen bcp)
                  then begin
                    Bcp.Table.replace seen bcp ();
                    Some bcp
                  end
                  else None)
                (Condition_part.decompose instance)
            in
            Some (pc, stamps, exact_bcps, Pmv.Entry_store.f_max pc.pc_segments.(0)))
  in
  let shard_fold i =
    let partial_tbl = Tuple.Table.create 32 and exact_tbl = Tuple.Table.create 32 in
    let captures =
      match install_ctx with
      | None -> None
      | Some (_, _, exact_bcps, seg_fmax) ->
          let tbl = Bcp.Table.create (2 * List.length exact_bcps + 1) in
          List.iter (fun bcp -> Bcp.Table.replace tbl bcp (ref [], ref 0)) exact_bcps;
          Some (tbl, seg_fmax)
    in
    let stats, used =
      Engine.answer ~probe_path:path t.shards.(i) instance ~on_tuple:(fun phase tuple ->
          (match phase with
          | Pmv.Answer.Partial -> Pmv.Extensions.fold_group partial_tbl ~key ~aggs tuple
          | Pmv.Answer.Remaining -> ());
          Pmv.Extensions.fold_group exact_tbl ~key ~aggs tuple;
          match captures with
          | None -> ()
          | Some (tbl, seg_fmax) -> (
              match
                Bcp.Table.find_opt tbl (Condition_part.bcp_of_result compiled tuple)
              with
              | Some (lst, n) ->
                  (* one-over the segment bound marks overflow *)
                  if !n <= seg_fmax then begin
                    lst := tuple :: !lst;
                    incr n
                  end
              | None -> ()))
    in
    ( Pmv.Extensions.collect_groups partial_tbl,
      Pmv.Extensions.collect_groups exact_tbl,
      stats,
      used,
      captures )
  in
  let pool = match par with Some _ -> par | None -> t.par in
  let per_shard =
    match pool with
    | Some pool when Pool.size pool >= 2 && Array.length targets >= 2 ->
        Pool.map pool shard_fold targets
    | _ -> Array.map shard_fold targets
  in
  Array.fold_left
    (fun acc (p, g, s, u, _) ->
      match acc with
      | None -> Some (p, g, s, u)
      | Some (ap, ag, astats, aused) ->
          Some
            ( Pmv.Extensions.merge_groups ap p,
              Pmv.Extensions.merge_groups ag g,
              merge_stats astats s,
              aused && u ))
    None per_shard
  |> function
  | Some (g_partial, g_groups, g_stats, used) ->
      (match install_ctx with
      | Some (pc, stamps, exact_bcps, seg_fmax)
        when g_stats.Pmv.Answer.stale_purged = 0 ->
          let nseg = Array.length pc.pc_segments in
          let seg_idx bcp = (Bcp.hash bcp land max_int) mod nseg in
          List.iter
            (fun bcp ->
              let total = ref 0 and tuples = ref [] in
              Array.iter
                (fun (_, _, _, _, captures) ->
                  match captures with
                  | Some (tbl, _) -> (
                      match Bcp.Table.find_opt tbl bcp with
                      | Some (lst, n) ->
                          total := !total + !n;
                          tuples := List.rev_append !lst !tuples
                      | None -> ())
                  | None -> ())
                per_shard;
              if !total <= seg_fmax then begin
                let si = seg_idx bcp in
                if
                  Pmv.Entry_store.install_complete pc.pc_segments.(si) bcp !tuples
                    ~stamp:stamps.(si)
                then Atomic.incr pc.pc_installs.(si)
              end)
            exact_bcps
      | _ -> ());
      ({ Pmv.Extensions.g_partial; g_groups; g_stats }, used)
  | None -> assert false (* targets is never empty *)

(* Router-cache grouped fast path: when every bcp of the instance holds
   a trusted complete version in the template's router-level probe
   cache, the grouped answer folds straight out of the owning segments
   — no fan-out, no execution. [None] on any miss (fall back to
   {!answer_grouped}). *)
let probe_grouped t instance ~key ~aggs =
  let compiled = Minirel_query.Instance.compiled instance in
  match Hashtbl.find_opt t.probe_caches compiled.Template.spec.Template.name with
  | None -> None
  | Some pc ->
      let nseg = Array.length pc.pc_segments in
      let seg_idx bcp = (Bcp.hash bcp land max_int) mod nseg in
      let tbl = Tuple.Table.create 32 in
      let rec go = function
        | [] -> Some (Pmv.Extensions.collect_groups tbl)
        | cp :: rest -> (
            let bcp = Condition_part.bcp cp in
            let seg = pc.pc_segments.(seg_idx bcp) in
            match Pmv.Entry_store.probe seg bcp with
            | Some v when Pmv.Entry_store.version_trusted seg v ->
                List.iter
                  (fun tuple ->
                    if
                      Condition_part.is_exact cp
                      || Condition_part.check compiled cp tuple
                    then Pmv.Extensions.fold_group tbl ~key ~aggs tuple)
                  v.Pmv.Entry_store.v_tuples;
                go rest
            | Some _ | None -> None)
      in
      go (Condition_part.decompose instance)

(* Sharded ORDER BY ... LIMIT k: each shard surrenders at most k
   candidates (its own bounded top-k under the shared total order), so
   what crosses the shard boundary is k*S tuples instead of the full
   per-shard results; the router cuts the merged candidates back to
   the global first k. Prefix-exact: the shared comparator is a total
   order, so the global first k are contained in the union of the
   per-shard first k. *)
let answer_ordered_k ?probe_path t instance ~order ~k =
  if k <= 0 then invalid_arg "Shard_router.answer_ordered_k: k must be positive";
  Pmv.Extensions.note_shape `Ordered;
  let compiled = Minirel_query.Instance.compiled instance in
  let path = match probe_path with Some p -> p | None -> t.probe_path in
  let template = compiled.Template.spec.Template.name in
  let targets = template_shards t compiled in
  let candidates = ref [] and stats_acc = ref None in
  List.iter
    (fun i ->
      let e = t.shards.(i) in
      let rows, stats =
        match Engine.find_view e ~template with
        | Some view ->
            Pmv.Extensions.answer_ordered_k ~locks:(Engine.locks e) ~probe_path:path
              ~view (Engine.catalog e) instance ~order ~k
        | None ->
            (* no view on this shard: bounded heap over the plain answer *)
            let all = ref [] in
            let stats, _ =
              Engine.answer ~probe_path:path e instance ~on_tuple:(fun _ tuple ->
                  all := tuple :: !all)
            in
            ( Minirel_exec.Grouping.top_k ~cmp:(Ordering.cmp ~order) ~k
                (Minirel_exec.Cursor.of_list !all),
              stats )
      in
      candidates := rows :: !candidates;
      stats_acc :=
        Some (match !stats_acc with None -> stats | Some s -> merge_stats s stats))
    targets;
  (Ordering.first_k ~order ~k (List.concat !candidates), Option.get !stats_acc)

(* Sharded EXISTS: probe every target shard's view for a cached witness
   first — any one cached satisfying tuple settles the question with no
   engine work anywhere. On the epoch path the paper stores are probed
   too, under the engine's locked-path rule ({!Pmv.Extensions.exists_}):
   a cached tuple is a witness only while its view has no delta pending.
   Only when no shard holds a witness does the router execute, shard by
   shard, stopping at the first tuple. Execution never serves cached
   tuples: stopping after a served O2 tuple would skip the stale purge
   that proves it still exists. *)
let exists_ ?probe_path t instance =
  Pmv.Extensions.note_shape `Exists;
  let compiled = Minirel_query.Instance.compiled instance in
  let path = match probe_path with Some p -> p | None -> t.probe_path in
  let template = compiled.Template.spec.Template.name in
  let targets = template_shards t compiled in
  let witness path =
    List.exists
      (fun i ->
        match Engine.find_view t.shards.(i) ~template with
        | Some view -> Pmv.Extensions.cached_witness ~probe_path:path ~view instance
        | None -> false)
      targets
  in
  if witness path || (path = Pmv.Answer.Epoch && witness Pmv.Answer.Locked) then
    (true, `From_pmv)
  else
    ( List.exists
        (fun i ->
          let catalog = Engine.catalog t.shards.(i) in
          let plan = Minirel_exec.Planner.plan_query catalog instance in
          Option.is_some (Minirel_exec.Executor.cursor catalog plan ()))
        targets,
      `Executed )

(* --- maintenance ------------------------------------------------------- *)

(* Apply any queued (lock-deferred) deltas on every shard's views. *)
let flush_pending t =
  Array.iter
    (fun e ->
      List.iter
        (fun view -> Pmv.Maintain.flush_pending view (Engine.txn_mgr e))
        (Pmv.Manager.views (Engine.manager e)))
    t.shards

(* --- data loading ------------------------------------------------------ *)

(* Partition an existing catalog's contents into the shards: every
   relation is created per its [parts] entry (relations without one are
   replicated), tuples are routed by the partition rule, and secondary
   indexes are recreated on every shard. Inserts go through the plain
   catalog (no transactions): loading precedes view creation. *)
let load_from t source =
  List.iter
    (fun rel ->
      let schema = Catalog.schema source rel in
      if not (Hashtbl.mem t.parts rel) then Hashtbl.replace t.parts rel Replicated;
      Array.iter
        (fun e -> ignore (Catalog.create_relation (Engine.catalog e) schema))
        t.shards;
      let insert_into i tuple =
        ignore (Catalog.insert (Engine.catalog t.shards.(i)) ~rel tuple)
      in
      let heap = Catalog.heap source rel in
      Minirel_storage.Heap_file.iter heap (fun _rid tuple ->
          match Hashtbl.find t.parts rel with
          | Hash pos -> insert_into (shard_of_value t tuple.(pos)) tuple
          | Replicated -> List.iter (fun i -> insert_into i tuple) (all_shards t));
      List.iter
        (fun idx ->
          let attrs =
            Array.to_list
              (Array.map (Schema.attr_name schema) (Minirel_index.Index.key_positions idx))
          in
          create_index t ~rel ~name:(Minirel_index.Index.name idx) ~attrs ())
        (Catalog.indexes source rel))
    (Catalog.relations source);
  bump_ddl_epoch t

(* --- telemetry --------------------------------------------------------- *)

(* Per-shard snapshots, in shard order. *)
let snapshots t =
  Array.to_list (Array.map (fun e -> (Engine.name e, Engine.snapshot e)) t.shards)

(* One aggregated snapshot (counters/gauges add, histogram summaries
   merge), plus the router-level sources from the router's own scoped
   registry — disjoint names, so the merge just concatenates them. *)
let snapshot_merged t =
  Export.merge_snapshots
    (List.map snd (snapshots t)
    @ [ Minirel_telemetry.Registry.snapshot t.registry ])

(* Router probe-cache counters as Prometheus series carrying both a
   [shard] and a [template] label, one series family per counter kind
   (type comments emitted once per family). *)
let probe_cache_prometheus_string t =
  let rows = probe_cache_rows t in
  let buf = Buffer.create 256 in
  List.iter
    (fun kind ->
      let series = List.filter (fun (_, _, k, _) -> String.equal k kind) rows in
      if series <> [] then begin
        let family = "router_probe_cache_" ^ kind in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" family);
        List.iter
          (fun (template, i, _, n) ->
            Buffer.add_string buf
              (Printf.sprintf "%s{shard=%S,template=%S} %d\n" family (string_of_int i)
                 template n))
          series
      end)
    [ "hits"; "misses"; "installs" ];
  Buffer.contents buf

(* Prometheus exposition with a [shard="i"] label on every series, plus
   the router probe-cache families labelled by shard and template. *)
let prometheus_string t =
  String.concat ""
    (List.mapi
       (fun i (_, snap) ->
         Export.prometheus_string ~labels:[ ("shard", string_of_int i) ] snap)
       (snapshots t))
  ^ probe_cache_prometheus_string t

let reset_telemetry t =
  Array.iter Engine.reset_telemetry t.shards;
  Minirel_telemetry.Registry.reset t.registry

(* --- shutdown ---------------------------------------------------------- *)

(* Tear the router down: shut every shard engine down and drain the
   probe caches' retired version chains. The router must not answer
   queries afterwards. *)
let shutdown t =
  Array.iter Engine.shutdown t.shards;
  Hashtbl.iter
    (fun _ pc -> Array.iter Pmv.Entry_store.shutdown pc.pc_segments)
    t.probe_caches
