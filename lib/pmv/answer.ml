(* Query answering with a PMV (Section 3.3):

   O1  break Cselect into non-overlapping condition parts;
   O2  probe the PMV per condition part, stream the cached tuples to the
       user immediately and remember them in DS;
   O3  execute the query, deliver every tuple the user has not seen
       (removing re-seen ones from DS so duplicates are delivered the
       right number of times), and refresh the PMV for free.

   The instrumentation separates the *overhead* our method adds (O1,
   O2, the DS bookkeeping and PMV fills inside O3) from the engine's
   own execution cost — the quantity Figures 8-10 report. Timestamps
   come from a monotonic ns clock.

   Two read paths coexist (DESIGN.md Section 13). [Locked] is the
   paper's Section 3.6 protocol: an S lock on the view held across
   O2-O3. [Epoch] never locks: it first tries to serve the whole query
   from the view's probe store — complete per-bcp answers published as
   immutable versions and read under an epoch guard — and only on a
   miss falls back to the classic O2/O3 pipeline (lock-free, since
   maintenance is serialized with queries by the engine itself), while
   capturing each exact bcp's delivered multiset to install as the next
   complete answer. *)

open Minirel_storage
open Minirel_query

type phase = Partial | Remaining

type probe_path = Locked | Epoch

let probe_path_of_string = function
  | "locked" -> Some Locked
  | "epoch" -> Some Epoch
  | _ -> None

let probe_path_to_string = function Locked -> "locked" | Epoch -> "epoch"

type stats = {
  h : int;  (* condition parts generated by O1 *)
  probes : int;
  probe_hits : int;  (* probes that found the bcp resident *)
  partial_count : int;  (* tuples delivered in O2 *)
  total_count : int;  (* result multiset cardinality *)
  filled : int;  (* tuples cached into the PMV during O3 *)
  overhead_ns : int64;  (* O1 + O2 + per-tuple O3 bookkeeping *)
  exec_ns : int64;  (* full O3 drain, bookkeeping excluded *)
  first_partial_ns : int64 option;  (* time to first tuple via the PMV *)
  first_exec_ns : int64 option;  (* time to first tuple from execution *)
  io_reads : int;
  io_writes : int;
  stale_purged : int;  (* leftover DS tuples (0 when maintenance is sound) *)
}

let now = Monotonic_clock.now

(* Process-wide metric handles; registered lazily at first module use.
   Counters aggregate across every view, the histograms carry the
   latency distributions Section 4 reports (time-to-first-tuple is the
   earlier of the first O2 partial and the first O3 tuple). *)
module Tm = Minirel_telemetry.Telemetry
module Span = Minirel_telemetry.Span
module Flight = Minirel_telemetry.Flight
module Slo = Minirel_telemetry.Slo

let c_queries = Tm.counter "answer.queries"
let c_plain = Tm.counter "answer.plain_queries"
let c_probes = Tm.counter "answer.probes"
let c_probe_hits = Tm.counter "answer.probe_hits"
let c_partials = Tm.counter "answer.partial_tuples"
let c_fills = Tm.counter "answer.fills"
let c_stale = Tm.counter "answer.stale_purged"
let c_epoch_probes = Tm.counter "answer.epoch_probes"
let c_epoch_hits = Tm.counter "answer.epoch_probe_hits"
let c_epoch_fast = Tm.counter "answer.epoch_fast_hits"
let c_epoch_fallbacks = Tm.counter "answer.epoch_fallbacks"
let h_ttft = Tm.histogram "answer.ttft_ns"
let h_ttc = Tm.histogram "answer.ttc_ns"
let h_overhead = Tm.histogram "answer.overhead_ns"
let h_probe = Tm.histogram "answer.probe_ns"

let record_latencies ~template ~ttc_ns stats =
  (match (stats.first_partial_ns, stats.first_exec_ns) with
  | Some a, Some b -> Minirel_telemetry.Histogram.record h_ttft (Int64.min a b)
  | Some a, None | None, Some a -> Minirel_telemetry.Histogram.record h_ttft a
  | None, None -> ());
  Minirel_telemetry.Histogram.record h_ttc ttc_ns;
  Minirel_telemetry.Histogram.record h_overhead stats.overhead_ns;
  (* per-template, per-phase tail-latency quantiles for the SLO
     watchdog; ".total" is recorded by the serving surface that owns
     the whole query (shell/router), not per engine *)
  Slo.observe Slo.default ~key:(template ^ ".overhead") stats.overhead_ns;
  if Int64.compare stats.exec_ns 0L > 0 then
    Slo.observe Slo.default ~key:(template ^ ".exec") stats.exec_ns

(* Per containing-bcp state threaded from O2 to O3. The [got_*] fields
   exist only on the epoch fallback path: they accumulate the bcp's
   delivered multiset so that, when the stale purge proves the stream
   exact, it can be installed as the bcp's complete fast-path answer. *)
type slot = {
  mutable cj : int;  (* paper's counter c_j: tuples in V_PM for this bcp *)
  storable : bool;
  mutable entry : Entry_store.entry option;
  got_exact : bool;  (* epoch mode and the bcp's cp covers the whole bcp *)
  mutable got : Tuple.t list;
  mutable got_n : int;  (* may reach capture bound + 1, marking overflow *)
}

(* Answer [instance] through [view]. [on_tuple] receives every result
   tuple exactly once (Ls' shape; project with
   [Template.visible_of_result] for the user-visible Ls). When [locks]
   is given and [probe_path] is [Locked] (the default), an S lock on
   the view is held across O2-O3 (Section 3.6); the [Epoch] path takes
   no lock at all.

   [trace] propagates a caller-owned trace context: the pipeline then
   records its spans as an ["answer:<template>"] child of the caller's
   innermost span instead of starting (and sampling) its own trace —
   how the router stitches one span tree across shards.
   @raise Minirel_txn.Lock_manager.Conflict if the lock cannot be
   granted. *)
let answer ?locks ?(txn = 0) ?plan_cache ?profile ?(probe_path = Locked) ?trace
    ~view catalog instance ~on_tuple =
  let compiled = Instance.compiled instance in
  let store = View.store view in
  let pstore = View.probe_store view in
  let epoch = probe_path = Epoch in
  (* Captured before any data is read: a relevant delta committing
     after this point bumps the probe store's stamp past [pstamp], so a
     complete answer we install below publishes already-untrusted —
     installs can lose the race but never lie. *)
  let pstamp = Entry_store.current_stamp pstore in
  let pfmax = Entry_store.f_max pstore in
  let vstats = View.stats view in
  let t_start = now () in
  let o3_book = ref 0L in  (* per-tuple bookkeeping inside the O3 drain *)
  let acquire () =
    match locks with
    | Some lm when not epoch ->
        Minirel_txn.Lock_manager.acquire_exn lm ~txn ~obj:(View.lock_object view)
          Minirel_txn.Lock_manager.S
    | Some _ | None -> ()
  in
  let release () =
    match locks with
    | Some lm when not epoch ->
        Minirel_txn.Lock_manager.release lm ~txn ~obj:(View.lock_object view)
    | Some _ | None -> ()
  in
  let tm_on = Tm.is_enabled () in
  let tname = compiled.Template.spec.Template.name in
  let owned = Option.is_none trace in
  let tr =
    match trace with
    | Some t ->
        (* Under Epoch the answer child span opens lazily, on the
           fallback path only: the fast path annotates the caller's
           open span instead of paying a span allocation and two clock
           reads per served query. The "path" kv (epoch_fast /
           epoch_fallback / locked) carries the probe-path attribution
           either way. *)
        if not epoch then begin
          Span.enter t ("answer:" ^ tname);
          Span.kv t "probe_path" (probe_path_to_string probe_path)
        end;
        Some t
    | None -> if tm_on then Tm.trace_start ("answer:" ^ tname) else None
  in
  (* is the lazily-opened answer child span currently open? *)
  let child_open = ref ((not owned) && not epoch) in
  (* hand-rolled instead of [Fun.protect]: spans sit on the per-query
     hot path and the always-on tracing overhead gate
     (bench/exp_observability) leaves no room for a finally-closure
     allocation per span *)
  let span name f =
    match tr with
    | None -> f ()
    | Some t -> (
        Span.enter t name;
        match f () with
        | r ->
            Span.leave t;
            r
        | exception exn ->
            Span.leave t;
            raise exn)
  in
  let close_root () =
    match tr with
    | None -> ()
    | Some t -> if owned then Tm.trace_finish t else if !child_open then Span.leave t
  in
  (* no span when the lock is a no-op (epoch path or no lock manager):
     an empty "lock.acquire" row costs two clock reads per query and
     says nothing *)
  (try
     match locks with
     | Some _ when not epoch -> span "lock.acquire" acquire
     | Some _ | None -> ()
   with exn ->
     close_root ();
     raise exn);
  Fun.protect ~finally:(fun () ->
      release ();
      close_root ())
  @@ fun () ->
  (* --- O1 --- *)
  (* Observability detail is proportional to the work: the epoch fast
     path answers in a few µs, so it records a compact trace
     (attribution as kvs on the answer span, no child spans) and one
     aggregated flight event per query, while the locked and fallback
     paths — orders of magnitude more per-query work — keep the full
     per-phase spans and per-probe events. The always-on overhead gate
     (bench/exp_observability) holds the fast path to < 5%. *)
  let cps =
    if epoch then Condition_part.decompose instance
    else span "o1.decompose" (fun () -> Condition_part.decompose instance)
  in
  let h = List.length cps in
  (* Which bcps carry an exact condition part? Condition parts are
     non-overlapping, so an exact cp is its bcp's only cp and the
     delivered multiset under it is the bcp's whole answer. *)
  let exact_bcps = Bcp.Table.create (2 * h) in
  if epoch then
    List.iter
      (fun cp ->
        if Condition_part.is_exact cp then
          Bcp.Table.replace exact_bcps (Condition_part.bcp cp) ())
      cps;
  (* --- epoch fast path: serve the whole query from published
     complete versions, under one epoch guard, no lock, no O3 --- *)
  let fast =
    if not epoch then None
    else begin
      let t_probe0 = now () in
      let memo = Bcp.Table.create (2 * h) in
      let n_probed = ref 0 and n_hits = ref 0 in
      let all_hit =
        Entry_store.read pstore (fun () ->
            List.for_all
              (fun cp ->
                let bcp = Condition_part.bcp cp in
                Bcp.Table.mem memo bcp
                ||
                begin
                  incr n_probed;
                  match Entry_store.probe pstore bcp with
                  | Some v when Entry_store.version_trusted pstore v ->
                      incr n_hits;
                      Bcp.Table.replace memo bcp v;
                      true
                  | Some _ | None -> false
                end)
              cps)
      in
      let t_probe1 = now () in
      (* one aggregated event per fast-path attempt (a=probed, b=hit)
         instead of one per probe: the recorder's job is forensics on
         the rare paths, not a per-probe log of the common case *)
      Flight.record
        (if all_hit then Probe_hit else Probe_miss)
        ~a:!n_probed ~b:!n_hits ~ts:t_probe1;
      if tm_on then begin
        let module R = Minirel_telemetry.Registry in
        R.add c_epoch_probes !n_probed;
        R.add c_epoch_hits !n_hits;
        Minirel_telemetry.Histogram.record h_probe (Int64.sub t_probe1 t_probe0)
      end;
      if not all_hit then begin
        if tm_on then Minirel_telemetry.Registry.incr c_epoch_fallbacks;
        None
      end
      else begin
        let partial_count = ref 0 in
        let first_partial = ref None in
        let finalize_vstats () =
          vstats.View.queries <- vstats.View.queries + 1;
          if !n_hits > 0 then vstats.View.query_hits <- vstats.View.query_hits + 1;
          vstats.View.partial_tuples <- vstats.View.partial_tuples + !partial_count
        in
        (* Stream per condition part, exactly as O2 would: the versions
           are complete, so the union over cps is the result multiset
           and O3 is skipped entirely. *)
        (try
           List.iter
             (fun cp ->
               let bcp = Condition_part.bcp cp in
               let v = Bcp.Table.find memo bcp in
               List.iter
                 (fun tuple ->
                   if
                     Condition_part.is_exact cp
                     || Condition_part.check compiled cp tuple
                   then begin
                     on_tuple Partial tuple;
                     incr partial_count;
                     if !first_partial = None then
                       first_partial := Some (Int64.sub (now ()) t_start)
                   end)
                 v.Entry_store.v_tuples)
             cps
         with exn ->
           finalize_vstats ();
           raise exn);
        finalize_vstats ();
        let t_end = now () in
        let stats =
          {
            h;
            probes = !n_probed;
            probe_hits = !n_hits;
            partial_count = !partial_count;
            total_count = !partial_count;
            filled = 0;
            overhead_ns = Int64.sub t_end t_start;
            exec_ns = 0L;
            first_partial_ns = !first_partial;
            first_exec_ns = None;
            io_reads = 0;
            io_writes = 0;
            stale_purged = 0;
          }
        in
        (match tr with Some t -> Span.kv t "path" "epoch_fast" | None -> ());
        if tm_on then begin
          let module R = Minirel_telemetry.Registry in
          R.incr c_queries;
          R.incr c_epoch_fast;
          R.add c_partials stats.partial_count;
          record_latencies ~template:tname ~ttc_ns:(Int64.sub t_end t_start) stats
        end;
        Some stats
      end
    end
  in
  match fast with
  | Some stats -> stats
  | None ->
  (* --- O2 --- *)
  let ds = Ds.create () in
  let slots = Bcp.Table.create (2 * h) in
  let probes = ref 0 and probe_hits = ref 0 and partial_count = ref 0 in
  let first_partial = ref None in
  (* Epoch fallback: remember each exact bcp's delivered tuples so the
     stream, once proven exact by the stale purge, becomes the bcp's
     complete fast-path answer. Bounded by the probe store's F (one
     over marks overflow and disqualifies the bcp). *)
  let capture slot tuple =
    if slot.got_exact && slot.got_n <= pfmax then begin
      slot.got <- tuple :: slot.got;
      slot.got_n <- slot.got_n + 1
    end
  in
  (match tr with
  | Some t ->
      if (not owned) && epoch then begin
        Span.enter t ("answer:" ^ tname);
        child_open := true
      end;
      Span.kv t "path" (if epoch then "epoch_fallback" else "locked");
      Span.enter t "o2.probe"
  | None -> ());
  List.iter
    (fun cp ->
      let bcp = Condition_part.bcp cp in
      let slot =
        match Bcp.Table.find_opt slots bcp with
        | Some slot -> slot
        | None ->
            incr probes;
            let got_exact = epoch && Bcp.Table.mem exact_bcps bcp in
            let slot =
              match Entry_store.reference store bcp with
              | `Resident entry ->
                  incr probe_hits;
                  Flight.record Probe_hit;
                  {
                    cj = entry.Entry_store.n;
                    storable = true;
                    entry = Some entry;
                    got_exact;
                    got = [];
                    got_n = 0;
                  }
              | `Admitted entry ->
                  Flight.record Probe_miss;
                  { cj = 0; storable = true; entry = Some entry; got_exact; got = []; got_n = 0 }
              | `Rejected storable ->
                  Flight.record Probe_miss;
                  { cj = 0; storable; entry = None; got_exact; got = []; got_n = 0 }
            in
            Bcp.Table.replace slots bcp slot;
            slot
      in
      match slot.entry with
      | Some entry when entry.Entry_store.n > 0 ->
          List.iter
            (fun tuple ->
              (* exact cps contain every tuple of their bcp entry *)
              if Condition_part.is_exact cp || Condition_part.check compiled cp tuple
              then begin
                on_tuple Partial tuple;
                Ds.add ds tuple;
                incr partial_count;
                capture slot tuple;
                if !first_partial = None then
                  first_partial := Some (Int64.sub (now ()) t_start)
              end)
            entry.Entry_store.tuples
      | Some _ | None -> ())
    cps;
  (match tr with
  | Some t ->
      Span.kv t "probes" (string_of_int !probes);
      Span.kv t "hits" (string_of_int !probe_hits);
      Span.kv t "partials" (string_of_int !partial_count);
      Span.leave t
  | None -> ());
  let t_o2_done = now () in
  let o1o2_ns = Int64.sub t_o2_done t_start in
  (* --- O3 --- *)
  let pool_stats = Minirel_storage.Buffer_pool.stats (Minirel_index.Catalog.pool catalog) in
  let io_before = Io_stats.snapshot pool_stats in
  let plan =
    span "o3.plan" @@ fun () ->
    match plan_cache with
    | Some pc -> Minirel_exec.Plan_cache.plan pc instance
    | None -> Minirel_exec.Planner.plan_query catalog instance
  in
  let cursor = Minirel_exec.Executor.cursor ?profile catalog plan in
  let total_count = ref 0 and filled = ref 0 in
  let first_exec = ref None in
  (match tr with Some t -> Span.enter t "o3.execute" | None -> ());
  let t_exec_start = now () in
  let rec drain () =
    match cursor () with
    | None -> ()
    | Some tuple ->
        incr total_count;
        if !first_exec = None then first_exec := Some (Int64.sub (now ()) t_start);
        (* bookkeeping our method adds on top of plain execution *)
        let t0 = now () in
        (if Ds.remove_one ds tuple then
           (* already delivered in O2 *)
           ()
         else begin
           on_tuple Remaining tuple;
           let bcp = Condition_part.bcp_of_result compiled tuple in
           match Bcp.Table.find_opt slots bcp with
           | None ->
               (* cannot happen: every result tuple satisfies Cselect and
                  therefore belongs to one of the query's condition
                  parts; stay silent in release builds *)
               ()
           | Some slot ->
               capture slot tuple;
               if slot.storable && slot.cj < Entry_store.f_max store then begin
                 let entry =
                   match slot.entry with
                   | Some entry when Entry_store.find store bcp == Some entry -> entry
                   | Some _ | None ->
                       let entry = Entry_store.admit_for_fill store bcp in
                       slot.entry <- Some entry;
                       entry
                 in
                 if Entry_store.add_tuple store entry tuple then begin
                   slot.cj <- slot.cj + 1;
                   incr filled
                 end
               end
         end);
        o3_book := Int64.add !o3_book (Int64.sub (now ()) t0);
        drain ()
  in
  (* Early termination (the paper's Benefit 2): callers may abort the
     drain by raising from [on_tuple] — e.g. once they have seen enough
     partial results. The view statistics still count the query, the
     PMV keeps whatever was filled so far, and no stale purge runs
     (undelivered DS tuples are not stale, just unconfirmed). *)
  (try drain ()
   with exn ->
     vstats.View.queries <- vstats.View.queries + 1;
     if !probe_hits > 0 then vstats.View.query_hits <- vstats.View.query_hits + 1;
     vstats.View.partial_tuples <- vstats.View.partial_tuples + !partial_count;
     vstats.View.fills <- vstats.View.fills + !filled;
     raise exn);
  let t_end = now () in
  (match tr with
  | Some t ->
      Span.kv t "tuples" (string_of_int !total_count);
      (match !first_exec with
      | Some ns -> Span.kv t "first_tuple_us" (Int64.to_string (Int64.div ns 1000L))
      | None -> ());
      Span.leaf t "o3.bookkeeping" !o3_book;
      Span.leave t
  | None -> ());
  let overhead_ns = Int64.add o1o2_ns !o3_book in
  let exec_ns = Int64.sub (Int64.sub t_end t_exec_start) !o3_book in
  let io = Io_stats.diff ~before:io_before pool_stats in
  (* Leftover DS tuples were served from the PMV but not produced by
     execution: stale cache content (possible only if maintenance was
     not attached). Purge them so the view never lies twice. Each slot
     purges from its own bcp's entry — stale tuples can only live
     there — so the cost is O(touched entries), not a store scan. *)
  let stale = Ds.size ds in
  if stale > 0 then Flight.record Stale_purge ~a:stale;
  if stale > 0 then
    Bcp.Table.iter
      (fun bcp slot ->
        match slot.entry with
        | Some _ -> (
            match Entry_store.find store bcp with
            | Some entry ->
                List.filter (Ds.mem ds) entry.Entry_store.tuples
                |> List.iter (fun tuple ->
                       ignore (Entry_store.remove_tuple store bcp tuple))
            | None -> ())
        | None -> ())
      slots;
  (* Epoch fallback payoff: [stale = 0] proves the delivered multiset
     equals the execution result, i.e. the current base truth. Install
     each exact, within-bound bcp's capture as its complete fast-path
     answer, stamped with the pre-query [pstamp] (see above). *)
  if epoch && stale = 0 then
    Bcp.Table.iter
      (fun bcp slot ->
        if slot.got_exact && slot.got_n <= pfmax then
          ignore (Entry_store.install_complete pstore bcp slot.got ~stamp:pstamp))
      slots;
  vstats.View.queries <- vstats.View.queries + 1;
  if !probe_hits > 0 then vstats.View.query_hits <- vstats.View.query_hits + 1;
  vstats.View.partial_tuples <- vstats.View.partial_tuples + !partial_count;
  vstats.View.fills <- vstats.View.fills + !filled;
  let stats =
    {
      h;
      probes = !probes;
      probe_hits = !probe_hits;
      partial_count = !partial_count;
      total_count = !total_count;
      filled = !filled;
      overhead_ns;
      exec_ns;
      first_partial_ns = !first_partial;
      first_exec_ns = !first_exec;
      io_reads = io.Io_stats.reads;
      io_writes = io.Io_stats.writes;
      stale_purged = stale;
    }
  in
  if tm_on then begin
    let module R = Minirel_telemetry.Registry in
    R.incr c_queries;
    R.add c_probes stats.probes;
    R.add c_probe_hits stats.probe_hits;
    R.add c_partials stats.partial_count;
    R.add c_fills stats.filled;
    R.add c_stale stats.stale_purged;
    record_latencies ~template:tname ~ttc_ns:(Int64.sub t_end t_start) stats
  end;
  stats

(* Plain execution without a PMV: the baseline for Figures 8-10. *)
let answer_plain ?plan_cache ?profile ?trace catalog instance ~on_tuple =
  let tname = (Instance.compiled instance).Template.spec.Template.name in
  (match trace with
  | Some t ->
      Span.enter t ("answer_plain:" ^ tname);
      Span.kv t "path" "plain"
  | None -> ());
  Fun.protect ~finally:(fun () ->
      match trace with Some t -> Span.leave t | None -> ())
  @@ fun () ->
  let t_start = now () in
  let pool_stats = Minirel_storage.Buffer_pool.stats (Minirel_index.Catalog.pool catalog) in
  let io_before = Io_stats.snapshot pool_stats in
  let plan =
    match plan_cache with
    | Some pc -> Minirel_exec.Plan_cache.plan pc instance
    | None -> Minirel_exec.Planner.plan_query catalog instance
  in
  let cursor = Minirel_exec.Executor.cursor ?profile catalog plan in
  let total_count = ref 0 in
  let first_exec = ref None in
  Minirel_exec.Cursor.iter
    (fun tuple ->
      incr total_count;
      if !first_exec = None then first_exec := Some (Int64.sub (now ()) t_start);
      on_tuple Remaining tuple)
    cursor;
  let t_end = now () in
  let io = Io_stats.diff ~before:io_before pool_stats in
  let stats =
    {
      h = 0;
      probes = 0;
      probe_hits = 0;
      partial_count = 0;
      total_count = !total_count;
      filled = 0;
      overhead_ns = 0L;
      exec_ns = Int64.sub t_end t_start;
      first_partial_ns = None;
      first_exec_ns = !first_exec;
      io_reads = io.Io_stats.reads;
      io_writes = io.Io_stats.writes;
      stale_purged = 0;
    }
  in
  if Tm.is_enabled () then begin
    Minirel_telemetry.Registry.incr c_plain;
    record_latencies ~template:tname ~ttc_ns:stats.exec_ns stats
  end;
  stats
