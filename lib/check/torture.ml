(* Deterministic torture driver. One seeded SplitMix64 stream drives
   everything: event selection, query parameters, transaction contents
   and — through {!Minirel_fault.Fault.enable}'s derived streams — the
   fault firing decisions. The driver keeps a per-relation shadow
   multiset updated only on acknowledged deltas; after every injected
   WAL crash it recovers from snapshot + log replay and diffs the
   recovered heaps against the shadow, classified by crash site:

     wal.pre_append   nothing of the crashed change is durable —
                      recovered state equals the shadow exactly;
     wal.mid_flush    a durable prefix — every surplus tuple must be
                      one the change inserted, every deficit one it
                      deleted;
     wal.post_commit  fully durable — the diff equals the change's
                      whole effect.

   Query answers are oracle-checked on every query event; while
   deferred maintenance is pending the lenient verdict (extras exactly
   accounted for by the stale purge) applies, otherwise the strict one.
   A lost maintenance step (maintain.apply) leaves the view stale
   beyond what the stale purge repairs, so the driver rebuilds the
   view — the documented owner obligation. *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog
module Snapshot = Minirel_index.Snapshot
module Txn = Minirel_txn.Txn
module Wal = Minirel_txn.Wal
module Lock_manager = Minirel_txn.Lock_manager
module Fault = Minirel_fault.Fault
module SM = Minirel_prng.Split_mix
module Zipf = Minirel_workload.Zipf
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen

type cfg = {
  seed : int;
  events : int;
  scale : float;
  check_every : int;
  shards : int;  (* engine count for {!run_sharded}; {!run} ignores it *)
  domains : int;  (* pool workers for {!run_sharded}'s fan-out; 1 = sequential *)
  probe_path : Pmv.Answer.probe_path;
      (* read path queries take; Locked keeps the lockmgr fault sites hot *)
  dir : string option;
  log : (string -> unit) option;
}

let default_cfg ~seed =
  {
    seed;
    events = 400;
    scale = 0.002;
    check_every = 40;
    shards = 1;
    domains = 1;
    probe_path = Pmv.Answer.Locked;
    dir = None;
    log = None;
  }

type outcome = {
  events : int;
  queries : int;
  txns : int;
  crashes : int;
  recoveries : int;
  deferrals : int;
  lock_rejects : int;
  io_faults : int;
  rebuilds : int;
  deep_checks : int;
  failures : string list;
  digest : string;
}

let ok o = o.failures = []

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>events=%d queries=%d txns=%d crashes=%d recoveries=%d deferrals=%d@ \
     lock_rejects=%d io_faults=%d rebuilds=%d deep_checks=%d digest=%s@ %a@]"
    o.events o.queries o.txns o.crashes o.recoveries o.deferrals o.lock_rejects
    o.io_faults o.rebuilds o.deep_checks o.digest
    (fun ppf -> function
      | [] -> Fmt.string ppf "verdict: clean"
      | fs ->
          Fmt.pf ppf "verdict: %d FAILURES@ %a" (List.length fs)
            Fmt.(list ~sep:cut string)
            fs)
    o.failures

(* --- event digest (FNV-1a 64) ------------------------------------------ *)

let fnv_prime = 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* --- seeded workload context ------------------------------------------- *)

(* The PRNG and data-shape parameters every event generator draws from,
   shared by the single-engine and sharded drivers. *)
type wctx = {
  rng : SM.t;
  counts : Tpcr.counts;
  dates_zipf : Zipf.t;
  supp_zipf : Zipf.t;
  mutable next_orderkey : int;
}

let make_wctx ~seed ~params ~counts =
  {
    rng = SM.create ~seed;
    counts;
    dates_zipf = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07;
    supp_zipf = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07;
    next_orderkey = counts.Tpcr.orders + 1;
  }

(* --- driver state ------------------------------------------------------ *)

type st = {
  cfg : cfg;
  w : wctx;
  snapshot_file : string;
  wal_file : string;
  mutable catalog : Catalog.t;
  mutable t1 : Template.compiled;
  mutable mgr : Txn.t;
  mutable wal : Wal.t;
  mutable view : Pmv.View.t;
  (* relation name -> tuple multiset, updated only on acknowledged
     deltas: the recovery oracle's notion of committed state *)
  mutable shadow : (string * int Tuple.Table.t) list;
  mutable digest : int64;
  mutable qid : int;
  mutable queries : int;
  mutable txns : int;
  mutable crashes : int;
  mutable recoveries : int;
  mutable deferrals : int;
  mutable lock_rejects : int;
  mutable io_faults : int;
  mutable rebuilds : int;
  mutable deep_checks : int;
  mutable failures : string list;
}

let note st line =
  st.digest <- fnv_string st.digest line;
  match st.cfg.log with Some f -> f line | None -> ()

let fail st fmt =
  Fmt.kstr
    (fun s ->
      st.failures <- s :: st.failures;
      note st ("FAIL: " ^ s))
    fmt

let defer_prob = 0.08
let rels = [ "customer"; "orders"; "lineitem" ]

(* --- shadow multisets -------------------------------------------------- *)

let bump tbl t k =
  let n = k + Option.value ~default:0 (Tuple.Table.find_opt tbl t) in
  if n = 0 then Tuple.Table.remove tbl t else Tuple.Table.replace tbl t n

let snapshot_shadow catalog =
  List.map
    (fun rel ->
      let tbl = Tuple.Table.create 1024 in
      Heap_file.iter (Catalog.heap catalog rel) (fun _ t -> bump tbl t 1);
      (rel, tbl))
    rels

let shadow_tbl st rel = List.assoc rel st.shadow

let shadow_tuples tbl =
  let out = ref [] in
  Tuple.Table.iter
    (fun t k ->
      for _ = 1 to k do
        out := t :: !out
      done)
    tbl;
  !out

let shadow_apply_delta st (d : Txn.delta) =
  let tbl = shadow_tbl st d.Txn.rel in
  List.iter (fun t -> bump tbl t 1) d.Txn.inserted;
  List.iter (fun t -> bump tbl t (-1)) d.Txn.deleted;
  List.iter
    (fun (o, n) ->
      bump tbl o (-1);
      bump tbl n 1)
    d.Txn.updated

(* The full effect a change would have, evaluated against the shadow
   (which mirrors the catalog at transaction start): the tuples it
   inserts and the tuples it deletes, as multisets. *)
let change_effect st = function
  | Txn.Insert { rel; tuple } -> (rel, [ tuple ], [])
  | Txn.Delete { rel; pred } ->
      let victims = ref [] in
      Tuple.Table.iter
        (fun t k ->
          if Predicate.eval pred t then
            for _ = 1 to k do
              victims := t :: !victims
            done)
        (shadow_tbl st rel);
      (rel, [], !victims)
  | Txn.Update { rel; pred; set } ->
      let olds = ref [] and news = ref [] in
      Tuple.Table.iter
        (fun t k ->
          if Predicate.eval pred t then begin
            let nt = Array.copy t in
            List.iter (fun (pos, v) -> nt.(pos) <- v) set;
            for _ = 1 to k do
              olds := t :: !olds;
              news := nt :: !news
            done
          end)
        (shadow_tbl st rel);
      (rel, !news, !olds)

let shadow_apply_change st change =
  let rel, ins, del = change_effect st change in
  let tbl = shadow_tbl st rel in
  List.iter (fun t -> bump tbl t (-1)) del;
  List.iter (fun t -> bump tbl t 1) ins

(* --- workload generation ----------------------------------------------- *)

let rand_price w = Value.Float (float_of_int (SM.int w.rng ~bound:1_000_000) /. 100.0)
let zipf_date w = Querygen.value_of_rank (Zipf.sample w.dates_zipf w.rng)
let zipf_supp w = Querygen.value_of_rank (Zipf.sample w.supp_zipf w.rng)
let rand_orderkey w = 1 + SM.int w.rng ~bound:(w.next_orderkey - 1)
let orderkey_pred k = Predicate.Cmp (Predicate.Eq, 0, Value.Int k)

let gen_change w =
  let r = SM.int w.rng ~bound:100 in
  if r < 18 then begin
    let ok = w.next_orderkey in
    w.next_orderkey <- w.next_orderkey + 1;
    Txn.Insert
      {
        rel = "orders";
        tuple =
          [|
            Value.Int ok;
            Value.Int (1 + SM.int w.rng ~bound:w.counts.Tpcr.customers);
            zipf_date w;
            rand_price w;
            Value.Str "";
          |];
      }
  end
  else if r < 38 then
    Txn.Insert
      {
        rel = "lineitem";
        tuple =
          [|
            Value.Int (rand_orderkey w);
            zipf_supp w;
            Value.Int (1 + SM.int w.rng ~bound:10);
            Value.Int (1 + SM.int w.rng ~bound:50);
            rand_price w;
            Value.Str "";
          |];
      }
  else if r < 52 then
    Txn.Delete { rel = "lineitem"; pred = orderkey_pred (rand_orderkey w) }
  else if r < 62 then Txn.Delete { rel = "orders"; pred = orderkey_pred (rand_orderkey w) }
  else if r < 76 then
    (* relevant update: suppkey is a selection attribute (in Ls') *)
    Txn.Update
      {
        rel = "lineitem";
        pred = orderkey_pred (rand_orderkey w);
        set = [ (1, zipf_supp w) ];
      }
  else if r < 86 then
    (* relevant update: quantity is in the select list *)
    Txn.Update
      {
        rel = "lineitem";
        pred = orderkey_pred (rand_orderkey w);
        set = [ (3, Value.Int (1 + SM.int w.rng ~bound:50)) ];
      }
  else if r < 94 then
    (* relevant update: orderdate is a selection attribute *)
    Txn.Update { rel = "orders"; pred = orderkey_pred (rand_orderkey w); set = [ (2, zipf_date w) ] }
  else
    (* irrelevant update: lineitem pad touches neither Ls' nor Cjoin *)
    Txn.Update
      {
        rel = "lineitem";
        pred = orderkey_pred (rand_orderkey w);
        set = [ (5, Value.Str "x") ];
      }

let describe_change = function
  | Txn.Insert { rel; tuple } -> Fmt.str "ins %s %a" rel Tuple.pp tuple
  | Txn.Delete { rel; pred } -> Fmt.str "del %s where %a" rel Predicate.pp pred
  | Txn.Update { rel; pred; set } ->
      Fmt.str "upd %s where %a set %a" rel Predicate.pp pred
        Fmt.(Dump.list (Dump.pair int Value.pp))
        set

let describe_inst inst =
  Instance.params inst |> Array.to_list
  |> List.map (function
       | Instance.Dvalues vs -> Fmt.str "{%a}" Fmt.(list ~sep:comma Value.pp) vs
       | Instance.Dintervals is -> Fmt.str "[%d intervals]" (List.length is))
  |> String.concat " & "

(* --- view / hook lifecycle --------------------------------------------- *)

let make_view st = Pmv.View.create ~capacity:96 ~name:"torture" st.t1

(* Maintenance first, WAL second: {!Txn.register_hook} prepends, so the
   WAL hook runs before maintenance and an injected maintenance fault
   can never lose an already-applied-but-unlogged delta. *)
let attach_hooks st =
  Pmv.Maintain.attach st.view st.mgr;
  Wal.attach st.wal st.mgr

let detach_hooks st =
  Pmv.Maintain.detach st.view st.mgr;
  Wal.detach st.wal st.mgr

let rebuild_view st =
  detach_hooks st;
  st.view <- make_view st;
  attach_hooks st;
  st.rebuilds <- st.rebuilds + 1;
  note st "view rebuilt after lost maintenance"

(* Apply queued maintenance with the defer failpoint suspended, so the
   queue really drains; re-arming gives Prob a fresh derived stream
   (still seed-deterministic). *)
let flush_pending_hard st =
  if Pmv.Maintain.n_pending st.view > 0 then begin
    Fault.disarm "maintain.defer";
    (match Pmv.Maintain.flush_pending st.view st.mgr with
    | () -> ()
    | exception Fault.Injected "maintain.apply" -> rebuild_view st);
    Fault.arm "maintain.defer" (Fault.Prob defer_prob)
  end

(* --- transactions ------------------------------------------------------ *)

let wal_site = function
  | "wal.pre_append" | "wal.mid_flush" | "wal.post_commit" -> true
  | _ -> false

let lock_conflict msg =
  String.length msg >= 13 && String.sub msg 0 13 = "lock conflict"

let run_txn st change =
  match Txn.run st.mgr [ change ] with
  | deltas ->
      List.iter (shadow_apply_delta st) deltas;
      st.txns <- st.txns + 1;
      `Committed
  | exception Fault.Injected site when wal_site site -> `Crashed site
  | exception Fault.Injected "maintain.apply" ->
      (* the WAL hook ran first: catalog and log hold the change, only
         the view missed its maintenance *)
      shadow_apply_change st change;
      st.txns <- st.txns + 1;
      `Lost_maintenance
  | exception Failure msg when lock_conflict msg -> `Lock_reject

(* --- crash + recovery -------------------------------------------------- *)

let crash_sites = [| "wal.pre_append"; "wal.mid_flush"; "wal.post_commit" |]

let heap_tuples catalog rel =
  Heap_file.fold (Catalog.heap catalog rel) (fun acc _ t -> t :: acc) []

(* Diff the recovered heaps against the shadow, accepting exactly what
   the crash site permits of the crashed change's effect. *)
let verify_recovery st ~site ~rel ~would_ins ~would_del recovered =
  List.iter
    (fun (r, tbl) ->
      let d =
        Check.diff_multiset ~expected:(shadow_tuples tbl) ~actual:(heap_tuples recovered r)
      in
      if r <> rel then begin
        if not (Check.diff_is_empty d) then
          fail st "recovery(%s): untouched relation %s diverged: %a" site r Check.pp_diff d
      end
      else
        match site with
        | "wal.pre_append" ->
            if not (Check.diff_is_empty d) then
              fail st "recovery(pre-append): %s must equal the pre-crash state: %a" r
                Check.pp_diff d
        | "wal.post_commit" ->
            (* fully durable: the heap diff equals the change's NET
               effect — a no-op update pair (old = new, e.g. setting
               suppkey to its current value) cancels out and must not
               be expected in the diff *)
            let net = Check.diff_multiset ~expected:would_del ~actual:would_ins in
            let dm = Check.diff_multiset ~expected:net.Check.missing ~actual:d.Check.missing in
            let di = Check.diff_multiset ~expected:net.Check.extra ~actual:d.Check.extra in
            if not (Check.diff_is_empty dm && Check.diff_is_empty di) then
              fail st
                "recovery(post-commit): %s must reflect the whole change: del-side %a, \
                 ins-side %a"
                r Check.pp_diff dm Check.pp_diff di
        | _ ->
            (* mid-flush: a durable prefix — surplus within the inserts,
               deficit within the deletes *)
            let dm = Check.diff_multiset ~expected:would_del ~actual:d.Check.missing in
            let di = Check.diff_multiset ~expected:would_ins ~actual:d.Check.extra in
            if dm.Check.extra <> [] || di.Check.extra <> [] then
              fail st "recovery(mid-flush): %s prefix outside the crashed change: %a" r
                Check.pp_diff d)
    st.shadow

let recover st ~site ~change =
  st.crashes <- st.crashes + 1;
  note st (Fmt.str "CRASH at %s during [%s]; recovering" site (describe_change change));
  let rel, would_ins, would_del = change_effect st change in
  (* the failpoint flushed the channel before raising, so closing loses
     nothing *)
  (try Wal.close st.wal with _ -> ());
  let pool = Buffer_pool.create ~capacity:20_000 () in
  let catalog = Snapshot.load ~pool ~filename:st.snapshot_file in
  let replayed =
    try Wal.replay catalog ~filename:st.wal_file
    with Wal.Corrupt msg ->
      fail st "recovery(%s): corrupt log: %s" site msg;
      0
  in
  (try Catalog.validate catalog
   with Catalog.Inconsistent msg -> fail st "recovery(%s): catalog inconsistent: %s" site msg);
  verify_recovery st ~site ~rel ~would_ins ~would_del catalog;
  (* adopt the recovered state and checkpoint: fresh snapshot, empty
     log, fresh (empty, trivially consistent) view *)
  st.catalog <- catalog;
  st.t1 <- Template.compile catalog Querygen.t1_spec;
  st.mgr <- Txn.create catalog;
  st.shadow <- snapshot_shadow catalog;
  Snapshot.save catalog ~filename:st.snapshot_file;
  if Sys.file_exists st.wal_file then Sys.remove st.wal_file;
  st.wal <- Wal.open_log ~filename:st.wal_file ();
  st.view <- make_view st;
  attach_hooks st;
  st.recoveries <- st.recoveries + 1;
  note st (Fmt.str "recovered: %d changes replayed" replayed)

(* --- events ------------------------------------------------------------ *)

let finish_txn st change = function
  | `Committed -> ()
  | `Lost_maintenance -> rebuild_view st
  | `Lock_reject ->
      st.lock_rejects <- st.lock_rejects + 1;
      note st "txn: lock rejected"
  | `Crashed site -> recover st ~site ~change

let txn_event st =
  let change = gen_change st.w in
  note st (Fmt.str "txn: %s" (describe_change change));
  finish_txn st change (run_txn st change)

(* --- Section 3.6 shape oracles ----------------------------------------- *)

(* Finalized aggregate values may sum floats in different orders on the
   streamed and oracle sides: compare with a relative epsilon. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y)
      <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.compare a b = 0

let groups_agree expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (ek, evs) (ak, avs) ->
         Tuple.compare ek ak = 0
         && Array.length evs = Array.length avs
         && Array.for_all2 value_close evs avs)
       expected actual

let rows_equal expected actual =
  List.length expected = List.length actual
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) expected actual

(* Draw this query's shape from the seeded stream: plain stays dominant
   (the classic oracle exercises the DS identity), the Section 3.6
   shapes cover the rest. Non-plain shapes only run while no
   maintenance is pending — their oracles have no allowing-stale
   verdict. *)
let draw_shape w compiled ~pending =
  let k = 1 + SM.int w.rng ~bound:8 in
  let shapes = Querygen.shapes_for compiled ~k in
  let r = SM.int w.rng ~bound:10 in
  if pending || r < 6 then Querygen.Plain
  else
    match shapes with
    | _ :: (_ :: _ as rest) -> List.nth rest ((r - 6) mod List.length rest)
    | _ -> Querygen.Plain

(* Oracle-check one non-plain shape against the single-engine view;
   every mismatch names the template and shape class. *)
let shape_query st shape inst =
  let sname = Querygen.shape_name shape in
  let tname = st.t1.Template.spec.Template.name in
  let txn = 1_000_000 + st.qid in
  let locks = Txn.locks st.mgr in
  let shape_fail fmt =
    Fmt.kstr
      (fun s ->
        fail st "query %d template=%s shape=%s (%s): %s" st.qid tname sname
          (describe_inst inst) s)
      fmt
  in
  (match shape with
  | Querygen.Plain -> assert false (* routed through check_answer *)
  | Querygen.Distinct ->
      let delivered = ref [] in
      let _stats, n =
        Pmv.Extensions.answer_distinct ~locks ~txn ~probe_path:st.cfg.probe_path
          ~view:st.view st.catalog inst ~on_tuple:(fun _ t ->
            delivered := t :: !delivered)
      in
      let d =
        Check.diff_multiset
          ~expected:(Check.ground_truth_distinct st.catalog inst)
          ~actual:(List.rev !delivered)
      in
      if not (Check.diff_is_empty d) then shape_fail "%a" Check.pp_diff d
      else if n <> List.length !delivered then
        shape_fail "reported %d distinct, delivered %d" n (List.length !delivered)
      else note st (Fmt.str "query %d (%s) %s: %d rows" st.qid (describe_inst inst) sname n)
  | Querygen.Grouped { key; aggs } ->
      let g =
        Pmv.Extensions.answer_groups ~locks ~txn ~probe_path:st.cfg.probe_path
          ~view:st.view st.catalog inst ~key ~aggs
      in
      (* shadow accumulators: the oracle folds its own rows through the
         same associative specs, sharing only Aggregate.finalize *)
      let expected = Check.ground_truth_grouped st.catalog inst ~key ~aggs in
      let actual = Pmv.Extensions.finalize_groups ~aggs g.Pmv.Extensions.g_groups in
      if not (groups_agree expected actual) then
        shape_fail "%d groups vs %d oracle groups" (List.length actual)
          (List.length expected)
      else
        note st
          (Fmt.str "query %d (%s) %s: %d groups" st.qid (describe_inst inst) sname
             (List.length actual))
  | Querygen.Ordered { order; k } ->
      let rows, _stats =
        Pmv.Extensions.answer_ordered_k ~locks ~txn ~probe_path:st.cfg.probe_path
          ~view:st.view st.catalog inst ~order ~k
      in
      let expected = Check.ground_truth_ordered st.catalog inst ~order ~limit:k () in
      if not (rows_equal expected rows) then
        shape_fail "first-%d prefix diverges from the oracle order" k
      else
        note st
          (Fmt.str "query %d (%s) %s: first %d of %d" st.qid (describe_inst inst) sname
             (List.length rows) k)
  | Querygen.Exists ->
      let got, how = Pmv.Extensions.exists_ ~probe_path:st.cfg.probe_path ~view:st.view st.catalog inst in
      let want = Check.ground_truth_exists st.catalog inst in
      if got <> want then shape_fail "answered %b, oracle says %b" got want
      else
        note st
          (Fmt.str "query %d (%s) %s: %b (%s)" st.qid (describe_inst inst) sname got
             (match how with `From_pmv -> "witness" | `Executed -> "executed")));
  st.queries <- st.queries + 1

let run_checked_query st =
  let e = 1 + SM.int st.w.rng ~bound:3 and f = 1 + SM.int st.w.rng ~bound:2 in
  let inst =
    Querygen.gen_t1 st.t1 ~dates_zipf:st.w.dates_zipf ~supp_zipf:st.w.supp_zipf ~e ~f st.w.rng
  in
  st.qid <- st.qid + 1;
  let txn = 1_000_000 + st.qid in
  let pending = Pmv.Maintain.n_pending st.view > 0 in
  match draw_shape st.w st.t1 ~pending with
  | Querygen.Plain -> (
      match
        Check.check_answer ~locks:(Txn.locks st.mgr) ~txn ~probe_path:st.cfg.probe_path
          ~view:st.view st.catalog inst
      with
      | r ->
          st.queries <- st.queries + 1;
          let verdict =
            if pending then Check.report_ok_allowing_stale r else Check.report_ok r
          in
          if not verdict then
            fail st "query %d (%s)%s: %a" st.qid (describe_inst inst)
              (if pending then " [pending maintenance]" else "")
              Check.pp_report r
          else
            note st
              (Fmt.str "query %d (%s): %d rows, %d partial, %d stale" st.qid
                 (describe_inst inst) r.Check.delivered r.Check.partials
                 r.Check.stats.Pmv.Answer.stale_purged)
      | exception Failure msg when lock_conflict msg ->
          st.lock_rejects <- st.lock_rejects + 1;
          note st (Fmt.str "query %d: lock rejected" st.qid)
      | exception Fault.Injected site ->
          st.io_faults <- st.io_faults + 1;
          note st (Fmt.str "query %d: injected %s" st.qid site))
  | shape -> (
      match shape_query st shape inst with
      | () -> ()
      | exception Failure msg when lock_conflict msg ->
          st.lock_rejects <- st.lock_rejects + 1;
          note st (Fmt.str "query %d: lock rejected" st.qid)
      | exception Fault.Injected site ->
          st.io_faults <- st.io_faults + 1;
          note st (Fmt.str "query %d: injected %s" st.qid site))

let crash_event st =
  let site = crash_sites.(SM.int st.w.rng ~bound:(Array.length crash_sites)) in
  let policy =
    if site = "wal.mid_flush" then Fault.Nth (1 + SM.int st.w.rng ~bound:3) else Fault.Once
  in
  Fault.arm site policy;
  let change = gen_change st.w in
  note st (Fmt.str "crash attempt at %s: %s" site (describe_change change));
  (match run_txn st change with
  | `Committed ->
      (* mid-flush armed past the record count, or an empty delta *)
      note st "crash did not fire; txn committed"
  | outcome -> finish_txn st change outcome);
  Fault.disarm site

let lock_fault_event st =
  Fault.arm "lockmgr.acquire" Fault.Once;
  (if SM.bool st.w.rng then
     (* the query's S acquire on the view is refused *)
     run_checked_query st
   else begin
     let change = gen_change st.w in
     note st (Fmt.str "lock-fault txn: %s" (describe_change change));
     finish_txn st change (run_txn st change)
   end);
  Fault.disarm "lockmgr.acquire"

let io_fault_event st =
  Fault.arm "bufferpool.read" (Fault.Nth (1 + SM.int st.w.rng ~bound:300));
  let e = 1 + SM.int st.w.rng ~bound:3 and f = 1 + SM.int st.w.rng ~bound:2 in
  let inst =
    Querygen.gen_t1 st.t1 ~dates_zipf:st.w.dates_zipf ~supp_zipf:st.w.supp_zipf ~e ~f st.w.rng
  in
  st.qid <- st.qid + 1;
  (match
     Pmv.Answer.answer ~locks:(Txn.locks st.mgr) ~txn:(1_000_000 + st.qid)
       ~probe_path:st.cfg.probe_path ~view:st.view st.catalog inst
       ~on_tuple:(fun _ _ -> ())
   with
  | _ -> note st (Fmt.str "io-fault query %d completed before the fault" st.qid)
  | exception Fault.Injected site ->
      st.io_faults <- st.io_faults + 1;
      note st (Fmt.str "query %d: injected %s mid-answer" st.qid site)
  | exception Failure msg when lock_conflict msg -> st.lock_rejects <- st.lock_rejects + 1);
  Fault.disarm "bufferpool.read";
  (* an aborted answer must not have corrupted the view: re-check *)
  run_checked_query st

let maint_fault_event st =
  Fault.arm "maintain.apply" Fault.Once;
  let change = gen_change st.w in
  note st (Fmt.str "maint-fault txn: %s" (describe_change change));
  match run_txn st change with
  | `Committed ->
      (* the delta took the deferred path; the armed fault fires at the
         next application and is handled there *)
      note st "maintain.apply pending past this txn"
  | outcome -> finish_txn st change outcome

let defer_event st =
  Fault.arm "maintain.defer" Fault.Always;
  let change = gen_change st.w in
  note st (Fmt.str "defer txn: %s" (describe_change change));
  (match run_txn st change with
  | `Committed ->
      st.deferrals <- st.deferrals + 1;
      note st (Fmt.str "deferred; pending=%d" (Pmv.Maintain.n_pending st.view));
      (* answer under pending maintenance: the lenient verdict applies *)
      run_checked_query st
  | outcome -> finish_txn st change outcome);
  Fault.arm "maintain.defer" (Fault.Prob defer_prob);
  flush_pending_hard st

let deep_check st =
  st.deep_checks <- st.deep_checks + 1;
  flush_pending_hard st;
  (try Catalog.validate st.catalog
   with Catalog.Inconsistent msg -> fail st "deep check: catalog inconsistent: %s" msg);
  List.iter
    (fun (r, tbl) ->
      let d = Check.diff_multiset ~expected:(shadow_tuples tbl) ~actual:(heap_tuples st.catalog r) in
      if not (Check.diff_is_empty d) then
        fail st "deep check: shadow mismatch on %s: %a" r Check.pp_diff d)
    st.shadow;
  (match Check.check_view st.view st.catalog with
  | [] -> note st "deep check clean"
  | vs -> List.iter (fun v -> fail st "deep check: view invariant: %s" v) vs)

let pick st =
  let r = SM.int st.w.rng ~bound:100 in
  if r < 38 then `Query
  else if r < 62 then `Txn
  else if r < 72 then `Crash
  else if r < 80 then `Lock_fault
  else if r < 88 then `Io_fault
  else if r < 94 then `Maint_fault
  else `Defer

(* --- campaign ---------------------------------------------------------- *)

let run cfg =
  let params = Tpcr.params_for_scale ~seed:cfg.seed ~pad:false cfg.scale in
  let pool = Buffer_pool.create ~capacity:20_000 () in
  let catalog = Catalog.create pool in
  let counts = Tpcr.generate catalog params in
  let t1 = Template.compile catalog Querygen.t1_spec in
  let snapshot_file, wal_file, cleanup =
    match cfg.dir with
    | Some d -> (Filename.concat d "torture.snap", Filename.concat d "torture.wal", false)
    | None ->
        (Filename.temp_file "pmv_torture" ".snap", Filename.temp_file "pmv_torture" ".wal", true)
  in
  Snapshot.save catalog ~filename:snapshot_file;
  if Sys.file_exists wal_file then Sys.remove wal_file;
  let wal = Wal.open_log ~filename:wal_file () in
  let mgr = Txn.create catalog in
  let st =
    {
      cfg;
      w = make_wctx ~seed:cfg.seed ~params ~counts;
      snapshot_file;
      wal_file;
      catalog;
      t1;
      mgr;
      wal;
      view = Pmv.View.create ~capacity:96 ~name:"torture" t1;
      shadow = snapshot_shadow catalog;
      digest = 0xcbf29ce484222325L;
      qid = 0;
      queries = 0;
      txns = 0;
      crashes = 0;
      recoveries = 0;
      deferrals = 0;
      lock_rejects = 0;
      io_faults = 0;
      rebuilds = 0;
      deep_checks = 0;
      failures = [];
    }
  in
  attach_hooks st;
  Fault.reset ();
  Fault.enable ~seed:cfg.seed ();
  Fault.arm "maintain.defer" (Fault.Prob defer_prob);
  let finally () =
    Fault.reset ();
    Fault.disable ();
    (try Wal.close st.wal with _ -> ());
    if cleanup then
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ snapshot_file; wal_file ]
  in
  Fun.protect ~finally @@ fun () ->
  note st
    (Fmt.str "torture seed=%d events=%d scale=%g (%d customers, %d orders, %d lineitems)"
       cfg.seed cfg.events cfg.scale counts.Tpcr.customers counts.Tpcr.orders
       counts.Tpcr.lineitems);
  for i = 1 to cfg.events do
    if cfg.check_every > 0 && i mod cfg.check_every = 0 then deep_check st;
    match pick st with
    | `Query -> run_checked_query st
    | `Txn -> txn_event st
    | `Crash -> crash_event st
    | `Lock_fault -> lock_fault_event st
    | `Io_fault -> io_fault_event st
    | `Maint_fault -> maint_fault_event st
    | `Defer -> defer_event st
  done;
  deep_check st;
  {
    events = cfg.events;
    queries = st.queries;
    txns = st.txns;
    crashes = st.crashes;
    recoveries = st.recoveries;
    deferrals = st.deferrals;
    lock_rejects = st.lock_rejects;
    io_faults = st.io_faults;
    rebuilds = st.rebuilds;
    deep_checks = st.deep_checks;
    failures = List.rev st.failures;
    digest = Fmt.str "%016Lx" st.digest;
  }

(* --- sharded campaign --------------------------------------------------- *)

(* A leaner campaign across [cfg.shards] hash-partitioned engines
   (orders/lineitem by orderkey, customer replicated), driven by the
   same seeded workload generators and oracle-checked against one
   unsharded reference catalog replaying the identical change stream.
   No WAL crash events — recovery is the single-engine campaign's
   subject — but lock, I/O, deferral and lost-maintenance faults all
   fire inside individual shards' private fault scopes. The oracle
   checks every merged answer (including the DS identity under
   summation), the union-of-shards heaps against the reference,
   partition placement, and replica agreement. *)

module Router = Minirel_engine.Shard_router
module Engine = Minirel_engine.Engine

type sst = {
  cfg : cfg;
  w : wctx;
  router : Router.t;
  ref_catalog : Catalog.t;  (* the unsharded oracle *)
  ref_mgr : Txn.t;
  t1 : Template.compiled;
  mutable digest : int64;
  mutable qid : int;
  mutable queries : int;
  mutable txns : int;
  mutable deferrals : int;
  mutable lock_rejects : int;
  mutable io_faults : int;
  mutable rebuilds : int;
  mutable deep_checks : int;
  mutable failures : string list;
}

let snote st line =
  st.digest <- fnv_string st.digest line;
  match st.cfg.log with Some f -> f line | None -> ()

let sfail st fmt =
  Fmt.kstr
    (fun s ->
      st.failures <- s :: st.failures;
      snote st ("FAIL: " ^ s))
    fmt

let spending st =
  List.exists
    (fun e ->
      List.exists
        (fun v -> Pmv.Maintain.n_pending v > 0)
        (Pmv.Manager.views (Engine.manager e)))
    (Router.shards st.router)

(* A shard whose view lost a maintenance step rebuilds it — the same
   owner obligation as in the single-engine campaign. *)
let srebuild st i =
  let e = Router.shard st.router i in
  let template = st.t1.Template.spec.Template.name in
  Pmv.Manager.drop_view (Engine.manager e) ~template;
  ignore (Engine.ensure_view ~capacity:96 e st.t1);
  st.rebuilds <- st.rebuilds + 1;
  snote st (Fmt.str "shard%d view rebuilt after lost maintenance" i)

(* Drain every shard's pending queue with its defer failpoint
   suspended. *)
let sflush st =
  List.iteri
    (fun i e ->
      let reg = Engine.fault e in
      Fault.disarm_in reg "maintain.defer";
      List.iter
        (fun v ->
          match Pmv.Maintain.flush_pending v (Engine.txn_mgr e) with
          | () -> ()
          | exception Fault.Injected "maintain.apply" -> srebuild st i)
        (Pmv.Manager.views (Engine.manager e));
      Fault.arm_in reg "maintain.defer" (Fault.Prob defer_prob))
    (Router.shards st.router)

(* One non-plain shape through the router, oracle-checked against the
   unsharded reference catalog. Sharded GROUP BY merges the shards'
   partial accumulators, so this is the end-to-end check that the merge
   reproduces what one engine over the whole data would compute. *)
let sshape_query st shape inst =
  let sname = Querygen.shape_name shape in
  let shape_fail fmt =
    Fmt.kstr
      (fun s ->
        sfail st "query %d template=t1 shape=%s (%s): %s" st.qid sname
          (describe_inst inst) s)
      fmt
  in
  (match shape with
  | Querygen.Plain -> assert false (* routed through check_answer_via *)
  | Querygen.Distinct ->
      let seen = Tuple.Table.create 64 and delivered = ref [] in
      let _stats =
        Router.answer st.router inst ~on_tuple:(fun _ t ->
            if not (Tuple.Table.mem seen t) then begin
              Tuple.Table.replace seen t ();
              delivered := t :: !delivered
            end)
      in
      let d =
        Check.diff_multiset
          ~expected:(Check.ground_truth_distinct st.ref_catalog inst)
          ~actual:(List.rev !delivered)
      in
      if not (Check.diff_is_empty d) then shape_fail "%a" Check.pp_diff d
      else
        snote st
          (Fmt.str "query %d (%s) %s: %d rows" st.qid (describe_inst inst) sname
             (List.length !delivered))
  | Querygen.Grouped { key; aggs } ->
      let g, _merged = Router.answer_grouped st.router inst ~key ~aggs in
      let expected = Check.ground_truth_grouped st.ref_catalog inst ~key ~aggs in
      let actual = Pmv.Extensions.finalize_groups ~aggs g.Pmv.Extensions.g_groups in
      if not (groups_agree expected actual) then
        shape_fail "%d merged groups vs %d oracle groups" (List.length actual)
          (List.length expected)
      else
        snote st
          (Fmt.str "query %d (%s) %s: %d groups" st.qid (describe_inst inst) sname
             (List.length actual))
  | Querygen.Ordered { order; k } ->
      let rows, _stats = Router.answer_ordered_k st.router inst ~order ~k in
      let expected = Check.ground_truth_ordered st.ref_catalog inst ~order ~limit:k () in
      if not (rows_equal expected rows) then
        shape_fail "first-%d prefix diverges from the oracle order" k
      else
        snote st
          (Fmt.str "query %d (%s) %s: first %d of %d" st.qid (describe_inst inst) sname
             (List.length rows) k)
  | Querygen.Exists ->
      let got, how = Router.exists_ st.router inst in
      let want = Check.ground_truth_exists st.ref_catalog inst in
      if got <> want then shape_fail "answered %b, oracle says %b" got want
      else
        snote st
          (Fmt.str "query %d (%s) %s: %b (%s)" st.qid (describe_inst inst) sname got
             (match how with `From_pmv -> "witness" | `Executed -> "executed")));
  st.queries <- st.queries + 1

let squery st =
  let e = 1 + SM.int st.w.rng ~bound:3 and f = 1 + SM.int st.w.rng ~bound:2 in
  let inst =
    Querygen.gen_t1 st.t1 ~dates_zipf:st.w.dates_zipf ~supp_zipf:st.w.supp_zipf ~e ~f
      st.w.rng
  in
  st.qid <- st.qid + 1;
  let pending = spending st in
  match draw_shape st.w st.t1 ~pending with
  | Querygen.Plain -> (
      match
        Check.check_answer_via ~template:"t1" ~shape:"plain"
          ~expected:(Check.ground_truth st.ref_catalog inst)
          (fun ~on_tuple -> fst (Router.answer st.router inst ~on_tuple))
      with
      | r ->
          st.queries <- st.queries + 1;
          let verdict =
            if pending then Check.report_ok_allowing_stale r else Check.report_ok r
          in
          if not verdict then
            sfail st "query %d (%s)%s: %a" st.qid (describe_inst inst)
              (if pending then " [pending maintenance]" else "")
              Check.pp_report r
          else
            snote st
              (Fmt.str "query %d (%s): %d rows, %d partial, %d stale" st.qid
                 (describe_inst inst) r.Check.delivered r.Check.partials
                 r.Check.stats.Pmv.Answer.stale_purged)
      | exception Failure msg when lock_conflict msg ->
          st.lock_rejects <- st.lock_rejects + 1;
          snote st (Fmt.str "query %d: lock rejected" st.qid)
      | exception Fault.Injected site ->
          st.io_faults <- st.io_faults + 1;
          snote st (Fmt.str "query %d: injected %s" st.qid site))
  | shape -> (
      match sshape_query st shape inst with
      | () -> ()
      | exception Failure msg when lock_conflict msg ->
          st.lock_rejects <- st.lock_rejects + 1;
          snote st (Fmt.str "query %d: lock rejected" st.qid)
      | exception Fault.Injected site ->
          st.io_faults <- st.io_faults + 1;
          snote st (Fmt.str "query %d: injected %s" st.qid site))

(* Run the change on the shards, then mirror it into the reference
   catalog: the same seeded stream drives both sides, and every change
   here pins orderkey, so routing touches exactly the owning shard. *)
let stxn st =
  let change = gen_change st.w in
  snote st (Fmt.str "txn: %s" (describe_change change));
  match Router.run st.router [ change ] with
  | routed ->
      ignore (Txn.run st.ref_mgr [ change ]);
      st.txns <- st.txns + 1;
      snote st
        (Fmt.str "routed to [%s]"
           (String.concat ";" (List.map (fun (i, _) -> string_of_int i) routed)))
  | exception Failure msg when lock_conflict msg ->
      st.lock_rejects <- st.lock_rejects + 1;
      snote st "txn: lock rejected"

(* Lost maintenance on the owning shard of one insert: the insert is
   durable on that shard, only its view missed the delta. *)
let smaint_fault st =
  let ok = st.w.next_orderkey in
  st.w.next_orderkey <- st.w.next_orderkey + 1;
  let change =
    Txn.Insert
      {
        rel = "orders";
        tuple =
          [|
            Value.Int ok;
            Value.Int (1 + SM.int st.w.rng ~bound:st.w.counts.Tpcr.customers);
            zipf_date st.w;
            rand_price st.w;
            Value.Str "";
          |];
      }
  in
  let owner = match Router.targets st.router change with [ i ] -> i | _ -> 0 in
  let reg = Engine.fault (Router.shard st.router owner) in
  Fault.arm_in reg "maintain.apply" Fault.Once;
  snote st (Fmt.str "maint-fault txn on shard%d: %s" owner (describe_change change));
  (match Router.run st.router [ change ] with
  | _ ->
      st.txns <- st.txns + 1;
      snote st "maintain.apply pending past this txn"
  | exception Fault.Injected "maintain.apply" ->
      st.txns <- st.txns + 1;
      srebuild st owner);
  ignore (Txn.run st.ref_mgr [ change ]);
  Fault.disarm_in reg "maintain.apply"

let slock_fault st =
  let i = SM.int st.w.rng ~bound:(Router.n_shards st.router) in
  let reg = Engine.fault (Router.shard st.router i) in
  Fault.arm_in reg "lockmgr.acquire" Fault.Once;
  snote st (Fmt.str "lock fault armed on shard%d" i);
  squery st;
  Fault.disarm_in reg "lockmgr.acquire"

let sio_fault st =
  let i = SM.int st.w.rng ~bound:(Router.n_shards st.router) in
  let reg = Engine.fault (Router.shard st.router i) in
  Fault.arm_in reg "bufferpool.read" (Fault.Nth (1 + SM.int st.w.rng ~bound:100));
  snote st (Fmt.str "io fault armed on shard%d" i);
  squery st;
  Fault.disarm_in reg "bufferpool.read";
  (* an aborted merged answer must not have corrupted any shard *)
  squery st

let sdefer st =
  let change = gen_change st.w in
  let regs = List.map Engine.fault (Router.shards st.router) in
  List.iter (fun r -> Fault.arm_in r "maintain.defer" Fault.Always) regs;
  snote st (Fmt.str "defer txn: %s" (describe_change change));
  (match Router.run st.router [ change ] with
  | _ ->
      ignore (Txn.run st.ref_mgr [ change ]);
      st.txns <- st.txns + 1;
      st.deferrals <- st.deferrals + 1;
      snote st "deferred on the owning shard";
      (* answer under pending maintenance: the lenient verdict applies *)
      squery st
  | exception Failure msg when lock_conflict msg ->
      st.lock_rejects <- st.lock_rejects + 1);
  List.iter (fun r -> Fault.arm_in r "maintain.defer" (Fault.Prob defer_prob)) regs;
  sflush st

(* Union-of-shards vs the reference catalog, partition placement,
   replica agreement, per-shard catalog and view invariants. *)
let sdeep st =
  st.deep_checks <- st.deep_checks + 1;
  sflush st;
  List.iter
    (fun rel ->
      let expected = heap_tuples st.ref_catalog rel in
      let actual =
        match Router.partitioning st.router ~rel with
        | Some Router.Replicated | None ->
            heap_tuples (Engine.catalog (Router.shard st.router 0)) rel
        | Some (Router.Hash pos) ->
            List.concat
              (List.mapi
                 (fun i e ->
                   let mine = heap_tuples (Engine.catalog e) rel in
                   List.iter
                     (fun t ->
                       let owner = Router.shard_of_value st.router t.(pos) in
                       if owner <> i then
                         sfail st "deep check: %s row %a on shard%d, owner shard%d" rel
                           Tuple.pp t i owner)
                     mine;
                   mine)
                 (Router.shards st.router))
      in
      let d = Check.diff_multiset ~expected ~actual in
      if not (Check.diff_is_empty d) then
        sfail st "deep check: %s union-of-shards mismatch: %a" rel Check.pp_diff d;
      match Router.partitioning st.router ~rel with
      | Some (Router.Hash _) -> ()
      | Some Router.Replicated | None ->
          let sh0 = heap_tuples (Engine.catalog (Router.shard st.router 0)) rel in
          List.iteri
            (fun i e ->
              if i > 0 then
                let d =
                  Check.diff_multiset ~expected:sh0
                    ~actual:(heap_tuples (Engine.catalog e) rel)
                in
                if not (Check.diff_is_empty d) then
                  sfail st "deep check: replica %s diverged on shard%d: %a" rel i
                    Check.pp_diff d)
            (Router.shards st.router))
    rels;
  List.iteri
    (fun i e ->
      (try Catalog.validate (Engine.catalog e)
       with Catalog.Inconsistent msg -> sfail st "deep check: shard%d catalog: %s" i msg);
      List.iter
        (fun v ->
          match Check.check_view v (Engine.catalog e) with
          | [] -> ()
          | vs -> List.iter (fun m -> sfail st "deep check: shard%d view: %s" i m) vs)
        (Pmv.Manager.views (Engine.manager e)))
    (Router.shards st.router);
  snote st "deep check done"

let spick w =
  let r = SM.int w.rng ~bound:100 in
  if r < 42 then `Query
  else if r < 70 then `Txn
  else if r < 78 then `Lock_fault
  else if r < 86 then `Io_fault
  else if r < 93 then `Maint_fault
  else `Defer

let run_sharded cfg =
  let shards = max 1 cfg.shards in
  let domains = max 1 cfg.domains in
  let params = Tpcr.params_for_scale ~seed:cfg.seed ~pad:false cfg.scale in
  let pool = Buffer_pool.create ~capacity:20_000 () in
  let ref_catalog = Catalog.create pool in
  let counts = Tpcr.generate ref_catalog params in
  let t1 = Template.compile ref_catalog Querygen.t1_spec in
  let router = Router.create ~shards () in
  List.iter
    (fun rel ->
      Router.declare router (Catalog.schema ref_catalog rel) ~part:(`Hash "orderkey"))
    [ "orders"; "lineitem" ];
  Router.declare router (Catalog.schema ref_catalog "customer") ~part:`Replicated;
  Router.load_from router ref_catalog;
  ignore (Router.create_view ~capacity:96 router t1);
  Router.set_probe_path router cfg.probe_path;
  let st =
    {
      cfg;
      w = make_wctx ~seed:cfg.seed ~params ~counts;
      router;
      ref_catalog;
      ref_mgr = Txn.create ref_catalog;
      t1;
      digest = 0xcbf29ce484222325L;
      qid = 0;
      queries = 0;
      txns = 0;
      deferrals = 0;
      lock_rejects = 0;
      io_faults = 0;
      rebuilds = 0;
      deep_checks = 0;
      failures = [];
    }
  in
  List.iteri
    (fun i e ->
      let reg = Engine.fault e in
      Fault.enable_in ~seed:(cfg.seed + i) reg;
      Fault.arm_in reg "maintain.defer" (Fault.Prob defer_prob))
    (Router.shards st.router);
  (* Attach the fan-out pool (campaign-owned: torn down on exit). The
     merged stream is order-identical to the sequential one, so the
     digest stays reproducible for a fixed (seed, domains) pair. *)
  let fanout_pool =
    if domains >= 2 then begin
      let p = Minirel_parallel.Pool.create ~domains in
      Router.set_parallel st.router (Some p);
      Some p
    end
    else None
  in
  let finally () =
    Router.set_parallel st.router None;
    Option.iter Minirel_parallel.Pool.shutdown fanout_pool
  in
  Fun.protect ~finally @@ fun () ->
  snote st
    (Fmt.str
       "sharded torture seed=%d events=%d scale=%g shards=%d domains=%d (%d customers, \
        %d orders, %d lineitems)"
       cfg.seed cfg.events cfg.scale shards domains counts.Tpcr.customers
       counts.Tpcr.orders counts.Tpcr.lineitems);
  for i = 1 to cfg.events do
    if cfg.check_every > 0 && i mod cfg.check_every = 0 then sdeep st;
    match spick st.w with
    | `Query -> squery st
    | `Txn -> stxn st
    | `Lock_fault -> slock_fault st
    | `Io_fault -> sio_fault st
    | `Maint_fault -> smaint_fault st
    | `Defer -> sdefer st
  done;
  sdeep st;
  {
    events = cfg.events;
    queries = st.queries;
    txns = st.txns;
    crashes = 0;
    recoveries = 0;
    deferrals = st.deferrals;
    lock_rejects = st.lock_rejects;
    io_faults = st.io_faults;
    rebuilds = st.rebuilds;
    deep_checks = st.deep_checks;
    failures = List.rev st.failures;
    digest = Fmt.str "%016Lx" st.digest;
  }
