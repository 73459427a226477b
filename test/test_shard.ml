(* Shard_router: merged answer streams vs the single-engine oracle,
   maintenance delta routing, per-shard telemetry labels/merging, the
   shell's merged METRICS view, first-k across shards, and a sharded
   torture smoke. *)

open Minirel_storage
open Minirel_query
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Check = Minirel_check.Check
module Txn = Minirel_txn.Txn
module Registry = Minirel_telemetry.Registry
module Shell = Minirel_shell.Shell
module Torture = Minirel_check.Torture

let check = Alcotest.check
let vi i = Value.Int i

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Reference catalog plus a router over the r/s fixture: r
   hash-partitioned by the join key c, s by d — co-partitioned, so the
   join is shard-local — and the same rows loaded into both. *)
let make ?(shards = 3) () =
  let reference = Helpers.fresh_catalog () in
  Helpers.build_rs reference;
  let router = Router.create ~shards () in
  Router.declare router Helpers.r_schema ~part:(`Hash "c");
  Router.declare router Helpers.s_schema ~part:(`Hash "d");
  Router.load_from router reference;
  let compiled = Template.compile reference Helpers.eqt_spec in
  (reference, router, compiled)

let inst c ~fs ~gs =
  let dvs l = Instance.Dvalues (List.map vi (List.sort_uniq compare l)) in
  Instance.make c [| dvs fs; dvs gs |]

let route_answer router q ~on_tuple = fst (Router.answer router q ~on_tuple)

(* Mirror a change into both the router and the unsharded reference. *)
let mirror reference router change =
  ignore (Router.run router [ change ]);
  ignore (Txn.run (Txn.create reference) [ change ])

(* The qcheck property: the merged O2+O3 stream over N shards equals
   the single-engine ground truth as a multiset, with the DS
   exactly-once identity intact under summation — cold, warm, and
   after routed DML. *)
let prop_merged_stream =
  QCheck2.Test.make ~name:"merged shard stream == unsharded oracle" ~count:30
    QCheck2.Gen.(
      quad (int_range 1 4)
        (list_size (int_range 1 3) (int_range 0 9))
        (list_size (int_range 1 3) (int_range 0 7))
        (list_size (int_range 0 4) (int_range 0 39)))
    (fun (shards, fs, gs, inserts) ->
      let reference, router, compiled = make ~shards () in
      ignore (Router.create_view ~capacity:64 router compiled);
      let q = inst compiled ~fs ~gs in
      let judge () =
        Check.report_ok
          (Check.check_answer_via
             ~expected:(Check.ground_truth reference q)
             (route_answer router q))
      in
      let cold = judge () in
      let warm = judge () in
      (* routed inserts pin the partition key; the reference replays them *)
      List.iteri
        (fun i c ->
          mirror reference router
            (Txn.Insert
               {
                 rel = "r";
                 tuple = [| vi (1000 + i); vi c; vi (c mod 10); Value.Str "x" |];
               }))
        inserts;
      cold && warm && judge ())

let prop_first_k =
  QCheck2.Test.make ~name:"first-k across shards is k genuine results" ~count:20
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 7))
    (fun (shards, f) ->
      let reference, router, compiled = make ~shards () in
      ignore (Router.create_view ~capacity:64 router compiled);
      let q = inst compiled ~fs:[ f ] ~gs:[ f mod 8 ] in
      let truth = Check.ground_truth reference q in
      ignore (route_answer router q ~on_tuple:(fun _ _ -> ()));
      let k = min 3 (List.length truth) in
      k = 0
      ||
      let rows = Router.answer_first_k router q ~k in
      List.length rows = k
      && List.for_all (fun t -> List.exists (Tuple.equal t) truth) rows)

let count_matching e ~rel ~pos v =
  let heap = Minirel_index.Catalog.heap (Engine.catalog e) rel in
  Minirel_storage.Heap_file.fold heap
    (fun acc _ t -> if Value.equal t.(pos) v then acc + 1 else acc)
    0

let test_maintenance_routing () =
  let _, router, compiled = make ~shards:3 () in
  let views = Router.create_view ~capacity:64 router compiled in
  (* warm the views with the bcps the c=17 rows derive: r rows with
     c = 17 have f = rkey mod 10 = 7; s rows with d = 17 have g = 1 *)
  let q = inst compiled ~fs:[ 7 ] ~gs:[ 1 ] in
  ignore (route_answer router q ~on_tuple:(fun _ _ -> ()));
  let key = vi 17 in
  let owner = Router.shard_of_value router key in
  (* partition placement: only the owner holds c=17 rows *)
  List.iteri
    (fun i e ->
      let n = count_matching e ~rel:"r" ~pos:1 key in
      if i = owner then
        check Alcotest.bool "owner holds the rows" true (n > 0)
      else check Alcotest.int (Fmt.str "shard%d foreign rows" i) 0 n)
    (Router.shards router);
  let pred = Predicate.Cmp (Predicate.Eq, 1, key) in
  (* an update pinning the key runs on the owner alone *)
  let routed =
    Router.run router [ Txn.Update { rel = "r"; pred; set = [ (2, vi 5) ] } ]
  in
  check Alcotest.(list int) "update routed to owner" [ owner ]
    (List.map fst routed);
  (* modifying the partition key itself is refused *)
  (match Router.run router [ Txn.Update { rel = "r"; pred; set = [ (1, vi 3) ] } ]
   with
  | _ -> Alcotest.fail "partition-key update was not refused"
  | exception Invalid_argument _ -> ());
  (* a pinned delete runs on the owner alone, and its maintenance delta
     reaches exactly that shard's view: every view stays consistent
     with its own shard (a missed delta would leave stale tuples) *)
  let before = Array.map Pmv.View.n_tuples views in
  let routed = Router.run router [ Txn.Delete { rel = "r"; pred } ] in
  check Alcotest.(list int) "delete routed to owner" [ owner ]
    (List.map fst routed);
  List.iteri
    (fun i e ->
      check Alcotest.int (Fmt.str "shard%d rows purged" i) 0
        (count_matching e ~rel:"r" ~pos:1 key);
      check Alcotest.(list string)
        (Fmt.str "shard%d view consistent" i)
        []
        (Check.check_view views.(i) (Engine.catalog e));
      if i <> owner then
        check Alcotest.int
          (Fmt.str "shard%d view untouched" i)
          before.(i)
          (Pmv.View.n_tuples views.(i)))
    (Router.shards router)

let test_prometheus_labels_and_merge () =
  let _, router, compiled = make ~shards:2 () in
  ignore (Router.create_view ~capacity:64 router compiled);
  ignore
    (route_answer router (inst compiled ~fs:[ 1 ] ~gs:[ 1 ])
       ~on_tuple:(fun _ _ -> ()));
  let prom = Router.prometheus_string router in
  check Alcotest.bool "shard 0 labelled" true (contains prom "shard=\"0\"");
  check Alcotest.bool "shard 1 labelled" true (contains prom "shard=\"1\"");
  (* merged counters are the per-shard sums *)
  let per_shard = List.map snd (Router.snapshots router) in
  let merged_counters =
    List.filter_map
      (fun (name, v) ->
        match v with Registry.Counter n -> Some (name, n) | _ -> None)
      (Router.snapshot_merged router)
  in
  check Alcotest.bool "merged view has counters" true (merged_counters <> []);
  (* router-level sources ride along in the merged view but are not
     per-shard sums — the sum invariant covers the shard series only *)
  check Alcotest.bool "merged view has router affinity counters" true
    (List.mem_assoc "router.affinity.aff_hits" merged_counters);
  List.iter
    (fun (name, total) ->
      if not (String.length name >= 7 && String.sub name 0 7 = "router.") then
        let sum =
          List.fold_left
            (fun acc snap ->
              match List.assoc_opt name snap with
              | Some (Registry.Counter n) -> acc + n
              | _ -> acc)
            0 per_shard
        in
        check Alcotest.int name sum total)
    merged_counters

let test_shell_merged_metrics () =
  let _, router, _ = make ~shards:2 () in
  let shell = Shell.of_router router in
  ignore
    (Shell.exec shell
       "select r.rkey, s.e from r, s where r.c = s.d and (r.f = 1) and (s.g = 1)");
  match Shell.exec shell "metrics" with
  | Shell.Metrics text ->
      check Alcotest.bool "announces the merge" true
        (contains text "merged over 2 shards")
  | _ -> Alcotest.fail "expected a Metrics result"

let test_shell_sharded_matches_unsharded () =
  (* the same SQL against a sharded shell and a plain single-engine
     shell over identical data returns the same multiset *)
  let reference, router, _ = make ~shards:3 () in
  let sharded = Shell.of_router router in
  let plain = Shell.create reference in
  let sql =
    "select r.rkey, s.e from r, s where r.c = s.d and (r.f = 1) and (s.g = 1)"
  in
  let rows_of shell =
    match Shell.exec shell sql with
    | Shell.Rows { rows; _ } -> rows
    | _ -> Alcotest.fail "expected Rows"
  in
  let cold = rows_of sharded in
  let warm = rows_of sharded in
  let expect = rows_of plain in
  check Alcotest.bool "result not empty" true (expect <> []);
  check Helpers.tuples "cold sharded == unsharded" expect cold;
  check Helpers.tuples "warm sharded == unsharded" expect warm

let test_epoch_fast_path () =
  let reference, router, compiled = make ~shards:3 () in
  ignore (Router.create_view ~capacity:64 router compiled);
  Router.set_probe_path router Pmv.Answer.Epoch;
  let q = inst compiled ~fs:[ 1 ] ~gs:[ 1 ] in
  let collect () =
    let out = ref [] in
    ignore (route_answer router q ~on_tuple:(fun _ t -> out := t :: !out));
    List.sort Tuple.compare !out
  in
  let truth () = List.sort Tuple.compare (Check.ground_truth reference q) in
  let cold = collect () in
  let ps = Router.probe_stats router in
  check Alcotest.int "cold query falls back" 1 ps.Router.fallbacks;
  check Alcotest.int "no hit yet" 0 ps.Router.fast_hits;
  let warm = collect () in
  let ps = Router.probe_stats router in
  check Alcotest.int "warm repeat serves without fan-out" 1 ps.Router.fast_hits;
  check Alcotest.bool "cold matches truth" true
    (List.equal Tuple.equal cold (truth ()));
  check Alcotest.bool "fast-path answer matches truth" true
    (List.equal Tuple.equal warm (truth ()));
  check Alcotest.bool "probe latency recorded" true
    ((Router.probe_summary router).Minirel_telemetry.Histogram.count > 0);
  (* routed DML invalidates the cached answer: the next query must fall
     back and reflect the new data, never serve the stale install *)
  mirror reference router
    (Txn.Insert { rel = "r"; tuple = [| vi 3000; vi 1; vi 1; Value.Str "z" |] });
  let after = collect () in
  let ps = Router.probe_stats router in
  check Alcotest.int "post-DML query fell back" 2 ps.Router.fallbacks;
  check Alcotest.bool "post-DML answer matches fresh truth" true
    (List.equal Tuple.equal after (truth ()));
  Router.shutdown router

let test_probe_path_parity () =
  (* the same stream, answered under each read path, must be the same
     multiset query by query — the A/B contract the bench and pmvctl
     --probe-path rely on *)
  let _, router, compiled = make ~shards:2 () in
  ignore (Router.create_view ~capacity:64 router compiled);
  let queries =
    List.init 12 (fun i -> inst compiled ~fs:[ i mod 8 ] ~gs:[ (i + 3) mod 8 ])
  in
  let stream path =
    Router.set_probe_path router path;
    List.map
      (fun q ->
        let out = ref [] in
        ignore (route_answer router q ~on_tuple:(fun _ t -> out := t :: !out));
        List.sort Tuple.compare !out)
      (queries @ queries)
  in
  let locked = stream Pmv.Answer.Locked in
  let epoch = stream Pmv.Answer.Epoch in
  List.iteri
    (fun i (l, e) ->
      check Alcotest.bool (Fmt.str "query %d parity" i) true
        (List.equal Tuple.equal l e))
    (List.combine locked epoch);
  Router.shutdown router

let test_sharded_torture_smoke () =
  let cfg =
    { (Torture.default_cfg ~seed:11) with Torture.events = 120; shards = 3 }
  in
  let o = Torture.run_sharded cfg in
  if not (Torture.ok o) then
    Alcotest.failf "sharded torture not clean:@ %a" Torture.pp_outcome o;
  check Alcotest.int "no crash events in sharded campaign" 0 o.Torture.crashes;
  check Alcotest.bool "queries oracle-checked" true (o.Torture.queries > 0);
  check Alcotest.bool "txns committed" true (o.Torture.txns > 0)

(* EXISTS and LIMIT k while every shard's maintenance is deferred: the
   views still cache tuples a broadcast delete removed from the base
   data, so no shard may answer from them — neither as a cached witness
   nor as the first tuple of an early-stopped answer — on either read
   path, through the router or on one engine. *)
let test_exists_under_pending_delete () =
  let module Fault = Minirel_fault.Fault in
  let reference, router, compiled = make ~shards:3 () in
  ignore (Router.create_view ~capacity:64 router compiled);
  let q = inst compiled ~fs:[ 0 ] ~gs:[ 0 ] in
  ignore (route_answer router q ~on_tuple:(fun _ _ -> ()));
  check Alcotest.bool "a witness exists before the delete" true
    (fst (Router.exists_ router q));
  let regs = List.map Engine.fault (Router.shards router) in
  List.iter
    (fun r ->
      Fault.enable_in r;
      Fault.arm_in r "maintain.defer" Fault.Always)
    regs;
  Fun.protect
    ~finally:(fun () -> List.iter Fault.disable_in regs)
    (fun () ->
      mirror reference router
        (Txn.Delete { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 2, vi 0) });
      check Alcotest.bool "maintenance is pending" true
        (List.exists
           (fun e ->
             List.exists
               (fun v -> Pmv.Maintain.n_pending v > 0)
               (Pmv.Manager.views (Engine.manager e)))
           (Router.shards router));
      check Alcotest.bool "oracle: no witness left" false
        (Check.ground_truth_exists reference q);
      List.iter
        (fun path ->
          let got, _ = Router.exists_ ~probe_path:path router q in
          check Alcotest.bool
            (Fmt.str "%s exists" (Pmv.Answer.probe_path_to_string path))
            false got)
        [ Pmv.Answer.Locked; Pmv.Answer.Epoch ];
      let truth = Check.ground_truth reference q in
      check Helpers.tuples "router first-k" truth (Router.answer_first_k router q ~k:1);
      let e0 = List.hd (Router.shards router) in
      let view0 =
        Option.get (Engine.find_view e0 ~template:compiled.Template.spec.Template.name)
      in
      check Helpers.tuples "engine first-k on shard 0" truth
        (Pmv.Extensions.answer_first_k ~locks:(Engine.locks e0) ~view:view0
           (Engine.catalog e0) q ~k:1))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_merged_stream;
    QCheck_alcotest.to_alcotest prop_first_k;
    Alcotest.test_case "maintenance deltas route to the owner" `Quick
      test_maintenance_routing;
    Alcotest.test_case "prometheus shard labels and merged counters" `Quick
      test_prometheus_labels_and_merge;
    Alcotest.test_case "shell METRICS merges shards" `Quick
      test_shell_merged_metrics;
    Alcotest.test_case "sharded shell matches unsharded shell" `Quick
      test_shell_sharded_matches_unsharded;
    Alcotest.test_case "epoch fast path: hit, telemetry, invalidation" `Quick
      test_epoch_fast_path;
    Alcotest.test_case "locked and epoch paths answer identically" `Quick
      test_probe_path_parity;
    Alcotest.test_case "exists ignores caches a pending delete made stale" `Quick
      test_exists_under_pending_delete;
    Alcotest.test_case "sharded torture smoke" `Slow test_sharded_torture_smoke;
  ]
