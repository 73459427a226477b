(* The core correctness suite: Operations O1/O2/O3 against ground truth,
   exactly-once delivery, bounds, locking, and deferred maintenance. *)

open Minirel_storage
open Minirel_query
module View = Pmv.View
module Answer = Pmv.Answer
module Maintain = Pmv.Maintain
module Entry_store = Pmv.Entry_store
module Txn = Minirel_txn.Txn
module Lock = Minirel_txn.Lock_manager
module Policies = Minirel_cache.Policies

let check = Alcotest.check
let vi i = Value.Int i

let setup ?(policy = Policies.Clock) ?(capacity = 30) ?(f_max = 2) ?(aux = true) () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~policy ~f_max ~aux_maintenance:aux ~capacity ~name:"eqt" c in
  (catalog, c, view)

let random_instance c rng =
  let module SM = Minirel_prng.Split_mix in
  let e = 1 + SM.int rng ~bound:3 and f = 1 + SM.int rng ~bound:3 in
  let fs = SM.distinct rng ~n:e (fun r -> SM.int r ~bound:10) in
  let gs = SM.distinct rng ~n:f (fun r -> SM.int r ~bound:8) in
  Instance.make c
    [|
      Instance.Dvalues (List.map (fun i -> vi i) fs);
      Instance.Dvalues (List.map (fun i -> vi i) gs);
    |]

let test_answer_equals_plain () =
  let catalog, c, view = setup () in
  let rng = Minirel_prng.Split_mix.create ~seed:11 in
  for _ = 1 to 60 do
    let inst = random_instance c rng in
    let got, partial, stats = Helpers.collect_answer ~view catalog inst in
    let expect = Helpers.brute_force_answer catalog inst in
    if not (Helpers.same_multiset got expect) then
      Alcotest.failf "answer mismatch: got %d expected %d" (List.length got)
        (List.length expect);
    check Alcotest.int "stats.total = delivered" (List.length got) stats.Answer.total_count;
    check Alcotest.int "stats.partial = partial" (List.length partial)
      stats.Answer.partial_count;
    check Alcotest.int "no stale" 0 stats.Answer.stale_purged;
    (* every partial tuple satisfies the query *)
    List.iter
      (fun t ->
        check Alcotest.bool "partial satisfies Cselect" true (Instance.accepts_result inst t))
      partial
  done;
  check Alcotest.bool "view invariants" true (View.invariants_ok view);
  check Alcotest.bool "eventually serves partials" true
    ((View.stats view).View.partial_tuples > 0)

let test_answer_interval_template () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  ignore (Minirel_index.Catalog.create_index catalog ~rel:"s" ~name:"s_e" ~attrs:[ "e" ] ());
  let grid = Discretize.of_cuts (List.init 11 (fun i -> vi (i * 10))) in
  let c = Template.compile catalog (Helpers.eqt_interval_spec ~grid) in
  let view = View.create ~capacity:40 ~f_max:3 ~name:"eqt_iv" c in
  let rng = Minirel_prng.Split_mix.create ~seed:12 in
  let module SM = Minirel_prng.Split_mix in
  for _ = 1 to 40 do
    let f = SM.int rng ~bound:10 in
    let a = SM.int rng ~bound:110 and len = 1 + SM.int rng ~bound:35 in
    let inst =
      Instance.make c
        [|
          Instance.Dvalues [ vi f ];
          Instance.Dintervals [ Interval.half_open ~lo:(vi a) ~hi:(vi (a + len)) ];
        |]
    in
    let got, partial, stats = Helpers.collect_answer ~view catalog inst in
    let expect = Helpers.brute_force_answer catalog inst in
    if not (Helpers.same_multiset got expect) then
      Alcotest.failf "interval mismatch: got %d expected %d (h=%d)" (List.length got)
        (List.length expect) stats.Answer.h;
    List.iter
      (fun t -> check Alcotest.bool "partial ok" true (Instance.accepts_result inst t))
      partial
  done;
  check Alcotest.bool "invariants" true (View.invariants_ok view)

let test_duplicates_exactly_once () =
  (* force duplicate result tuples: two identical r rows joining the
     same s row produce equal Ls' tuples; both must be delivered *)
  let catalog = Helpers.fresh_catalog () in
  let _ = Minirel_index.Catalog.create_relation catalog Helpers.r_schema in
  let _ = Minirel_index.Catalog.create_relation catalog Helpers.s_schema in
  (* rkey equal as well so the Ls' tuples collide *)
  let row = [| vi 1; vi 1; vi 1; Value.Str "dup" |] in
  ignore (Minirel_index.Catalog.insert catalog ~rel:"r" row);
  ignore (Minirel_index.Catalog.insert catalog ~rel:"r" row);
  ignore (Minirel_index.Catalog.insert catalog ~rel:"s" [| vi 1; vi 1; vi 5 |]);
  ignore (Minirel_index.Catalog.create_index catalog ~rel:"r" ~name:"r_f" ~attrs:[ "f" ] ());
  ignore (Minirel_index.Catalog.create_index catalog ~rel:"s" ~name:"s_d" ~attrs:[ "d" ] ());
  ignore (Minirel_index.Catalog.create_index catalog ~rel:"s" ~name:"s_g" ~attrs:[ "g" ] ());
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:8 ~f_max:4 ~name:"dups" c in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  (* run twice: second time the PMV serves cached copies in O2 and O3
     must still deliver the duplicate exactly the right number of times *)
  let first, _, _ = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "two copies" 2 (List.length first);
  let second, partial, stats = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "still two copies" 2 (List.length second);
  check Alcotest.bool "pmv served" true (List.length partial > 0);
  check Alcotest.int "no stale" 0 stats.Answer.stale_purged

let test_f_bound_respected () =
  let catalog, c, view = setup ~capacity:10 ~f_max:1 () in
  let rng = Minirel_prng.Split_mix.create ~seed:13 in
  for _ = 1 to 40 do
    ignore (Helpers.collect_answer ~view catalog (random_instance c rng))
  done;
  Entry_store.iter (View.store view) (fun e ->
      check Alcotest.bool "per-bcp bound" true (e.Entry_store.n <= 1));
  check Alcotest.bool "entry bound" true (View.n_entries view <= 10);
  check Alcotest.bool "invariants" true (View.invariants_ok view)

let test_two_q_view () =
  let catalog, c, view = setup ~policy:Policies.Two_q ~capacity:20 () in
  let rng = Minirel_prng.Split_mix.create ~seed:14 in
  for _ = 1 to 80 do
    let inst = random_instance c rng in
    let got, _, _ = Helpers.collect_answer ~view catalog inst in
    let expect = Helpers.brute_force_answer catalog inst in
    if not (Helpers.same_multiset got expect) then Alcotest.fail "2q answer mismatch"
  done;
  check Alcotest.bool "2q view fills" true (View.n_tuples view > 0);
  check Alcotest.bool "invariants" true (View.invariants_ok view)

let test_locking_protocol () =
  let catalog, c, view = setup () in
  let locks = Lock.create () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  let held_during = ref false in
  let delivered = ref 0 in
  let _ =
    Answer.answer ~locks ~txn:7 ~view catalog inst ~on_tuple:(fun _ _ ->
        incr delivered;
        match Lock.held_by locks ~obj:(View.lock_object view) with
        | Some (Lock.S, owners) when List.mem 7 owners -> held_during := true
        | _ -> ())
  in
  check Alcotest.bool "query produced tuples" true (!delivered > 0);
  check Alcotest.bool "S lock held across O2-O3" true !held_during;
  check Alcotest.bool "released after" true
    (Lock.held_by locks ~obj:(View.lock_object view) = None);
  (* an X holder blocks the query *)
  ignore (Lock.acquire locks ~txn:99 ~obj:(View.lock_object view) Lock.X);
  (match Answer.answer ~locks ~txn:7 ~view catalog inst ~on_tuple:(fun _ _ -> ()) with
  | _ -> Alcotest.fail "expected lock conflict"
  | exception Lock.Conflict c ->
      check Alcotest.(list int) "refused by the X holder" [ 99 ] c.Lock.holders)

let run_mixed_txns mgr rng n =
  let module SM = Minirel_prng.Split_mix in
  for _ = 1 to n do
    let k = SM.int rng ~bound:40 in
    let change =
      match SM.int rng ~bound:4 with
      | 0 ->
          Txn.Insert
            {
              rel = "r";
              tuple = [| vi (1000 + k); vi (k mod 40); vi (k mod 10); Value.Str "new" |];
            }
      | 1 -> Txn.Delete { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 0, vi (k * 3)) }
      | 2 -> Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 2, vi k) }
      | _ ->
          Txn.Update
            {
              rel = "s";
              pred = Predicate.Cmp (Predicate.Eq, 2, vi k);
              set = [ (1, vi ((k + 1) mod 8)) ];
            }
    in
    ignore (Txn.run mgr [ change ])
  done

let test_consistency_under_maintenance strategy () =
  let catalog, c, view = setup ~capacity:50 ~f_max:3 () in
  let mgr = Txn.create catalog in
  Maintain.attach ~strategy ~use_locks:false view mgr;
  let rng = Minirel_prng.Split_mix.create ~seed:15 in
  for round = 1 to 30 do
    (* warm the PMV *)
    let inst = random_instance c rng in
    ignore (Helpers.collect_answer ~view catalog inst);
    (* mutate the base tables *)
    run_mixed_txns mgr rng 3;
    (* consistency: answers still match ground truth, nothing stale *)
    let inst2 = random_instance c rng in
    let got, _, stats = Helpers.collect_answer ~view catalog inst2 in
    let expect = Helpers.brute_force_answer catalog inst2 in
    if not (Helpers.same_multiset got expect) then
      Alcotest.failf "round %d: maintenance strategy %s broke answers" round
        (Maintain.strategy_to_string strategy);
    check Alcotest.int "no stale tuples served" 0 stats.Answer.stale_purged
  done;
  check Alcotest.bool "inserts were skipped (deferred)" true
    ((View.stats view).View.skipped_inserts > 0);
  check Alcotest.bool "invariants" true (View.invariants_ok view)

let test_update_irrelevant_attr_skips_maintenance () =
  let catalog, c, view = setup ~capacity:50 () in
  let mgr = Txn.create catalog in
  Maintain.attach ~use_locks:false view mgr;
  let rng = Minirel_prng.Split_mix.create ~seed:16 in
  for _ = 1 to 20 do
    ignore (Helpers.collect_answer ~view catalog (random_instance c rng))
  done;
  let tuples_before = View.n_tuples view in
  check Alcotest.bool "warmed" true (tuples_before > 0);
  (* r.payload is in neither Ls' nor Cjoin: updating it must not touch
     the view *)
  ignore
    (Txn.run mgr
       [
         Txn.Update
           { rel = "r"; pred = Predicate.True; set = [ (3, Value.Str "renamed") ] };
       ]);
  check Alcotest.int "no tuples removed" tuples_before (View.n_tuples view);
  check Alcotest.bool "skip counted" true ((View.stats view).View.maint_skipped_updates > 0);
  (* updating the selection attribute r.f IS relevant *)
  ignore
    (Txn.run mgr
       [
         Txn.Update
           { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 2, vi 1); set = [ (2, vi 99) ] };
       ]);
  check Alcotest.bool "relevant update removed tuples" true
    ((View.stats view).View.maint_removed > 0)

let test_hit_ratio_grows_on_hot_pattern () =
  let catalog, c, view = setup ~capacity:20 () in
  let hot = Instance.make c [| Instance.Dvalues [ vi 1; vi 2 ]; Instance.Dvalues [ vi 3 ] |] in
  ignore (Helpers.collect_answer ~view catalog hot);
  let hits = ref 0 in
  for _ = 1 to 10 do
    let _, partial, stats = Helpers.collect_answer ~view catalog hot in
    if stats.Answer.probe_hits > 0 && partial <> [] then incr hits
  done;
  check Alcotest.int "every repeat is a hit" 10 !hits;
  check Alcotest.bool "first-partial time recorded" true
    ((View.stats view).View.partial_tuples > 0)

let prop_answer_equivalence =
  QCheck2.Test.make ~name:"PMV answer == brute force under random workloads" ~count:30
    QCheck2.Gen.(
      triple (int_range 1 60) (int_range 1 4)
        (list_size (int_range 1 12) (pair (int_range 0 9) (int_range 0 7))))
    (fun (capacity, f_max, queries) ->
      let catalog = Helpers.fresh_catalog () in
      Helpers.build_rs ~n_r:80 ~n_s:60 ~n_join:20 catalog;
      let c = Template.compile catalog Helpers.eqt_spec in
      let view = View.create ~capacity ~f_max ~name:"p" c in
      List.for_all
        (fun (f, g) ->
          let inst =
            Instance.make c [| Instance.Dvalues [ vi f ]; Instance.Dvalues [ vi g ] |]
          in
          let got, _, stats = Helpers.collect_answer ~view catalog inst in
          Helpers.same_multiset got (Helpers.brute_force_answer catalog inst)
          && stats.Answer.stale_purged = 0)
        queries
      && View.invariants_ok view)

let suite =
  [
    Alcotest.test_case "answer equals plain" `Quick test_answer_equals_plain;
    Alcotest.test_case "interval template answers" `Quick test_answer_interval_template;
    Alcotest.test_case "duplicates exactly once" `Quick test_duplicates_exactly_once;
    Alcotest.test_case "F bound respected" `Quick test_f_bound_respected;
    Alcotest.test_case "2Q-managed view" `Quick test_two_q_view;
    Alcotest.test_case "locking protocol" `Quick test_locking_protocol;
    Alcotest.test_case "consistency (aux-index maintenance)" `Quick
      (test_consistency_under_maintenance Maintain.Aux_index);
    Alcotest.test_case "consistency (delta-join maintenance)" `Quick
      (test_consistency_under_maintenance Maintain.Delta_join);
    Alcotest.test_case "irrelevant updates skipped" `Quick
      test_update_irrelevant_attr_skips_maintenance;
    Alcotest.test_case "hot pattern hits" `Quick test_hit_ratio_grows_on_hot_pattern;
    QCheck_alcotest.to_alcotest prop_answer_equivalence;
  ]
