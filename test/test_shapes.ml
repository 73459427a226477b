(* Section 3.6 query shapes end to end: DISTINCT, grouped aggregates,
   ORDER BY first-k and EXISTS, each judged against the brute-force
   oracle — single engine (both probe paths) and across shard counts
   with merged partial accumulators — plus the accumulator algebra,
   the shared total order, probe fast paths, shell syntax and the
   binder's rejections. *)

open Minirel_storage
open Minirel_query
module View = Pmv.View
module Answer = Pmv.Answer
module Ext = Pmv.Extensions
module Check = Minirel_check.Check
module Torture = Minirel_check.Torture
module Querygen = Minirel_workload.Querygen
module Grouping = Minirel_exec.Grouping
module Cursor = Minirel_exec.Cursor
module Router = Minirel_engine.Shard_router
module Txn = Minirel_txn.Txn
module Shell = Minirel_shell.Shell
module Binder = Minirel_sql.Binder

let check = Alcotest.check
let vi i = Value.Int i

(* Expanded Ls' positions of the eqt fixture: (rkey, e, f, g). *)
let key_g = [| 3 |]

let aggs_all =
  [|
    Aggregate.Count;
    Aggregate.Sum 1;
    Aggregate.Min 0;
    Aggregate.Max 0;
    Aggregate.Avg 1;
  |]

let order_er = [| (1, true); (0, false) |]

(* Finalized values: ints compare exactly; AVG divides the same exact
   int sums on both sides, so plain equality holds here too. *)
let groups_equal expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (ek, evs) (ak, avs) ->
         Tuple.compare ek ak = 0 && Array.for_all2 Value.equal evs avs)
       expected actual

(* --- accumulator algebra ----------------------------------------------- *)

let row e = [| vi 0; vi e; vi 0; vi 0 |]

let test_count_sum_exact_ints () =
  let acc = Aggregate.create () in
  List.iter (Aggregate.add (Aggregate.Sum 1) acc) [ row 3; row 4; row 5 ];
  check Helpers.value "exact int sum" (vi 12) (Aggregate.finalize (Aggregate.Sum 1) acc);
  let c = Aggregate.create () in
  List.iter (Aggregate.add Aggregate.Count c) [ row 1; row 2 ];
  check Helpers.value "count" (vi 2) (Aggregate.finalize Aggregate.Count c)

let test_sum_goes_float () =
  let acc = Aggregate.create () in
  Aggregate.add (Aggregate.Sum 1) acc [| vi 0; vi 3; vi 0; vi 0 |];
  Aggregate.add (Aggregate.Sum 1) acc [| vi 0; Value.Float 0.5; vi 0; vi 0 |];
  check Helpers.value "float contaminates" (Value.Float 3.5)
    (Aggregate.finalize (Aggregate.Sum 1) acc)

(* AVG must ship SUM+COUNT: averaging two per-shard averages of unequal
   group sizes is wrong, merging the accumulators is right. *)
let test_avg_is_sum_plus_count () =
  let a = Aggregate.create () and b = Aggregate.create () in
  List.iter (Aggregate.add (Aggregate.Avg 1) a) [ row 10 ];
  List.iter (Aggregate.add (Aggregate.Avg 1) b) [ row 2; row 3; row 4 ];
  let avg_of_avgs = (10.0 +. 3.0) /. 2.0 in
  Aggregate.merge a b;
  check Helpers.value "merged avg" (Value.Float 4.75) (Aggregate.finalize (Aggregate.Avg 1) a);
  check Alcotest.bool "avg-of-avgs would differ" true
    (Value.Float avg_of_avgs <> Aggregate.finalize (Aggregate.Avg 1) a)

let qcheck_merge_associative =
  QCheck2.Test.make ~name:"accumulator merge is associative and commutative" ~count:100
    QCheck2.Gen.(
      pair (int_range 0 5)
        (list_size (int_range 0 12) (pair (int_range (-9) 9) (int_range (-9) 9))))
    (fun (which, cells) ->
      let spec =
        match which with
        | 0 -> Aggregate.Count
        | 1 -> Aggregate.Count_of 1
        | 2 -> Aggregate.Sum 1
        | 3 -> Aggregate.Avg 1
        | 4 -> Aggregate.Min 1
        | _ -> Aggregate.Max 1
      in
      let tuples = List.map (fun (a, b) -> [| vi a; vi b |]) cells in
      let split3 l =
        List.filteri (fun i _ -> i mod 3 = 0) l,
        List.filteri (fun i _ -> i mod 3 = 1) l,
        List.filteri (fun i _ -> i mod 3 = 2) l
      in
      let xs, ys, zs = split3 tuples in
      let acc_of l =
        let a = Aggregate.create () in
        List.iter (Aggregate.add spec a) l;
        a
      in
      (* (x <- y) <- z  vs  x <- (y <- z)  vs  (z <- y) <- x *)
      let left = acc_of xs in
      Aggregate.merge left (acc_of ys);
      Aggregate.merge left (acc_of zs);
      let yz = acc_of ys in
      Aggregate.merge yz (acc_of zs);
      let right = acc_of xs in
      Aggregate.merge right yz;
      let comm = acc_of zs in
      Aggregate.merge comm (acc_of ys);
      Aggregate.merge comm (acc_of xs);
      Aggregate.equal_acc spec left right
      && Aggregate.equal_acc spec left comm
      && Value.equal (Aggregate.finalize spec left) (Aggregate.finalize spec comm))

let test_nulls_skipped () =
  let spec = Aggregate.Avg 1 in
  let acc = Aggregate.create () in
  Aggregate.add spec acc [| vi 0; Value.Null; vi 0; vi 0 |];
  Aggregate.add spec acc (row 8);
  check Helpers.value "null skipped" (Value.Float 8.0) (Aggregate.finalize spec acc);
  let empty = Aggregate.create () in
  Aggregate.add spec empty [| vi 0; Value.Null; vi 0; vi 0 |];
  check Helpers.value "all-null group is Null" Value.Null (Aggregate.finalize spec empty)

let test_of_tuples_matches_incremental () =
  let specs = aggs_all in
  let tuples = List.init 20 (fun i -> [| vi i; vi (i * 3 mod 7); vi 0; vi 0 |]) in
  let oracle = Aggregate.of_tuples specs tuples in
  let incr = Array.map (fun _ -> Aggregate.create ()) specs in
  List.iter (fun t -> Array.iteri (fun i s -> Aggregate.add s incr.(i) t) specs) tuples;
  Array.iteri
    (fun i s ->
      check Alcotest.bool (Aggregate.name s) true (Aggregate.equal_acc s oracle.(i) incr.(i)))
    specs

(* --- the shared total order and top-k ---------------------------------- *)

let test_cmp_total_order () =
  let order = [| (1, true) |] in
  let a = [| vi 1; vi 5 |] and b = [| vi 2; vi 5 |] in
  (* equal order keys: the full tuple breaks the tie deterministically *)
  check Alcotest.bool "ties broken" true (Ordering.cmp ~order a b <> 0);
  check Alcotest.int "antisymmetric" 0
    (compare (Ordering.cmp ~order a b) (-Ordering.cmp ~order b a));
  check Alcotest.int "reflexive" 0 (Ordering.cmp ~order a a)

let qcheck_top_k_vs_sort =
  QCheck2.Test.make ~name:"heap top-k == sort-then-take" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 10)
        (list_size (int_range 0 40) (pair (int_range 0 6) (int_range 0 6)))
        bool)
    (fun (k, cells, desc) ->
      let tuples = List.map (fun (a, b) -> [| vi a; vi b |]) cells in
      let order = [| (0, desc); (1, not desc) |] in
      k = 0
      ||
      let heap =
        Grouping.top_k ~cmp:(Ordering.cmp ~order) ~k (Cursor.of_list tuples)
      in
      List.equal Tuple.equal heap (Ordering.first_k ~order ~k tuples))

let qcheck_group_hash_vs_oracle =
  QCheck2.Test.make ~name:"group_hash == of_tuples per group" ~count:100
    QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 4) (int_range (-5) 5)))
    (fun cells ->
      let tuples = List.map (fun (k, v) -> [| vi k; vi v |]) cells in
      let key = [| 0 |] and aggs = [| Aggregate.Count; Aggregate.Sum 1; Aggregate.Avg 1 |] in
      let groups = Grouping.group_hash ~key ~aggs (Cursor.of_list tuples) in
      List.for_all
        (fun (gk, accs) ->
          let members = List.filter (fun t -> Value.equal t.(0) gk.(0)) tuples in
          let oracle = Aggregate.of_tuples aggs members in
          Array.for_all2 (fun s (a, b) -> Aggregate.equal_acc s a b) aggs
            (Array.map2 (fun a b -> (a, b)) accs oracle))
        groups)

(* --- single-engine differential (both probe paths) --------------------- *)

let setup () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:30 ~f_max:3 ~name:"shapes" c in
  (catalog, c, view)

let inst c ~fs ~gs =
  let dvs l = Instance.Dvalues (List.map vi (List.sort_uniq compare l)) in
  Instance.make c [| dvs fs; dvs gs |]

let shape_gen =
  QCheck2.Gen.(
    triple bool
      (list_size (int_range 1 3) (int_range 0 9))
      (list_size (int_range 1 3) (int_range 0 7)))

let path_of epoch = if epoch then Answer.Epoch else Answer.Locked

let qcheck_engine_distinct =
  QCheck2.Test.make ~name:"engine distinct == oracle (locked+epoch)" ~count:60 shape_gen
    (fun (epoch, fs, gs) ->
      let catalog, c, view = setup () in
      let q = inst c ~fs ~gs in
      let probe_path = path_of epoch in
      ignore (Helpers.collect_answer ~view catalog q) (* warm *);
      let out = ref [] in
      let _, n =
        Ext.answer_distinct ~probe_path ~view catalog q ~on_tuple:(fun _ t ->
            out := t :: !out)
      in
      let expect = Check.ground_truth_distinct catalog q in
      n = List.length expect && Helpers.same_multiset !out expect)

let qcheck_engine_grouped =
  QCheck2.Test.make ~name:"engine grouped == oracle (locked+epoch)" ~count:60 shape_gen
    (fun (epoch, fs, gs) ->
      let catalog, c, view = setup () in
      let q = inst c ~fs ~gs in
      ignore (Helpers.collect_answer ~view catalog q);
      let g =
        Ext.answer_groups ~probe_path:(path_of epoch) ~view catalog q ~key:key_g
          ~aggs:aggs_all
      in
      let actual = Ext.finalize_groups ~aggs:aggs_all g.Ext.g_groups in
      let expected = Check.ground_truth_grouped catalog q ~key:key_g ~aggs:aggs_all in
      groups_equal expected actual
      (* the partial preview only covers cached tuples: every partial
         group key must exist in the exact answer *)
      && List.for_all
           (fun (pk, _) -> List.exists (fun (ek, _) -> Tuple.compare pk ek = 0) expected)
           (Ext.finalize_groups ~aggs:aggs_all g.Ext.g_partial))

let qcheck_engine_ordered =
  QCheck2.Test.make ~name:"engine first-k prefix-exact (locked+epoch)" ~count:60
    QCheck2.Gen.(pair shape_gen (int_range 1 8))
    (fun ((epoch, fs, gs), k) ->
      let catalog, c, view = setup () in
      let q = inst c ~fs ~gs in
      ignore (Helpers.collect_answer ~view catalog q);
      let rows, _ =
        Ext.answer_ordered_k ~probe_path:(path_of epoch) ~view catalog q ~order:order_er
          ~k
      in
      List.equal Tuple.equal rows
        (Check.ground_truth_ordered catalog q ~order:order_er ~limit:k ()))

let qcheck_engine_exists =
  QCheck2.Test.make ~name:"engine exists == oracle (locked+epoch)" ~count:60 shape_gen
    (fun (epoch, fs, gs) ->
      let catalog, c, view = setup () in
      let q = inst c ~fs ~gs in
      ignore (Helpers.collect_answer ~view catalog q);
      let got, _ = Ext.exists_ ~probe_path:(path_of epoch) ~view catalog q in
      got = Check.ground_truth_exists catalog q)

let test_exists_witness_from_pmv () =
  let catalog, c, view = setup () in
  let q = inst c ~fs:[ 1 ] ~gs:[ 1 ] in
  ignore (Helpers.collect_answer ~view catalog q);
  check Alcotest.bool "oracle says yes" true (Check.ground_truth_exists catalog q);
  (match Ext.exists_ ~view catalog q with
  | true, `From_pmv -> ()
  | true, `Executed -> Alcotest.fail "warm witness should come from the PMV"
  | false, _ -> Alcotest.fail "exists lost the witness");
  check Alcotest.bool "cached_witness agrees" true (Ext.cached_witness ~view q)

(* Grouped answers over cached entries must not outlive maintenance:
   delete rows through an attached txn manager and re-ask. *)
let test_entry_agg_cache_fresh_after_delete () =
  let catalog, c, view = setup () in
  let mgr = Txn.create catalog in
  Pmv.Maintain.attach ~use_locks:false view mgr;
  let q = inst c ~fs:[ 1 ] ~gs:[ 1 ] in
  ignore (Helpers.collect_answer ~view catalog q);
  let warm = Ext.answer_groups ~view catalog q ~key:key_g ~aggs:aggs_all in
  check Alcotest.bool "warm matches oracle" true
    (groups_equal
       (Check.ground_truth_grouped catalog q ~key:key_g ~aggs:aggs_all)
       (Ext.finalize_groups ~aggs:aggs_all warm.Ext.g_groups));
  (* rkey = 1 has f = 1: it participates in the warm answer *)
  ignore
    (Txn.run mgr
       [ Txn.Delete { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 0, vi 1) } ]);
  let fresh = Ext.answer_groups ~view catalog q ~key:key_g ~aggs:aggs_all in
  check Alcotest.bool "post-delete matches oracle" true
    (groups_equal
       (Check.ground_truth_grouped catalog q ~key:key_g ~aggs:aggs_all)
       (Ext.finalize_groups ~aggs:aggs_all fresh.Ext.g_groups))

let test_probe_groups_fast_path () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  (* roomy enough that the warm answer caches every bcp completely *)
  let view = View.create ~capacity:64 ~f_max:64 ~name:"shapes_probe" c in
  let q = inst c ~fs:[ 2 ] ~gs:[ 2 ] in
  check Alcotest.bool "cold probe misses" true
    (Ext.probe_groups ~view q ~key:key_g ~aggs:aggs_all = None);
  (* the first epoch answer misses, falls back and installs trusted
     complete versions into the probe store *)
  ignore
    (Answer.answer ~probe_path:Answer.Epoch ~view catalog q ~on_tuple:(fun _ _ -> ()));
  match Ext.probe_groups ~view q ~key:key_g ~aggs:aggs_all with
  | None -> Alcotest.fail "warm probe should hit"
  | Some acc ->
      check Alcotest.bool "probe == oracle" true
        (groups_equal
           (Check.ground_truth_grouped catalog q ~key:key_g ~aggs:aggs_all)
           (Ext.finalize_groups ~aggs:aggs_all acc))

(* --- sharded differential ---------------------------------------------- *)

let make_sharded ?(shards = 3) () =
  let reference = Helpers.fresh_catalog () in
  Helpers.build_rs reference;
  let router = Router.create ~shards () in
  Router.declare router Helpers.r_schema ~part:(`Hash "c");
  Router.declare router Helpers.s_schema ~part:(`Hash "d");
  Router.load_from router reference;
  let compiled = Template.compile reference Helpers.eqt_spec in
  ignore (Router.create_view ~capacity:64 router compiled);
  (reference, router, compiled)

let mirror reference router change =
  ignore (Router.run router [ change ]);
  ignore (Txn.run (Txn.create reference) [ change ])

let sharded_gen =
  QCheck2.Gen.(
    pair
      (triple (int_range 1 4) bool (list_size (int_range 0 4) (int_range 0 39)))
      (pair
         (list_size (int_range 1 3) (int_range 0 9))
         (list_size (int_range 1 3) (int_range 0 7))))

(* One property per shape: shards in 1..4, both probe paths, cold and
   after routed DML mirrored into the unsharded reference. *)
let with_sharded (shards, epoch, inserts) (fs, gs) judge =
  let reference, router, compiled = make_sharded ~shards () in
  Router.set_probe_path router (path_of epoch);
  let q = inst compiled ~fs ~gs in
  ignore (Router.answer router q ~on_tuple:(fun _ _ -> ())) (* warm *);
  let cold = judge reference router q in
  List.iteri
    (fun i cv ->
      mirror reference router
        (Txn.Insert
           { rel = "r"; tuple = [| vi (1000 + i); vi cv; vi (cv mod 10); Value.Str "x" |] }))
    inserts;
  cold && judge reference router q

let qcheck_sharded_distinct =
  QCheck2.Test.make ~name:"sharded distinct == oracle (1-4 shards, both paths)" ~count:40
    sharded_gen
    (fun (cfg, sel) ->
      with_sharded cfg sel (fun reference router q ->
          let seen = Tuple.Table.create 32 and out = ref [] in
          ignore
            (Router.answer router q ~on_tuple:(fun _ t ->
                 if not (Tuple.Table.mem seen t) then begin
                   Tuple.Table.replace seen t ();
                   out := t :: !out
                 end));
          Helpers.same_multiset !out (Check.ground_truth_distinct reference q)))

let qcheck_sharded_grouped =
  QCheck2.Test.make
    ~name:"sharded grouped merges shard partials == oracle (1-4 shards, both paths)"
    ~count:40 sharded_gen
    (fun (cfg, sel) ->
      with_sharded cfg sel (fun reference router q ->
          let g, _ = Router.answer_grouped router q ~key:key_g ~aggs:aggs_all in
          groups_equal
            (Check.ground_truth_grouped reference q ~key:key_g ~aggs:aggs_all)
            (Ext.finalize_groups ~aggs:aggs_all g.Ext.g_groups)))

let qcheck_sharded_ordered =
  QCheck2.Test.make ~name:"sharded first-k prefix-exact (1-4 shards, both paths)"
    ~count:40
    QCheck2.Gen.(pair sharded_gen (int_range 1 6))
    (fun ((cfg, sel), k) ->
      with_sharded cfg sel (fun reference router q ->
          let rows, _ = Router.answer_ordered_k router q ~order:order_er ~k in
          List.equal Tuple.equal rows
            (Check.ground_truth_ordered reference q ~order:order_er ~limit:k ())))

let qcheck_sharded_exists =
  QCheck2.Test.make ~name:"sharded exists == oracle (1-4 shards, both paths)" ~count:40
    sharded_gen
    (fun (cfg, sel) ->
      with_sharded cfg sel (fun reference router q ->
          fst (Router.exists_ router q) = Check.ground_truth_exists reference q))

let test_router_probe_grouped () =
  let reference, router, compiled = make_sharded ~shards:4 () in
  Router.set_probe_path router Answer.Epoch;
  let q = inst compiled ~fs:[ 1 ] ~gs:[ 1 ] in
  check Alcotest.bool "cold router probe misses" true
    (Router.probe_grouped router q ~key:key_g ~aggs:aggs_all = None);
  (* first epoch answer falls back and installs the merged bcp answers
     into the router-level segments; then the grouped probe can fold
     the answer from the cache alone *)
  ignore (Router.answer router q ~on_tuple:(fun _ _ -> ()));
  match Router.probe_grouped router q ~key:key_g ~aggs:aggs_all with
  | None -> Alcotest.fail "warm router probe should hit"
  | Some acc ->
      check Alcotest.bool "router probe == oracle" true
        (groups_equal
           (Check.ground_truth_grouped reference q ~key:key_g ~aggs:aggs_all)
           (Ext.finalize_groups ~aggs:aggs_all acc))

(* A grouped epoch miss warms the router cache too: the fan-out merge
   captures each exact bcp's stream and installs it, so the very next
   grouped probe of the same instance folds from the segments. *)
let test_grouped_miss_installs () =
  let reference, router, compiled = make_sharded ~shards:4 () in
  Router.set_probe_path router Answer.Epoch;
  let q = inst compiled ~fs:[ 2 ] ~gs:[ 2 ] in
  check Alcotest.bool "cold router probe misses" true
    (Router.probe_grouped router q ~key:key_g ~aggs:aggs_all = None);
  let g, _ = Router.answer_grouped router q ~key:key_g ~aggs:aggs_all in
  check Alcotest.bool "fallback matches oracle" true
    (groups_equal
       (Check.ground_truth_grouped reference q ~key:key_g ~aggs:aggs_all)
       (Ext.finalize_groups ~aggs:aggs_all g.Ext.g_groups));
  match Router.probe_grouped router q ~key:key_g ~aggs:aggs_all with
  | None -> Alcotest.fail "probe after a grouped miss should hit"
  | Some acc ->
      check Alcotest.bool "installed probe == oracle" true
        (groups_equal
           (Check.ground_truth_grouped reference q ~key:key_g ~aggs:aggs_all)
           (Ext.finalize_groups ~aggs:aggs_all acc))

(* The sharded refusal to migrate rows must hold for templates asked in
   grouped form too: partition-key updates raise before any shard
   mutates. *)
let test_partition_key_update_refused () =
  let _, router, _ = make_sharded ~shards:3 () in
  let change =
    Txn.Update
      {
        rel = "r";
        pred = Predicate.Cmp (Predicate.Eq, 0, vi 1);
        set = [ (1, vi 999) ] (* c is r's partition key *);
      }
  in
  (match Router.targets router change with
  | _ -> Alcotest.fail "partition-key update must be refused"
  | exception Invalid_argument _ -> ());
  match Router.run router [ change ] with
  | _ -> Alcotest.fail "run must refuse too"
  | exception Invalid_argument _ -> ()

(* --- shell syntax end to end ------------------------------------------- *)

let fresh_shell () = Shell.create (Helpers.fresh_catalog ())

let build_inventory shell =
  let run sql =
    match Shell.exec shell sql with
    | r -> r
    | exception e -> Alcotest.failf "statement failed: %s (%s)" sql (Printexc.to_string e)
  in
  ignore (run "create table items (ik int, category int, price float, label string)");
  ignore (run "create table stock (ik int, store int, qty int)");
  ignore (run "create index items_ik on items (ik)");
  ignore (run "create index items_category on items (category)");
  ignore (run "create index stock_ik on stock (ik)");
  ignore (run "create index stock_store on stock (store)");
  for ik = 1 to 40 do
    ignore
      (run
         (Fmt.str "insert into items values (%d, %d, %d.5, 'item %d')" ik (ik mod 5)
            (ik * 10) ik));
    ignore (run (Fmt.str "insert into stock values (%d, %d, %d)" ik (ik mod 4) (ik mod 7)))
  done;
  run

let test_shell_distinct () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (* categories repeat every 5 items: DISTINCT collapses them *)
  match run "select distinct i.category from items i where (i.category in (1, 2, 3))" with
  | Shell.Rows { rows; header; _ } ->
      check (Alcotest.list Alcotest.string) "header" [ "category" ] header;
      check Alcotest.int "three distinct categories" 3 (List.length rows);
      check Alcotest.int "no duplicates" 3
        (List.length (List.sort_uniq Tuple.compare rows))
  | _ -> Alcotest.fail "rows expected"

let test_shell_distinct_limit_after_dedup () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  match run "select distinct i.category from items i where (i.category in (1, 2, 3)) limit 2" with
  | Shell.Rows { rows; _ } ->
      check Alcotest.int "limit cuts distinct rows" 2 (List.length rows);
      check Alcotest.int "still no duplicates" 2
        (List.length (List.sort_uniq Tuple.compare rows))
  | _ -> Alcotest.fail "rows expected"

let test_shell_group_by_all_aggregates () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  match
    run
      "select i.category, count(*), sum(s.qty), min(s.qty), max(s.qty), avg(s.qty) from \
       items i, stock s where i.ik = s.ik and (i.category in (1, 2)) group by i.category"
  with
  | Shell.Grouped { header; groups; _ } ->
      check (Alcotest.list Alcotest.string) "header"
        [ "category"; "count(*)"; "sum(qty)"; "min(qty)"; "max(qty)"; "avg(qty)" ]
        header;
      check Alcotest.int "two groups" 2 (List.length groups);
      List.iter
        (fun (key, vals) ->
          let cat = Value.int_exn key.(0) in
          (* items ik with ik mod 5 = cat, ik in 1..40 -> 8 rows; qty = ik mod 7 *)
          let iks = List.init 40 (fun i -> i + 1) in
          let members = List.filter (fun ik -> ik mod 5 = cat) iks in
          let qtys = List.map (fun ik -> ik mod 7) members in
          let sum = List.fold_left ( + ) 0 qtys in
          check Helpers.value "count" (vi (List.length members)) (List.nth vals 0);
          check Helpers.value "sum" (vi sum) (List.nth vals 1);
          check Helpers.value "min" (vi (List.fold_left min 99 qtys)) (List.nth vals 2);
          check Helpers.value "max" (vi (List.fold_left max (-1) qtys)) (List.nth vals 3);
          check Helpers.value "avg"
            (Value.Float (float_of_int sum /. float_of_int (List.length members)))
            (List.nth vals 4))
        groups
  | _ -> Alcotest.fail "grouped expected"

let test_shell_order_by_limit_prefix () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  match
    run
      "select i.ik, i.price from items i where (i.category in (1, 2, 3)) order by \
       i.price desc, i.ik limit 5"
  with
  | Shell.Rows { rows; total; _ } ->
      check Alcotest.int "five rows" 5 (List.length rows);
      check Alcotest.bool "total counts the full answer" true (total >= 5);
      let prices = List.map (fun r -> Value.float_exn r.(1)) rows in
      check Alcotest.bool "descending" true (List.sort compare prices = List.rev prices)
  | _ -> Alcotest.fail "rows expected"

let test_shell_exists () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (* stock rows exist only for ik 1..40; the correlated EXISTS keeps
     every item with stock in store 1 *)
  (match
     run
       "select i.ik from items i where (i.category in (1, 2)) and exists (select s.ik \
        from stock s where s.ik = i.ik and (s.store = 1))"
   with
  | Shell.Rows { rows; _ } ->
      let expect =
        List.filter
          (fun ik -> (ik mod 5 = 1 || ik mod 5 = 2) && ik mod 4 = 1)
          (List.init 40 (fun i -> i + 1))
      in
      check Alcotest.int "filtered by exists" (List.length expect) (List.length rows);
      List.iter
        (fun r -> check Alcotest.bool "ik has store-1 stock" true
            (List.mem (Value.int_exn r.(0)) expect))
        rows
  | _ -> Alcotest.fail "rows expected");
  (* an EXISTS that can never hold filters everything *)
  match
    run
      "select i.ik from items i where (i.category in (1, 2)) and exists (select s.ik \
       from stock s where s.ik = i.ik and (s.store = 9))"
  with
  | Shell.Rows { rows = []; _ } -> ()
  | Shell.Rows { rows; _ } -> Alcotest.failf "expected empty, got %d" (List.length rows)
  | _ -> Alcotest.fail "rows expected"

let test_shape_counters () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  ignore (run "metrics reset");
  ignore (run "select distinct i.category from items i where (i.category = 1)");
  ignore
    (run "select i.category, count(*) from items i where (i.category = 1) group by i.category");
  ignore (run "select i.ik from items i where (i.category = 1) order by i.ik limit 2");
  ignore
    (run
       "select i.ik from items i where (i.category = 1) and exists (select s.ik from \
        stock s where s.ik = i.ik and (s.store = 1))");
  match run "metrics" with
  | Shell.Metrics text ->
      List.iter
        (fun shape ->
          check Alcotest.bool (Fmt.str "counter answer.shape.%s present" shape) true
            (let needle = "answer.shape." ^ shape in
             let n = String.length text and m = String.length needle in
             let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
             go 0))
        [ "distinct"; "grouped"; "ordered"; "exists" ]
  | _ -> Alcotest.fail "metrics expected"

(* --- binder rejections -------------------------------------------------- *)

let expect_reject shell sql =
  match Shell.exec shell sql with
  | _ -> Alcotest.failf "accepted: %s" sql
  | exception (Binder.Error _ | Minirel_sql.Parser.Error _ | Shell.Error _) -> ()

let test_binder_rejections () =
  let shell = fresh_shell () in
  let (_ : string -> Shell.result) = build_inventory shell in
  (* sum/avg need a numeric column *)
  expect_reject shell
    "select i.category, sum(i.label) from items i where (i.category = 1) group by i.category";
  expect_reject shell
    "select i.category, avg(i.label) from items i where (i.category = 1) group by i.category";
  (* DISTINCT and aggregates do not combine *)
  expect_reject shell
    "select distinct i.category, count(*) from items i where (i.category = 1) group by i.category";
  (* a plain select attr must be grouped when aggregates are present *)
  expect_reject shell
    "select i.ik, count(*) from items i where (i.category = 1) group by i.category";
  (* ORDER BY attrs must come from the select list under DISTINCT ... *)
  expect_reject shell
    "select distinct i.category from items i where (i.category = 1) order by i.price";
  (* ... and from the GROUP BY keys under aggregation *)
  expect_reject shell
    "select i.category, count(*) from items i where (i.category = 1) group by i.category \
     order by i.price"

(* --- seeded regression corpus ------------------------------------------ *)

(* Pinned torture campaigns covering all four shapes on both probe
   paths, single-engine and 4-shard. Any future mismatch lands a new
   (seed, cfg) row here. *)
let corpus =
  [
    (42, 1, Answer.Locked);
    (7, 1, Answer.Epoch);
    (99, 4, Answer.Locked);
    (1234, 4, Answer.Epoch);
  ]

let test_seed_corpus () =
  List.iter
    (fun (seed, shards, probe_path) ->
      let cfg =
        {
          (Torture.default_cfg ~seed) with
          Torture.events = 120;
          scale = 0.001;
          check_every = 40;
          shards;
          probe_path;
        }
      in
      let o = if shards > 1 then Torture.run_sharded cfg else Torture.run cfg in
      if not (Torture.ok o) then
        Alcotest.failf "seed %d shards=%d: %a" seed shards Torture.pp_outcome o)
    corpus

(* Digest reproducibility of the sharded campaign at 4 shards with the
   shape classes in the mix. *)
let test_sharded_digest () =
  let cfg =
    {
      (Torture.default_cfg ~seed:4242) with
      Torture.events = 100;
      scale = 0.001;
      shards = 4;
    }
  in
  let a = Torture.run_sharded cfg in
  let b = Torture.run_sharded cfg in
  check Alcotest.string "digest reproduces at 4 shards" a.Torture.digest b.Torture.digest;
  check Alcotest.bool "clean" true (Torture.ok a && Torture.ok b)

let suite =
  [
    Alcotest.test_case "count/sum finalize exact ints" `Quick test_count_sum_exact_ints;
    Alcotest.test_case "sum turns float on float input" `Quick test_sum_goes_float;
    Alcotest.test_case "avg ships sum+count" `Quick test_avg_is_sum_plus_count;
    QCheck_alcotest.to_alcotest qcheck_merge_associative;
    Alcotest.test_case "nulls skipped" `Quick test_nulls_skipped;
    Alcotest.test_case "of_tuples == incremental adds" `Quick
      test_of_tuples_matches_incremental;
    Alcotest.test_case "cmp is a total order" `Quick test_cmp_total_order;
    QCheck_alcotest.to_alcotest qcheck_top_k_vs_sort;
    QCheck_alcotest.to_alcotest qcheck_group_hash_vs_oracle;
    QCheck_alcotest.to_alcotest qcheck_engine_distinct;
    QCheck_alcotest.to_alcotest qcheck_engine_grouped;
    QCheck_alcotest.to_alcotest qcheck_engine_ordered;
    QCheck_alcotest.to_alcotest qcheck_engine_exists;
    Alcotest.test_case "exists witness from pmv" `Quick test_exists_witness_from_pmv;
    Alcotest.test_case "entry agg cache fresh after delete" `Quick
      test_entry_agg_cache_fresh_after_delete;
    Alcotest.test_case "probe_groups fast path" `Quick test_probe_groups_fast_path;
    QCheck_alcotest.to_alcotest qcheck_sharded_distinct;
    QCheck_alcotest.to_alcotest qcheck_sharded_grouped;
    QCheck_alcotest.to_alcotest qcheck_sharded_ordered;
    QCheck_alcotest.to_alcotest qcheck_sharded_exists;
    Alcotest.test_case "router probe_grouped" `Quick test_router_probe_grouped;
    Alcotest.test_case "grouped miss installs into router cache" `Quick
      test_grouped_miss_installs;
    Alcotest.test_case "partition-key update refused" `Quick
      test_partition_key_update_refused;
    Alcotest.test_case "shell distinct" `Quick test_shell_distinct;
    Alcotest.test_case "shell distinct limit after dedup" `Quick
      test_shell_distinct_limit_after_dedup;
    Alcotest.test_case "shell group by all aggregates" `Quick
      test_shell_group_by_all_aggregates;
    Alcotest.test_case "shell order by limit prefix" `Quick test_shell_order_by_limit_prefix;
    Alcotest.test_case "shell exists" `Quick test_shell_exists;
    Alcotest.test_case "shape telemetry counters" `Quick test_shape_counters;
    Alcotest.test_case "binder rejections" `Quick test_binder_rejections;
    Alcotest.test_case "seeded regression corpus" `Quick test_seed_corpus;
    Alcotest.test_case "sharded digest reproducible" `Quick test_sharded_digest;
  ]
