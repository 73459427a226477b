open Minirel_storage
open Minirel_query
module View = Pmv.View
module Answer = Pmv.Answer
module Ext = Pmv.Extensions
module Ranking = Pmv.Ranking

let check = Alcotest.check
let vi i = Value.Int i

let setup () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:30 ~f_max:3 ~name:"ext" c in
  (catalog, c, view)

let test_distinct () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1; vi 2 ]; Instance.Dvalues [ vi 1 ] |] in
  (* warm, then answer distinct *)
  ignore (Helpers.collect_answer ~view catalog inst);
  let seen = ref [] in
  let _, n_distinct =
    Ext.answer_distinct ~view catalog inst ~on_tuple:(fun _ t -> seen := t :: !seen)
  in
  let expect = List.sort_uniq Tuple.compare (Helpers.brute_force_answer catalog inst) in
  check Alcotest.int "distinct count" (List.length expect) n_distinct;
  check Alcotest.bool "set equality" true
    (Helpers.same_multiset !seen expect);
  check Alcotest.int "no duplicates delivered" (List.length expect)
    (List.length (List.sort_uniq Tuple.compare !seen))

let test_grouped_aggregates () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1; vi 3 ]; Instance.Dvalues [ vi 2; vi 5 ] |] in
  (* warm the PMV so partial groups exist on the second run *)
  ignore (Helpers.collect_answer ~view catalog inst);
  (* group by g (position 3 in Ls' = rkey, e, f, g), count *)
  let aggs = [| Aggregate.Count |] in
  let r = Ext.answer_groups ~view catalog inst ~key:[| 3 |] ~aggs in
  let brute = Helpers.brute_force_answer catalog inst in
  let expect_tbl = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let k = Value.int_exn t.(3) in
      Hashtbl.replace expect_tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt expect_tbl k)))
    brute;
  let count (_, accs) = accs.(0).Aggregate.n in
  check Alcotest.int "group count" (Hashtbl.length expect_tbl)
    (List.length r.Ext.g_groups);
  List.iter
    (fun ((key, _) as g) ->
      check Alcotest.int "exact group value"
        (Hashtbl.find expect_tbl (Value.int_exn key.(0)))
        (count g))
    r.Ext.g_groups;
  (* partial groups only summarise cached tuples: each partial count is
     bounded by the exact one *)
  List.iter
    (fun ((key, _) as g) ->
      let exact = List.find (fun (k, _) -> Tuple.equal k key) r.Ext.g_groups in
      check Alcotest.bool "partial <= exact" true (count g <= count exact))
    r.Ext.g_partial;
  check Alcotest.bool "some partial groups" true (r.Ext.g_partial <> [])

let test_grouped_sum_avg () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  (* sum and avg over e (position 1) grouped by f (position 2) *)
  let aggs = [| Aggregate.Sum 1; Aggregate.Avg 1 |] in
  let r = Ext.answer_groups ~view catalog inst ~key:[| 2 |] ~aggs in
  let brute = Helpers.brute_force_answer catalog inst in
  let total = List.fold_left (fun acc t -> acc + Value.int_exn t.(1)) 0 brute in
  match Ext.finalize_groups ~aggs r.Ext.g_groups with
  | [ (_, [| sum; Value.Float avg |]) ] ->
      check Helpers.value "sum" (vi total) sum;
      check (Alcotest.float 1e-6) "avg"
        (float_of_int total /. float_of_int (List.length brute))
        avg
  | gs -> Alcotest.failf "expected one sum/avg group, got %d" (List.length gs)

let test_exists () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  (* cold: must execute *)
  (match Ext.exists_ ~view catalog inst with
  | true, `Executed -> ()
  | true, `From_pmv -> Alcotest.fail "cold PMV cannot witness"
  | false, _ -> Alcotest.fail "query has results");
  (* warm the PMV, then the witness comes from the cache *)
  ignore (Helpers.collect_answer ~view catalog inst);
  (match Ext.exists_ ~view catalog inst with
  | true, `From_pmv -> ()
  | true, `Executed -> Alcotest.fail "expected cached witness"
  | false, _ -> Alcotest.fail "query has results");
  (* a query with no results is false either way *)
  let empty_inst =
    Instance.make c [| Instance.Dvalues [ vi 999 ]; Instance.Dvalues [ vi 998 ] |]
  in
  match Ext.exists_ ~view catalog empty_inst with
  | false, `Executed -> ()
  | _ -> Alcotest.fail "expected executed false"

let test_filter_exists () =
  let catalog, c, view = setup () in
  let hot = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Helpers.collect_answer ~view catalog hot);
  let candidates = [ vi 1; vi 999 ] in
  let kept, pmv_hits =
    Ext.filter_exists ~view catalog ~candidates ~subquery_of:(fun v ->
        Instance.make c [| Instance.Dvalues [ v ]; Instance.Dvalues [ vi 1 ] |])
  in
  check Alcotest.int "one candidate kept" 1 (List.length kept);
  check Alcotest.bool "PMV answered at least one check" true (pmv_hits >= 1)

let test_ranking () =
  let catalog, c, view = setup () in
  let hot = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  let cold = Instance.make c [| Instance.Dvalues [ vi 2 ]; Instance.Dvalues [ vi 2 ] |] in
  for _ = 1 to 5 do
    ignore (Helpers.collect_answer ~view catalog hot)
  done;
  ignore (Helpers.collect_answer ~view catalog cold);
  let hot_t = List.hd (Helpers.brute_force_answer catalog hot) in
  let cold_t = List.hd (Helpers.brute_force_answer catalog cold) in
  check Alcotest.bool "hot more popular" true
    (Ranking.popularity view hot_t > Ranking.popularity view cold_t);
  (match Ranking.rank_results view [ cold_t; hot_t ] with
  | [ first; _ ] -> check Helpers.tuple "hot ranked first" hot_t first
  | _ -> Alcotest.fail "rank size");
  let top = Ranking.top_bcps view ~k:1 in
  check Alcotest.int "top-1" 1 (List.length top);
  check Helpers.tuple "hottest bcp" [| vi 1; vi 1 |] (fst (List.hd top));
  (* unknown tuples rank last with popularity 0 *)
  check Alcotest.int "unknown popularity" 0
    (Ranking.popularity view [| vi 0; vi 0; vi 42; vi 42 |])

let test_ordered () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1; vi 2 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Helpers.collect_answer ~view catalog inst);
  let expect =
    List.sort
      (fun a b -> Value.compare a.(1) b.(1))
      (Helpers.brute_force_answer catalog inst)
  in
  let k = List.length expect in
  (* order by e (position 1) ascending, the whole answer as the limit *)
  let asc, _ = Ext.answer_ordered_k ~view catalog inst ~order:[| (1, false) |] ~k in
  check Alcotest.int "final size" k (List.length asc);
  check Alcotest.bool "final sorted correctly" true
    (List.for_all2 (fun a b -> Value.equal a.(1) b.(1)) asc expect);
  let desc, _ = Ext.answer_ordered_k ~view catalog inst ~order:[| (1, true) |] ~k in
  (* ties break on the whole tuple ascending in both directions, so
     compare the key sequence, not whole tuples *)
  let keys rows = List.map (fun t -> t.(1)) rows in
  check Alcotest.bool "desc reverses the key order" true
    (List.for_all2 Value.equal (keys desc) (List.rev (keys asc)))

let test_first_k () =
  let catalog, c, view = setup () in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1; vi 2 ]; Instance.Dvalues [ vi 1 ] |] in
  let all = Helpers.brute_force_answer catalog inst in
  let n = List.length all in
  check Alcotest.bool "enough rows for the test" true (n > 3);
  let got = Ext.answer_first_k ~view catalog inst ~k:3 in
  check Alcotest.int "exactly k" 3 (List.length got);
  List.iter
    (fun t -> check Alcotest.bool "result is genuine" true (Instance.accepts_result inst t))
    got;
  (* k beyond the result size returns everything *)
  let all_got = Ext.answer_first_k ~view catalog inst ~k:(n + 10) in
  check Alcotest.bool "k past the end = full answer" true (Helpers.same_multiset all_got all);
  (* early termination still counted the queries in view stats *)
  check Alcotest.bool "queries counted despite early stop" true
    ((View.stats view).View.queries >= 2);
  match Ext.answer_first_k ~view catalog inst ~k:0 with
  | _ -> Alcotest.fail "k=0 accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "order by" `Quick test_ordered;
    Alcotest.test_case "first k / early termination" `Quick test_first_k;
    Alcotest.test_case "grouped count" `Quick test_grouped_aggregates;
    Alcotest.test_case "grouped sum/avg" `Quick test_grouped_sum_avg;
    Alcotest.test_case "exists acceleration" `Quick test_exists;
    Alcotest.test_case "filter_exists" `Quick test_filter_exists;
    Alcotest.test_case "popularity ranking" `Quick test_ranking;
  ]
