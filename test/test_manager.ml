open Minirel_storage
open Minirel_query
module Manager = Pmv.Manager
module View = Pmv.View
module Txn = Minirel_txn.Txn

let check = Alcotest.check
let vi i = Value.Int i

let setup () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c_eqt = Template.compile catalog Helpers.eqt_spec in
  let grid = Discretize.of_cuts (List.init 11 (fun i -> vi (i * 10))) in
  ignore (Minirel_index.Catalog.create_index catalog ~rel:"s" ~name:"s_e" ~attrs:[ "e" ] ());
  let c_iv = Template.compile catalog (Helpers.eqt_interval_spec ~grid) in
  (catalog, c_eqt, c_iv)

let test_create_and_route () =
  let catalog, c_eqt, c_iv = setup () in
  let m = Manager.create catalog in
  let _v1 = Manager.create_view ~capacity:20 m c_eqt in
  check Alcotest.int "one view" 1 (Manager.n_views m);
  check Alcotest.bool "find by template" true (Manager.find m ~template:"eqt" <> None);
  check Alcotest.bool "unknown template" true (Manager.find m ~template:"nope" = None);
  (* a query from the registered template routes through the view *)
  let inst = Instance.make c_eqt [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  let _, used = Manager.answer m inst ~on_tuple:(fun _ _ -> ()) in
  check Alcotest.bool "routed" true used;
  (* one from an unregistered template still gets answered, plainly *)
  let inst2 =
    Instance.make c_iv
      [|
        Instance.Dvalues [ vi 1 ];
        Instance.Dintervals [ Interval.half_open ~lo:(vi 0) ~hi:(vi 50) ];
      |]
  in
  let out = ref [] in
  let _, used2 = Manager.answer m inst2 ~on_tuple:(fun _ t -> out := t :: !out) in
  check Alcotest.bool "not routed" false used2;
  check Alcotest.bool "still correct" true
    (Helpers.same_multiset !out (Helpers.brute_force_answer catalog inst2))

let test_budget_sizing () =
  let catalog, c_eqt, _ = setup () in
  let m = Manager.create ~default_f_max:2 catalog in
  (* the paper's example: UB ~ 1MB, F=2, At=50B -> ~10K entries *)
  let sample = [ Array.make 5 (vi 0) ] in
  (* 5 ints = 40 bytes *)
  let v = Manager.create_view ~ub_bytes:1_000_000 ~sample m c_eqt in
  let capacity = Pmv.Entry_store.capacity (View.store v) in
  check Alcotest.bool "capacity near UB/(F*At*1.04)" true
    (capacity > 10_000 && capacity < 13_000);
  (* duplicate registration rejected *)
  (match Manager.create_view ~capacity:5 m c_eqt with
  | _ -> Alcotest.fail "duplicate view accepted"
  | exception Invalid_argument _ -> ());
  (* missing sizing rejected *)
  let m2 = Manager.create catalog in
  match Manager.create_view m2 c_eqt with
  | _ -> Alcotest.fail "unsized view accepted"
  | exception Invalid_argument _ -> ()

let test_maintenance_attachment () =
  let catalog, c_eqt, _ = setup () in
  let m = Manager.create catalog in
  let mgr = Txn.create catalog in
  Manager.attach_maintenance m mgr;
  (* views created after attachment subscribe automatically *)
  let v = Manager.create_view ~capacity:30 ~f_max:3 m c_eqt in
  let inst = Instance.make c_eqt [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Manager.answer m inst ~on_tuple:(fun _ _ -> ()));
  check Alcotest.bool "warmed" true (View.n_tuples v > 0);
  ignore
    (Txn.run mgr
       [ Txn.Delete { rel = "s"; pred = Minirel_query.Predicate.Cmp (Minirel_query.Predicate.Eq, 1, vi 1) } ]);
  check Alcotest.bool "maintenance ran" true ((View.stats v).View.maint_removed > 0);
  (* answers stay consistent *)
  let out = ref [] in
  let st, _ = Manager.answer m inst ~on_tuple:(fun _ t -> out := t :: !out) in
  check Alcotest.int "no stale" 0 st.Pmv.Answer.stale_purged;
  check Alcotest.bool "consistent" true
    (Helpers.same_multiset !out (Helpers.brute_force_answer catalog inst));
  (* dropping the view detaches it *)
  Manager.drop_view m ~template:"eqt";
  check Alcotest.int "dropped" 0 (Manager.n_views m);
  ignore
    (Txn.run mgr
       [ Txn.Delete { rel = "s"; pred = Minirel_query.Predicate.Cmp (Minirel_query.Predicate.Eq, 1, vi 2) } ])

let test_report () =
  let catalog, c_eqt, c_iv = setup () in
  let m = Manager.create catalog in
  let _ = Manager.create_view ~capacity:20 m c_eqt in
  let _ = Manager.create_view ~capacity:20 m c_iv in
  let inst = Instance.make c_eqt [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Manager.answer m inst ~on_tuple:(fun _ _ -> ()));
  let rows = Manager.report m in
  check Alcotest.int "two rows" 2 (List.length rows);
  let eqt_row = List.find (fun r -> r.Manager.template = "eqt") rows in
  check Alcotest.int "queries counted" 1 eqt_row.Manager.queries;
  check Alcotest.bool "bytes accounted" true (Manager.total_bytes m >= eqt_row.Manager.bytes)

let test_budget_rebalance () =
  let catalog, c_eqt, c_iv = setup () in
  let m = Manager.create ~default_f_max:2 catalog in
  let v1 = Manager.create_view ~ub_bytes:40_000 m c_eqt in
  let v2 = Manager.create_view ~ub_bytes:40_000 m c_iv in
  check Alcotest.bool "no budget, no rebalance" true (Manager.rebalance m = []);
  Manager.set_global_budget m 80_000;
  check Alcotest.bool "budget armed" true (Manager.global_budget m = Some 80_000);
  (* all traffic to v1: its hit value per byte should dominate *)
  for f = 0 to 4 do
    for g = 0 to 3 do
      let inst =
        Instance.make c_eqt [| Instance.Dvalues [ vi f ]; Instance.Dvalues [ vi g ] |]
      in
      for _ = 1 to 3 do
        ignore (Manager.answer m inst ~on_tuple:(fun _ _ -> ()))
      done
    done
  done;
  let ls = Manager.rebalance m in
  check Alcotest.int "both views re-sized" 2 (List.length ls);
  check Alcotest.int "rebalance counted" 1 (Manager.rebalances m);
  let l_of name = List.assoc name ls in
  check Alcotest.bool "hot view grows past the cold one" true (l_of "eqt" > l_of "eqt_iv");
  check Alcotest.bool "cold view keeps its floored share" true (l_of "eqt_iv" > 0);
  check Alcotest.int "capacity applied to the hot store" (l_of "eqt")
    (Pmv.Entry_store.capacity (View.store v1));
  check Alcotest.int "capacity applied to the cold store" (l_of "eqt_iv")
    (Pmv.Entry_store.capacity (View.store v2));
  (* answers stay exact after the resize *)
  let inst =
    Instance.make c_eqt [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |]
  in
  let got = ref [] in
  let _ = Manager.answer m inst ~on_tuple:(fun _ t -> got := t :: !got) in
  check Alcotest.bool "exact after rebalance" true
    (Helpers.same_multiset !got (Helpers.brute_force_answer catalog inst))

let suite =
  [
    Alcotest.test_case "create and route" `Quick test_create_and_route;
    Alcotest.test_case "budget sizing" `Quick test_budget_sizing;
    Alcotest.test_case "maintenance attachment" `Quick test_maintenance_attachment;
    Alcotest.test_case "report" `Quick test_report;
    Alcotest.test_case "manager budget rebalance" `Quick test_budget_rebalance;
  ]
