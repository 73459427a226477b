(* The shell: full-statement execution (DDL, DML, SELECT with GROUP
   BY / ORDER BY / LIMIT) over one catalog with automatic PMVs. *)

open Minirel_storage
module Shell = Minirel_shell.Shell

let check = Alcotest.check
let vi i = Value.Int i

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

let test_ddl_dml () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (match run "insert into items values (99, 1, 5, 'cheap')" with
  | Shell.Inserted 1 -> ()
  | _ -> Alcotest.fail "insert result");
  (* type coercion happened: price is a float column *)
  (match run "select i.price from items i where (i.ik = 99)" with
  | Shell.Rows { rows = [ [| Value.Float 5.0 |] ]; _ } -> ()
  | Shell.Rows { rows; _ } -> Alcotest.failf "unexpected rows: %d" (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  match run "delete from items where items.ik = 99" with
  | Shell.Deleted 1 -> ()
  | _ -> Alcotest.fail "delete result"

let test_select_through_pmv () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  let sql = "select i.label, s.qty from items i, stock s where i.ik = s.ik and (i.category = 2) and (s.store = 1)" in
  (match run sql with
  | Shell.Rows { from_pmv = 0; total; _ } -> check Alcotest.bool "has rows" true (total > 0)
  | _ -> Alcotest.fail "first run");
  (* the repeat is served partially from the PMV *)
  match run sql with
  | Shell.Rows { from_pmv; _ } -> check Alcotest.bool "pmv serves repeat" true (from_pmv > 0)
  | _ -> Alcotest.fail "second run"

let test_order_by_and_limit () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (match run "select i.ik, i.price from items i where (i.category = 2) order by i.price desc limit 3" with
  | Shell.Rows { rows; _ } ->
      check Alcotest.int "limit" 3 (List.length rows);
      let prices = List.map (fun r -> Value.float_exn r.(1)) rows in
      check Alcotest.bool "descending" true (List.sort compare prices = List.rev prices)
  | _ -> Alcotest.fail "rows expected");
  (* LIMIT without ORDER BY terminates early but yields real rows *)
  match run "select i.ik from items i where (i.category = 1) limit 2" with
  | Shell.Rows { rows; _ } -> check Alcotest.int "early stop" 2 (List.length rows)
  | _ -> Alcotest.fail "rows expected"

let test_group_by () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  match
    run
      "select s.store, count(*), sum(s.qty) from items i, stock s where i.ik = s.ik and \
       (i.category in (1, 2, 3)) group by s.store"
  with
  | Shell.Grouped { header; groups; _ } ->
      check (Alcotest.list Alcotest.string) "header" [ "store"; "count(*)"; "sum(qty)" ] header;
      check Alcotest.bool "several groups" true (List.length groups >= 3);
      (* counts add up to the plain total *)
      let plain_total =
        match
          run
            "select s.qty from items i, stock s where i.ik = s.ik and (i.category in (1, 2, 3))"
        with
        | Shell.Rows { total; _ } -> total
        | _ -> -1
      in
      let group_total =
        List.fold_left
          (fun acc (_, aggs) -> acc + Value.int_exn (List.hd aggs))
          0 groups
      in
      check Alcotest.int "group counts = row count" plain_total group_total
  | _ -> Alcotest.fail "grouped expected"

let test_group_partial_preview () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  let sql =
    "select s.store, count(*) from items i, stock s where i.ik = s.ik and (i.category = 2) \
     and (s.store = 1) group by s.store"
  in
  ignore (run sql);
  match run sql with
  | Shell.Grouped { partial_groups; _ } ->
      check Alcotest.bool "early preview appears on the repeat" true (partial_groups <> [])
  | _ -> Alcotest.fail "grouped expected"

let test_update_statement () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (match run "update items set category = 9 where items.ik between 1 and 5" with
  | Shell.Updated 5 -> ()
  | Shell.Updated n -> Alcotest.failf "updated %d" n
  | _ -> Alcotest.fail "update result");
  (match run "select i.ik from items i where (i.category = 9)" with
  | Shell.Rows { total = 5; _ } -> ()
  | Shell.Rows { total; _ } -> Alcotest.failf "found %d" total
  | _ -> Alcotest.fail "rows");
  (* type coercion in SET against a float column *)
  (match run "update items set price = 1 where items.ik = 1" with
  | Shell.Updated 1 -> ()
  | _ -> Alcotest.fail "float set");
  match run "select i.price from items i where (i.ik = 1)" with
  | Shell.Rows { rows = [ [| Value.Float 1.0 |] ]; _ } -> ()
  | _ -> Alcotest.fail "coerced price"

let test_distinct_select () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (* categories repeat across items: DISTINCT collapses them *)
  (match run "select i.category from items i where (i.category in (1, 2, 3))" with
  | Shell.Rows { total; _ } -> check Alcotest.bool "duplicates exist" true (total > 3)
  | _ -> Alcotest.fail "rows");
  (match run "select distinct i.category from items i where (i.category in (1, 2, 3))" with
  | Shell.Rows { rows; _ } -> check Alcotest.int "three distinct" 3 (List.length rows)
  | _ -> Alcotest.fail "rows");
  (* distinct + aggregates rejected *)
  match Shell.exec shell "select distinct count(*) from items i where (i.category = 1)" with
  | _ -> Alcotest.fail "distinct aggregate accepted"
  | exception Minirel_sql.Binder.Error _ -> ()

let test_explain () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  match
    run
      "explain select i.label from items i, stock s where i.ik = s.ik and (i.category = 2) \
       and (s.store in (1, 3))"
  with
  | Shell.Explained text ->
      check Alcotest.bool "mentions the template" true
        (String.length text > 0
        &&
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        contains "h = 2" && contains "ixlookup" && contains "inlj")
  | _ -> Alcotest.fail "explained expected"

let test_errors () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  let expect_error sql =
    match Shell.exec shell sql with
    | _ -> Alcotest.failf "accepted: %s" sql
    | exception
        ( Shell.Error _ | Minirel_sql.Parser.Error _ | Minirel_sql.Binder.Error _
        | Invalid_argument _ ) ->
        ()
  in
  ignore run;
  expect_error "insert into nope values (1)";
  expect_error "insert into items values (1, 2)";  (* arity *)
  expect_error "create table items (x int)";  (* duplicate *)
  expect_error "select i.ik, count(*) from items i where (i.category = 1)";
  (* plain attr not grouped *)
  expect_error
    "select i.ik from items i where (i.category = 1) group by i.ik";  (* group w/o agg *)
  expect_error "select sum(i.label) from items i where (i.category = 1)"
  (* sum over a string raises at execution *)

(* Model-based property: random insert/delete/select statements against
   one table behave exactly like a list model — across the SQL
   frontend, transactions, deferred PMV maintenance, and the answer
   pipeline. *)
let prop_shell_vs_model =
  QCheck2.Test.make ~name:"shell matches a list model under random statements" ~count:40
    QCheck2.Gen.(list_size (int_range 1 60) (triple (int_range 0 5) (int_range 0 6) (int_range 0 50)))
    (fun ops ->
      let shell = Shell.create (Helpers.fresh_catalog ()) in
      ignore (Shell.exec shell "create table m (k int, v int)");
      ignore (Shell.exec shell "create index m_k on m (k)");
      let model = ref [] in
      List.for_all
        (fun (op, k, v) ->
          match op with
          | 0 | 1 | 2 ->
              ignore (Shell.exec shell (Fmt.str "insert into m values (%d, %d)" k v));
              model := (k, v) :: !model;
              true
          | 3 ->
              (match Shell.exec shell (Fmt.str "delete from m where m.k = %d" k) with
              | Shell.Deleted n ->
                  let expect = List.length (List.filter (fun (mk, _) -> mk = k) !model) in
                  model := List.filter (fun (mk, _) -> mk <> k) !model;
                  n = expect
              | _ -> false)
          | 4 -> (
              match Shell.exec shell (Fmt.str "select m.v from m where (m.k = %d)" k) with
              | Shell.Rows { rows; _ } ->
                  let got = List.sort compare (List.map (fun r -> Value.int_exn r.(0)) rows) in
                  let expect =
                    List.sort compare
                      (List.filter_map (fun (mk, mv) -> if mk = k then Some mv else None) !model)
                  in
                  got = expect
              | _ -> false)
          | _ -> (
              match
                Shell.exec shell
                  (Fmt.str "select count(*) from m where (m.k in (%d, %d))" k ((k + 1) mod 51))
              with
              | Shell.Grouped { groups = [ (_, [ Value.Int n ]) ]; _ } ->
                  n
                  = List.length
                      (List.filter (fun (mk, _) -> mk = k || mk = (k + 1) mod 51) !model)
              | Shell.Grouped { groups = []; _ } ->
                  not (List.exists (fun (mk, _) -> mk = k || mk = (k + 1) mod 51) !model)
              | _ -> false))
        ops)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_budget_verbs () =
  let shell = fresh_shell () in
  let run = build_inventory shell in
  (* a select registers a view to arbitrate over *)
  ignore
    (run
       "select i.label, s.qty from items i, stock s where i.ik = s.ik and (i.category = \
        2) and (s.store = 1)");
  (match run "budget status" with
  | Shell.Budget_report s ->
      check Alcotest.bool "no budget armed yet" true (contains s "not armed")
  | _ -> Alcotest.fail "budget status");
  (match run "budget rebalance" with
  | Shell.Budget_report s ->
      check Alcotest.bool "rebalance without a budget says so" true (contains s "no budget")
  | _ -> Alcotest.fail "budget rebalance unarmed");
  (match run "budget total 100000" with
  | Shell.Budget_report _ -> ()
  | _ -> Alcotest.fail "budget total");
  (match run "budget rebalance" with
  | Shell.Budget_report s -> check Alcotest.bool "rebalance resizes" true (contains s "L=")
  | _ -> Alcotest.fail "budget rebalance");
  match Shell.exec shell "budget total -3" with
  | _ -> Alcotest.fail "negative budget accepted"
  | exception (Shell.Error _ | Minirel_sql.Parser.Error _ | Invalid_argument _) -> ()

let suite =
  [
    Alcotest.test_case "ddl and dml" `Quick test_ddl_dml;
    QCheck_alcotest.to_alcotest prop_shell_vs_model;
    Alcotest.test_case "select through pmv" `Quick test_select_through_pmv;
    Alcotest.test_case "order by and limit" `Quick test_order_by_and_limit;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "grouped partial preview" `Quick test_group_partial_preview;
    Alcotest.test_case "update statement" `Quick test_update_statement;
    Alcotest.test_case "distinct select" `Quick test_distinct_select;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "budget verbs" `Quick test_budget_verbs;
  ]
