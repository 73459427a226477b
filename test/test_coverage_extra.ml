(* Cross-cutting coverage: answer statistics fields, WAL recovery as a
   property, interval-form maintenance, drift simulation sanity, and
   printer error cases. *)

open Minirel_storage
open Minirel_query
module View = Pmv.View
module Answer = Pmv.Answer
module Txn = Minirel_txn.Txn
module Wal = Minirel_txn.Wal
module Catalog = Minirel_index.Catalog
module Snapshot = Minirel_index.Snapshot

let check = Alcotest.check
let vi i = Value.Int i
let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_answer_stats_fields () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:20 ~f_max:2 ~name:"stats" c in
  let inst =
    Instance.make c [| Instance.Dvalues [ vi 1; vi 2 ]; Instance.Dvalues [ vi 1; vi 3 ] |]
  in
  let _, _, st1 = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "h = 4" 4 st1.Answer.h;
  check Alcotest.int "4 probes" 4 st1.Answer.probes;
  check Alcotest.int "cold: no probe hits" 0 st1.Answer.probe_hits;
  check Alcotest.bool "cold run filled the view" true (st1.Answer.filled > 0);
  check Alcotest.int "filled = view tuples" (View.n_tuples view) st1.Answer.filled;
  check Alcotest.bool "first exec time recorded" true (st1.Answer.first_exec_ns <> None);
  check Alcotest.bool "overhead positive" true (st1.Answer.overhead_ns > 0L);
  (* warm run: exactly the bcps that had results are resident (CLOCK
     admits on fill, so empty bcps stay cold) *)
  let result_bcps =
    List.sort_uniq Bcp.compare
      (List.map (Condition_part.bcp_of_result c) (Helpers.brute_force_answer catalog inst))
  in
  let _, _, st2 = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "warm: filled bcps hit" (List.length result_bcps) st2.Answer.probe_hits;
  check Alcotest.bool "some probes hit" true (st2.Answer.probe_hits >= 1);
  check Alcotest.bool "first partial time recorded" true (st2.Answer.first_partial_ns <> None);
  check Alcotest.bool "partial before exec tuple" true
    (match (st2.Answer.first_partial_ns, st2.Answer.first_exec_ns) with
    | Some p, Some e -> p <= e
    | Some _, None -> true
    | _ -> false)

let test_cold_run_charges_io () =
  (* a small pool forces misses; the stats must show them *)
  let catalog = Helpers.fresh_catalog ~pool_pages:2 () in
  Helpers.build_rs ~n_r:300 ~n_s:200 catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:10 ~f_max:2 ~name:"io" c in
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  let _, _, st = Helpers.collect_answer ~view catalog inst in
  check Alcotest.bool "io charged" true (st.Answer.io_reads > 0)

(* WAL recovery as a property: any random transaction sequence recovers
   exactly from snapshot + log. *)
let prop_wal_recovery =
  QCheck2.Test.make ~name:"snapshot + log replay recovers any txn sequence" ~count:30
    QCheck2.Gen.(list_size (int_range 1 15) (triple (int_range 0 2) (int_range 0 30) bool))
    (fun ops ->
      let snap = tmp "pmv_prop_snap.db" and log = tmp "pmv_prop_log.db" in
      if Sys.file_exists log then Sys.remove log;
      let catalog = Helpers.fresh_catalog () in
      Helpers.build_rs ~n_r:30 ~n_s:20 catalog;
      Snapshot.save catalog ~filename:snap;
      let mgr = Txn.create catalog in
      let wal = Wal.open_log ~filename:log () in
      Wal.attach wal mgr;
      let fresh = ref 5000 in
      List.iter
        (fun (op, k, on_r) ->
          incr fresh;
          let change =
            match op with
            | 0 ->
                if on_r then
                  Txn.Insert
                    { rel = "r"; tuple = [| vi !fresh; vi (k mod 40); vi (k mod 10); Value.Str "w" |] }
                else Txn.Insert { rel = "s"; tuple = [| vi (k mod 40); vi (k mod 8); vi !fresh |] }
            | 1 ->
                Txn.Delete
                  {
                    rel = (if on_r then "r" else "s");
                    pred = Predicate.Cmp (Predicate.Eq, (if on_r then 2 else 1), vi (k mod 8));
                  }
            | _ ->
                Txn.Update
                  {
                    rel = "s";
                    pred = Predicate.Cmp (Predicate.Eq, 1, vi (k mod 8));
                    set = [ (2, vi !fresh) ];
                  }
          in
          ignore (Txn.run mgr [ change ]))
        ops;
      Wal.close wal;
      let pool = Buffer_pool.create ~capacity:1_000 () in
      let recovered = Snapshot.load ~pool ~filename:snap in
      ignore (Wal.replay recovered ~filename:log);
      let contents cat rel =
        Heap_file.fold (Catalog.heap cat rel) (fun acc _ t -> t :: acc) []
      in
      let ok =
        Helpers.same_multiset (contents catalog "r") (contents recovered "r")
        && Helpers.same_multiset (contents catalog "s") (contents recovered "s")
      in
      Sys.remove snap;
      Sys.remove log;
      ok)

let test_interval_template_maintenance () =
  (* deferred maintenance on an interval-form template: the bcp of a
     cached tuple is a basic-interval id, and deletes must find it *)
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  ignore (Catalog.create_index catalog ~rel:"s" ~name:"s_e" ~attrs:[ "e" ] ());
  let grid = Discretize.of_cuts (List.init 11 (fun i -> vi (i * 12))) in
  let c = Template.compile catalog (Helpers.eqt_interval_spec ~grid) in
  List.iter
    (fun strategy ->
      let view =
        View.create ~capacity:40 ~f_max:3
          ~name:("iv_" ^ Pmv.Maintain.strategy_to_string strategy)
          c
      in
      let mgr = Txn.create catalog in
      Pmv.Maintain.attach ~strategy ~use_locks:false view mgr;
      let inst =
        Instance.make c
          [|
            Instance.Dvalues [ vi 1 ];
            Instance.Dintervals [ Interval.half_open ~lo:(vi 0) ~hi:(vi 120) ];
          |]
      in
      ignore (Helpers.collect_answer ~view catalog inst);
      check Alcotest.bool "warmed" true (View.n_tuples view > 0);
      ignore
        (Txn.run mgr [ Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Le, 2, vi 40) } ]);
      let got, _, st = Helpers.collect_answer ~view catalog inst in
      check Alcotest.int "no stale" 0 st.Answer.stale_purged;
      check Alcotest.bool "consistent" true
        (Helpers.same_multiset got (Helpers.brute_force_answer catalog inst));
      (* undo for the next strategy round: rebuild s rows below 40 *)
      for row = 1 to 40 do
        ignore
          (Txn.run mgr
             [ Txn.Insert { rel = "s"; tuple = [| vi (row mod 40); vi (row mod 8); vi row |] } ])
      done;
      Pmv.Maintain.detach view mgr)
    [ Pmv.Maintain.Aux_index; Pmv.Maintain.Delta_join ]

let test_drift_sim_sanity () =
  let cfg =
    { Pmv_sim.Hitprob.scaled_default with universe = 20_000; n = 600; warmup = 20_000 }
  in
  let baseline, windows = Pmv_sim.Hitprob.run_drift cfg ~drift:3_000 ~every:1_500 ~windows:4 in
  (match windows with
  | first :: _ ->
      check Alcotest.bool "dip after the shift" true (first < baseline);
      check Alcotest.bool "recovery" true
        (List.nth windows (List.length windows - 1) > first)
  | [] -> Alcotest.fail "windows");
  (* determinism *)
  let b2, w2 = Pmv_sim.Hitprob.run_drift cfg ~drift:3_000 ~every:1_500 ~windows:4 in
  check (Alcotest.float 1e-12) "deterministic baseline" baseline b2;
  check Alcotest.bool "deterministic windows" true (windows = w2)

let test_print_unsupported () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let grid = Discretize.of_cuts [ vi 10 ] in
  let c = Template.compile catalog (Helpers.eqt_interval_spec ~grid) in
  (* a bounded open interval is outside the SQL grammar *)
  let inst =
    Instance.make c
      [|
        Instance.Dvalues [ vi 1 ];
        Instance.Dintervals [ Interval.open_ ~lo:(vi 1) ~hi:(vi 9) ];
      |]
  in
  match Minirel_sql.Print.to_sql inst with
  | _ -> Alcotest.fail "unsupported interval printed"
  | exception Minirel_sql.Print.Unsupported _ -> ()

let test_vacuum () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs ~n_r:200 ~n_s:50 catalog;
  (* punch holes: delete every r row with odd rkey *)
  let victims =
    Heap_file.fold (Catalog.heap catalog "r")
      (fun acc rid t -> if Value.int_exn t.(0) mod 2 = 1 then rid :: acc else acc)
      []
  in
  List.iter (fun rid -> ignore (Catalog.delete catalog ~rel:"r" rid)) victims;
  let before = Heap_file.n_pages (Catalog.heap catalog "r") in
  let contents_before =
    Heap_file.fold (Catalog.heap catalog "r") (fun acc _ t -> t :: acc) []
  in
  let reclaimed = Catalog.vacuum catalog ~rel:"r" in
  check Alcotest.bool "pages reclaimed" true (reclaimed > 0);
  check Alcotest.bool "fewer pages" true (Heap_file.n_pages (Catalog.heap catalog "r") < before);
  let contents_after =
    Heap_file.fold (Catalog.heap catalog "r") (fun acc _ t -> t :: acc) []
  in
  check Alcotest.bool "contents preserved" true
    (Helpers.same_multiset contents_before contents_after);
  (* indexes were rebuilt consistently and queries still work *)
  Catalog.validate catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let inst = Instance.make c [| Instance.Dvalues [ vi 2 ]; Instance.Dvalues [ vi 2 ] |] in
  let out = ref [] in
  let _ = Pmv.Answer.answer_plain catalog inst ~on_tuple:(fun _ t -> out := t :: !out) in
  check Alcotest.bool "answers after vacuum" true
    (Helpers.same_multiset !out (Helpers.brute_force_answer catalog inst))

let test_serializability_conflict () =
  (* Section 3.6: while a query holds its S lock across O2-O3, view
     maintenance cannot take the X lock. In the paper's multi-threaded
     setting the writer blocks; in this single-threaded engine the
     delta queues ([Maintain.n_pending]) and is applied at the next
     grantable opportunity, while the answering layer's stale purge
     keeps subsequent answers exact. *)
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:20 ~f_max:2 ~name:"ser" c in
  let mgr = Txn.create catalog in
  Pmv.Maintain.attach ~use_locks:true view mgr;
  let locks = Minirel_txn.Txn.locks mgr in
  (* warm the view so there is something to maintain *)
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  let _ = Helpers.collect_answer ~view catalog inst in
  check Alcotest.bool "warmed" true (View.n_tuples view > 0);
  let pending_inside = ref (-1) and fired = ref false in
  let _ =
    Pmv.Answer.answer ~locks ~txn:42 ~view catalog inst ~on_tuple:(fun _ _ ->
        if not !fired then begin
          fired := true;
          (* a writer deletes mid-query: its maintenance must defer *)
          ignore
            (Txn.run mgr
               [ Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 1, vi 1) } ]);
          pending_inside := Pmv.Maintain.n_pending view
        end)
  in
  check Alcotest.int "delta queued while the S lock was held" 1 !pending_inside;
  (* after the reader commits, the queued delta applies. (The reader's
     own O3 may already have purged the victims as stale — execution ran
     after the delete — so the queue's work can legitimately be empty.) *)
  Pmv.Maintain.flush_pending view mgr;
  check Alcotest.int "queue drained" 0 (Pmv.Maintain.n_pending view);
  (* no cached tuple with the deleted g remains, whoever removed it *)
  Pmv.Entry_store.iter (View.store view) (fun e ->
      List.iter
        (fun t -> check Alcotest.bool "no stale cached tuple" false (Value.equal t.(3) (vi 1)))
        e.Pmv.Entry_store.tuples);
  (* and answers are exact again *)
  let got, _, st = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "no stale afterwards" 0 st.Pmv.Answer.stale_purged;
  check Alcotest.bool "consistent afterwards" true
    (Helpers.same_multiset got (Helpers.brute_force_answer catalog inst))

let suite =
  [
    Alcotest.test_case "vacuum" `Quick test_vacuum;
    Alcotest.test_case "serializability conflict (3.6)" `Quick test_serializability_conflict;
    Alcotest.test_case "answer stats fields" `Quick test_answer_stats_fields;
    Alcotest.test_case "cold run charges io" `Quick test_cold_run_charges_io;
    QCheck_alcotest.to_alcotest prop_wal_recovery;
    Alcotest.test_case "interval-form maintenance" `Quick test_interval_template_maintenance;
    Alcotest.test_case "drift sim sanity" `Quick test_drift_sim_sanity;
    Alcotest.test_case "print unsupported" `Quick test_print_unsupported;
  ]
