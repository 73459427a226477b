open Minirel_storage
open Minirel_query
module Entry_store = Pmv.Entry_store
module Policies = Minirel_cache.Policies

let check = Alcotest.check
let vi i = Value.Int i
let bcp i : Bcp.t = [| vi i |]
let tup i j : Tuple.t = [| vi i; vi j |]

let test_reference_then_fill () =
  let s = Entry_store.create ~capacity:4 ~f_max:2 () in
  (* CLOCK: cold reference is rejected but storable *)
  (match Entry_store.reference s (bcp 1) with
  | `Rejected true -> ()
  | `Rejected false -> Alcotest.fail "clock must be storable"
  | `Resident _ | `Admitted _ -> Alcotest.fail "cold bcp cannot be resident");
  let e = Entry_store.admit_for_fill s (bcp 1) in
  check Alcotest.bool "fill 1" true (Entry_store.add_tuple s e (tup 1 1));
  check Alcotest.bool "fill 2" true (Entry_store.add_tuple s e (tup 1 2));
  check Alcotest.bool "F bound" false (Entry_store.add_tuple s e (tup 1 3));
  check Alcotest.int "n_tuples" 2 (Entry_store.n_tuples s);
  match Entry_store.reference s (bcp 1) with
  | `Resident e' -> check Alcotest.int "entry found with tuples" 2 e'.Entry_store.n
  | _ -> Alcotest.fail "bcp 1 should be resident"

let test_two_q_storability () =
  let s = Entry_store.create ~policy:Policies.Two_q ~capacity:4 ~f_max:2 () in
  (match Entry_store.reference s (bcp 1) with
  | `Rejected false -> () (* ghost staged: no storage this time *)
  | _ -> Alcotest.fail "2q first reference must reject without storability");
  match Entry_store.reference s (bcp 1) with
  | `Admitted e ->
      check Alcotest.bool "promoted entry fillable" true (Entry_store.add_tuple s e (tup 1 1))
  | _ -> Alcotest.fail "2q second reference must promote"

let test_eviction_drops_tuples () =
  let s = Entry_store.create ~capacity:2 ~f_max:1 () in
  let removed = ref [] in
  Entry_store.set_on_change s (fun change b t ->
      match change with
      | Entry_store.Removed -> removed := (b, t) :: !removed
      | Entry_store.Added -> ());
  List.iter
    (fun i ->
      let e = Entry_store.admit_for_fill s (bcp i) in
      ignore (Entry_store.add_tuple s e (tup i 0)))
    [ 1; 2; 3 ];
  check Alcotest.int "capacity respected" 2 (Entry_store.n_entries s);
  check Alcotest.int "tuples follow entries" 2 (Entry_store.n_tuples s);
  check Alcotest.int "eviction reported" 1 (List.length !removed);
  check Alcotest.bool "invariants" true (Entry_store.invariants_ok s)

let test_remove_tuple () =
  let s = Entry_store.create ~capacity:4 ~f_max:3 () in
  let e = Entry_store.admit_for_fill s (bcp 1) in
  ignore (Entry_store.add_tuple s e (tup 1 1));
  ignore (Entry_store.add_tuple s e (tup 1 1));
  (* duplicates allowed *)
  ignore (Entry_store.add_tuple s e (tup 1 2));
  check Alcotest.bool "remove one occurrence" true (Entry_store.remove_tuple s (bcp 1) (tup 1 1));
  check Alcotest.int "one copy left" 2 (Entry_store.n_tuples s);
  check Alcotest.bool "remove second" true (Entry_store.remove_tuple s (bcp 1) (tup 1 1));
  check Alcotest.bool "absent now" false (Entry_store.remove_tuple s (bcp 1) (tup 1 1));
  check Alcotest.bool "unknown bcp" false (Entry_store.remove_tuple s (bcp 9) (tup 9 9));
  (* empty entries keep their residency *)
  check Alcotest.bool "still resident" true (Entry_store.find s (bcp 1) <> None)

let test_tuple_bytes_accounting () =
  let s = Entry_store.create ~capacity:4 ~f_max:2 () in
  let e = Entry_store.admit_for_fill s (bcp 1) in
  ignore (Entry_store.add_tuple s e (tup 1 1));
  let b1 = Entry_store.tuple_bytes s in
  check Alcotest.int "bytes of one tuple" (Tuple.size_bytes (tup 1 1)) b1;
  ignore (Entry_store.remove_tuple s (bcp 1) (tup 1 1));
  check Alcotest.int "bytes back to zero" 0 (Entry_store.tuple_bytes s)

let test_drop_entry () =
  let s = Entry_store.create ~capacity:4 ~f_max:2 () in
  let e = Entry_store.admit_for_fill s (bcp 1) in
  ignore (Entry_store.add_tuple s e (tup 1 1));
  Entry_store.drop_entry s (bcp 1);
  check Alcotest.int "gone" 0 (Entry_store.n_entries s);
  check Alcotest.int "tuples gone" 0 (Entry_store.n_tuples s);
  (match Entry_store.reference s (bcp 1) with
  | `Rejected _ -> ()
  | _ -> Alcotest.fail "dropped bcp must be cold")

let test_probe_tracks_fills () =
  let s = Entry_store.create ~capacity:4 ~f_max:2 () in
  check Alcotest.bool "cold probe misses" true (Entry_store.probe s (bcp 1) = None);
  let e = Entry_store.admit_for_fill s (bcp 1) in
  ignore (Entry_store.add_tuple s e (tup 1 1));
  (match Entry_store.probe s (bcp 1) with
  | Some v ->
      check Alcotest.int "published count" 1 v.Entry_store.v_n;
      check Alcotest.bool "partial fill is not complete" false
        v.Entry_store.v_complete;
      check Alcotest.bool "incomplete is never trusted" false
        (Entry_store.version_trusted s v)
  | None -> Alcotest.fail "filled bcp must probe");
  Entry_store.drop_entry s (bcp 1);
  check Alcotest.bool "dropped bcp unroutable" true
    (Entry_store.probe s (bcp 1) = None)

let test_install_respects_f_bound () =
  let s = Entry_store.create ~capacity:4 ~f_max:2 () in
  let stamp = Entry_store.current_stamp s in
  check Alcotest.bool "over-F install refused" false
    (Entry_store.install_complete s (bcp 1) [ tup 1 1; tup 1 2; tup 1 3 ] ~stamp);
  check Alcotest.bool "refused install leaves no entry" true
    (Entry_store.probe s (bcp 1) = None);
  check Alcotest.bool "bounded install lands" true
    (Entry_store.install_complete s (bcp 1) [ tup 1 1; tup 1 2 ] ~stamp);
  (match Entry_store.probe s (bcp 1) with
  | Some v ->
      check Alcotest.bool "complete and current: trusted" true
        (Entry_store.version_trusted s v)
  | None -> Alcotest.fail "installed bcp must probe");
  check Alcotest.bool "invariants" true (Entry_store.invariants_ok s);
  Entry_store.shutdown s

let prop_invariants_under_random_ops =
  QCheck2.Test.make ~name:"entry store invariants under random ops" ~count:100
    QCheck2.Gen.(
      triple (int_range 1 6) (int_range 1 3)
        (list_size (int_range 1 150) (triple (int_range 0 2) (int_range 0 9) (int_range 0 5))))
    (fun (capacity, f_max, ops) ->
      let s = Entry_store.create ~capacity ~f_max () in
      List.iter
        (fun (op, b, j) ->
          match op with
          | 0 -> (
              match Entry_store.reference s (bcp b) with
              | `Resident e | `Admitted e -> ignore (Entry_store.add_tuple s e (tup b j))
              | `Rejected true ->
                  let e = Entry_store.admit_for_fill s (bcp b) in
                  ignore (Entry_store.add_tuple s e (tup b j))
              | `Rejected false -> ())
          | 1 -> ignore (Entry_store.remove_tuple s (bcp b) (tup b j))
          | _ -> if j = 0 then Entry_store.drop_entry s (bcp b))
        ops;
      Entry_store.invariants_ok s)

let suite =
  [
    Alcotest.test_case "reference then fill" `Quick test_reference_then_fill;
    Alcotest.test_case "2q storability" `Quick test_two_q_storability;
    Alcotest.test_case "eviction drops tuples" `Quick test_eviction_drops_tuples;
    Alcotest.test_case "remove tuple" `Quick test_remove_tuple;
    Alcotest.test_case "byte accounting" `Quick test_tuple_bytes_accounting;
    Alcotest.test_case "drop entry" `Quick test_drop_entry;
    Alcotest.test_case "probe tracks fills" `Quick test_probe_tracks_fills;
    Alcotest.test_case "install respects F bound" `Quick
      test_install_respects_f_bound;
    QCheck_alcotest.to_alcotest prop_invariants_under_random_ops;
  ]
