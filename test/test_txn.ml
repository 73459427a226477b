open Minirel_storage
open Minirel_query
module Lock = Minirel_txn.Lock_manager
module Txn = Minirel_txn.Txn
module Catalog = Minirel_index.Catalog

let check = Alcotest.check
let vi i = Value.Int i

(* --- lock manager --- *)

let test_s_locks_share () =
  let lm = Lock.create () in
  check Alcotest.bool "t1 S" true (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S = Ok ());
  check Alcotest.bool "t2 S shares" true (Lock.acquire lm ~txn:2 ~obj:"v" Lock.S = Ok ());
  (match Lock.held_by lm ~obj:"v" with
  | Some (Lock.S, owners) -> check Alcotest.int "two owners" 2 (List.length owners)
  | _ -> Alcotest.fail "expected shared holders");
  (* X conflicts with the S group *)
  check Alcotest.bool "t3 X blocked" true
    (match Lock.acquire lm ~txn:3 ~obj:"v" Lock.X with Error _ -> true | Ok () -> false)

let test_upgrade () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S);
  check Alcotest.bool "sole S upgrades to X" true
    (Lock.acquire lm ~txn:1 ~obj:"v" Lock.X = Ok ());
  (match Lock.held_by lm ~obj:"v" with
  | Some (Lock.X, [ 1 ]) -> ()
  | _ -> Alcotest.fail "expected X by txn 1");
  (* with two S holders the upgrade fails *)
  let lm2 = Lock.create () in
  ignore (Lock.acquire lm2 ~txn:1 ~obj:"v" Lock.S);
  ignore (Lock.acquire lm2 ~txn:2 ~obj:"v" Lock.S);
  check Alcotest.bool "upgrade blocked" true
    (match Lock.acquire lm2 ~txn:1 ~obj:"v" Lock.X with Error _ -> true | Ok () -> false)

let test_x_exclusive_and_reentrant () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"v" Lock.X);
  check Alcotest.bool "other S blocked" true
    (match Lock.acquire lm ~txn:2 ~obj:"v" Lock.S with Error _ -> true | Ok () -> false);
  check Alcotest.bool "own re-acquire ok" true (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S = Ok ());
  Lock.release lm ~txn:1 ~obj:"v";
  check Alcotest.bool "after release" true (Lock.acquire lm ~txn:2 ~obj:"v" Lock.S = Ok ())

let test_release_all () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"a" Lock.S);
  ignore (Lock.acquire lm ~txn:1 ~obj:"b" Lock.X);
  ignore (Lock.acquire lm ~txn:2 ~obj:"a" Lock.S);
  Lock.release_all lm ~txn:1;
  check Alcotest.bool "b free" true (Lock.held_by lm ~obj:"b" = None);
  match Lock.held_by lm ~obj:"a" with
  | Some (Lock.S, [ 2 ]) -> ()
  | _ -> Alcotest.fail "txn 2 should still hold a"

(* Regression (fault-injection PR): an S holder upgrading to X after
   another transaction's S/X request was refused must leave exactly one
   owner behind, so a later [release_all] frees the object completely
   instead of leaving a stale holder. *)
let test_upgrade_after_refused_request () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S);
  check Alcotest.bool "t2 X refused" true
    (match Lock.acquire lm ~txn:2 ~obj:"v" Lock.X with Error _ -> true | Ok () -> false);
  check Alcotest.bool "t1 upgrades" true (Lock.acquire lm ~txn:1 ~obj:"v" Lock.X = Ok ());
  (match Lock.held_by lm ~obj:"v" with
  | Some (Lock.X, [ 1 ]) -> ()
  | Some (_, owners) ->
      Alcotest.failf "owners not normalised: [%a]" Fmt.(list ~sep:comma int) owners
  | None -> Alcotest.fail "lock vanished");
  Lock.release_all lm ~txn:1;
  check Alcotest.bool "fully free after release_all" true (Lock.held_by lm ~obj:"v" = None);
  check Alcotest.bool "t2 can take X now" true (Lock.acquire lm ~txn:2 ~obj:"v" Lock.X = Ok ())

(* Upgrading after a re-entrant S acquire must also leave one owner:
   one release frees the object. *)
let test_upgrade_after_reentrant_s () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S);
  ignore (Lock.acquire lm ~txn:1 ~obj:"v" Lock.S);
  check Alcotest.bool "upgrade" true (Lock.acquire lm ~txn:1 ~obj:"v" Lock.X = Ok ());
  Lock.release lm ~txn:1 ~obj:"v";
  check Alcotest.bool "one release frees" true (Lock.held_by lm ~obj:"v" = None)

(* [release]/[release_all] for a non-holder must neither free the
   object nor inflate the release statistics. *)
let test_release_only_owned () =
  let lm = Lock.create () in
  ignore (Lock.acquire lm ~txn:1 ~obj:"a" Lock.S);
  ignore (Lock.acquire lm ~txn:1 ~obj:"b" Lock.X);
  ignore (Lock.acquire lm ~txn:2 ~obj:"a" Lock.S);
  let before = (Lock.stats lm).Lock.releases in
  Lock.release lm ~txn:2 ~obj:"b";
  (match Lock.held_by lm ~obj:"b" with
  | Some (Lock.X, [ 1 ]) -> ()
  | _ -> Alcotest.fail "txn 1 must still hold b");
  Lock.release_all lm ~txn:2;
  check Alcotest.int "only txn 2's own lock counted" (before + 1)
    (Lock.stats lm).Lock.releases;
  match Lock.held_by lm ~obj:"a" with
  | Some (Lock.S, [ 1 ]) -> ()
  | _ -> Alcotest.fail "txn 1 must still hold a"

(* --- transactions --- *)

let setup () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs ~n_r:40 ~n_s:30 catalog;
  (catalog, Txn.create catalog)

let test_txn_insert_delete () =
  let catalog, mgr = setup () in
  let before = Heap_file.n_tuples (Catalog.heap catalog "r") in
  let deltas =
    Txn.run mgr
      [
        Txn.Insert { rel = "r"; tuple = [| vi 900; vi 1; vi 2; Value.Str "n" |] };
        Txn.Delete { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 0, vi 1) };
      ]
  in
  check Alcotest.int "two deltas" 2 (List.length deltas);
  check Alcotest.int "net count" before (Heap_file.n_tuples (Catalog.heap catalog "r"));
  (match deltas with
  | [ d1; d2 ] ->
      check Alcotest.int "insert delta" 1 (List.length d1.Txn.inserted);
      check Alcotest.int "delete delta" 1 (List.length d2.Txn.deleted);
      check Helpers.tuple "deleted tuple value"
        [| vi 1; vi 1; vi 1; Value.Str "pay1" |]
        (List.hd d2.Txn.deleted)
  | _ -> Alcotest.fail "deltas")

let test_txn_update () =
  let catalog, mgr = setup () in
  let deltas =
    Txn.run mgr
      [
        Txn.Update
          {
            rel = "s";
            pred = Predicate.Cmp (Predicate.Eq, 2, vi 5);
            set = [ (1, vi 77) ];
          };
      ]
  in
  (match deltas with
  | [ d ] -> (
      match d.Txn.updated with
      | [ (old_t, new_t) ] ->
          check Helpers.value "old g" old_t.(1) (vi (5 mod 8));
          check Helpers.value "new g" (vi 77) new_t.(1);
          check Helpers.value "key unchanged" old_t.(2) new_t.(2)
      | _ -> Alcotest.fail "expected one update")
  | _ -> Alcotest.fail "expected one delta");
  (* the heap reflects it *)
  let updated =
    Heap_file.fold (Catalog.heap catalog "s")
      (fun acc _ t -> if Value.equal t.(2) (vi 5) then t :: acc else acc)
      []
  in
  check Alcotest.int "one row" 1 (List.length updated);
  check Helpers.value "persisted" (vi 77) (List.hd updated).(1)

let test_hooks_invoked () =
  let _, mgr = setup () in
  let log = ref [] in
  Txn.register_hook mgr ~name:"probe" (fun d -> log := d.Txn.rel :: !log);
  ignore
    (Txn.run mgr
       [
         Txn.Insert { rel = "r"; tuple = [| vi 901; vi 1; vi 2; Value.Str "n" |] };
         Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 2, vi 3) };
       ]);
  check (Alcotest.list Alcotest.string) "hooks saw both" [ "s"; "r" ] !log;
  Txn.unregister_hook mgr ~name:"probe";
  ignore (Txn.run mgr [ Txn.Insert { rel = "r"; tuple = [| vi 902; vi 1; vi 2; Value.Str "n" |] } ]);
  check Alcotest.int "unregistered" 2 (List.length !log)

let test_txn_locks_released () =
  let catalog, mgr = setup () in
  ignore (Txn.run mgr [ Txn.Insert { rel = "r"; tuple = [| vi 903; vi 1; vi 2; Value.Str "n" |] } ]);
  (* relation lock must be free afterwards *)
  check Alcotest.bool "rel lock released" true (Lock.held_by (Txn.locks mgr) ~obj:"rel:r" = None);
  ignore catalog

(* Regression (fault-injection PR): when acquiring the second
   relation's lock fails mid-transaction, the first relation's lock
   must not leak. *)
let test_txn_partial_lock_failure_releases () =
  let catalog, mgr = setup () in
  let lm = Txn.locks mgr in
  ignore (Lock.acquire lm ~txn:77 ~obj:"rel:s" Lock.X);
  (match
     Txn.run mgr
       [
         Txn.Insert { rel = "r"; tuple = [| vi 904; vi 1; vi 2; Value.Str "n" |] };
         Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 2, vi 1) };
       ]
   with
  | _ -> Alcotest.fail "expected a lock conflict"
  | exception Failure _ -> ());
  check Alcotest.bool "r lock not leaked" true (Lock.held_by lm ~obj:"rel:r" = None);
  (* nothing was applied *)
  let r900 =
    Heap_file.fold (Catalog.heap catalog "r")
      (fun acc _ t -> if Value.equal t.(0) (vi 904) then t :: acc else acc)
      []
  in
  check Alcotest.int "insert not applied" 0 (List.length r900);
  Lock.release_all lm ~txn:77

(* --- index-driven change matching --- *)

module Registry = Minirel_telemetry.Registry
module Index = Minirel_index.Index

let counter snap name =
  match Registry.find snap name with Some (Registry.Counter n) -> n | _ -> -1

(* What a heap scan of the current state selects, in heap order. *)
let scan_select catalog ~rel pred =
  List.rev
    (Heap_file.fold (Catalog.heap catalog rel)
       (fun acc _ t -> if Predicate.eval pred t then t :: acc else acc)
       [])

(* Predicates over r (rkey, c, f, payload), where c and f carry
   single-attribute indexes, paired with whether the top-level
   conjunction pins one of those keys. *)
let gen_r_pred =
  let open QCheck2.Gen in
  let key = oneofl [ 1; 2 ] in
  let v = map vi (int_range (-1) 41) in
  let rkey = map vi (int_range 0 260) in
  let pin =
    oneof
      [
        map2 (fun p v -> Predicate.Cmp (Predicate.Eq, p, v)) key v;
        map2 (fun p v -> Predicate.In_set (p, [ v ])) key v;
      ]
  in
  let unpinned =
    oneof
      [
        map (fun v -> Predicate.Cmp (Predicate.Lt, 0, v)) rkey;
        map (fun v -> Predicate.Cmp (Predicate.Eq, 0, v)) rkey (* unindexed *);
        map2 (fun p v -> Predicate.Cmp (Predicate.Ne, p, v)) key v;
        map3 (fun p a b -> Predicate.In_set (p, [ a; b ])) key v v;
        map2
          (fun a b ->
            Predicate.Or [ Predicate.Cmp (Predicate.Eq, 1, a); Predicate.Cmp (Predicate.Eq, 2, b) ])
          v v;
        map2 (fun p v -> Predicate.Not (Predicate.Cmp (Predicate.Eq, p, v))) key v;
      ]
  in
  let insert_at i x l = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l) in
  oneof
    [
      map (fun p -> (p, true)) pin;
      map (fun p -> (p, false)) unpinned;
      map3
        (fun p rest i -> (Predicate.And (insert_at (i mod (List.length rest + 1)) p rest), true))
        pin (list_size (int_range 1 2) unpinned) nat;
      map (fun ps -> (Predicate.And ps, false)) (list_size (int_range 1 2) unpinned);
    ]

(* Deletes and updates (some moving c or f) with a few inserts, so
   freed slots are reused and rid order drifts from insertion order. *)
let gen_r_change =
  let open QCheck2.Gen in
  let set =
    oneof
      [
        map (fun c -> [ (1, vi c) ]) (int_range 0 39);
        map (fun f -> [ (2, vi f) ]) (int_range 0 9);
        map2 (fun c f -> [ (1, vi c); (2, vi f) ]) (int_range 0 39) (int_range 0 9);
        return [ (3, Value.Str "moved") ];
      ]
  in
  frequency
    [
      (3, map (fun (pred, pins) -> (Txn.Delete { rel = "r"; pred }, pins)) gen_r_pred);
      (4, map2 (fun (pred, pins) set -> (Txn.Update { rel = "r"; pred; set }, pins)) gen_r_pred set);
      ( 1,
        map3
          (fun k c f ->
            (Txn.Insert { rel = "r"; tuple = [| vi k; vi c; vi f; Value.Str "new" |] }, false))
          (int_range 1000 9999) (int_range 0 39) (int_range 0 9) );
    ]

let pp_change ppf = function
  | Txn.Insert { tuple; _ } -> Fmt.pf ppf "insert %a" Tuple.pp tuple
  | Txn.Delete { pred; _ } -> Fmt.pf ppf "delete where %a" Predicate.pp pred
  | Txn.Update { pred; set; _ } ->
      Fmt.pf ppf "update %a where %a"
        Fmt.(list ~sep:comma (pair ~sep:(any "=") int Value.pp))
        set Predicate.pp pred

(* Every Delete/Update delta equals, tuple for tuple and in order, what
   a heap scan of the pre-change state selects; the catalog stays
   consistent; and the counters say which path found the rows. *)
let prop_index_matches_scan kind =
  let kind_name = match kind with Index.Btree_kind -> "b-tree" | Index.Hash_kind -> "hash" in
  QCheck2.Test.make ~count:60
    ~name:(Fmt.str "index-driven changes == heap scan (%s)" kind_name)
    ~print:(fun chs -> Fmt.str "%a" Fmt.(list ~sep:semi pp_change) (List.map fst chs))
    QCheck2.Gen.(list_size (int_range 1 12) gen_r_change)
    (fun changes ->
      let catalog = Helpers.fresh_catalog () in
      Helpers.build_rs catalog;
      if kind = Index.Hash_kind then
        List.iter
          (fun (name, attr) ->
            Catalog.drop_index catalog ~rel:"r" ~name;
            ignore (Catalog.create_index catalog ~kind ~rel:"r" ~name ~attrs:[ attr ] ()))
          [ ("r_f", "f"); ("r_c", "c") ];
      let txn = Txn.create catalog in
      let registry = Registry.create () in
      Txn.register_telemetry ~registry txn;
      let counts () =
        let snap = Registry.snapshot registry in
        (counter snap "txn.index_matches", counter snap "txn.scan_matches")
      in
      List.for_all
        (fun (change, pins) ->
          let ix0, scan0 = counts () in
          let expected_deleted, expected_updated =
            match change with
            | Txn.Delete { rel; pred } -> (scan_select catalog ~rel pred, [])
            | Txn.Update { rel; pred; set } ->
                ( [],
                  List.map
                    (fun old ->
                      let fresh = Array.copy old in
                      List.iter (fun (pos, v) -> fresh.(pos) <- v) set;
                      (old, fresh))
                    (scan_select catalog ~rel pred) )
            | Txn.Insert _ -> ([], [])
          in
          let delta =
            match Txn.run txn [ change ] with [ d ] -> d | _ -> Alcotest.fail "one delta"
          in
          Catalog.validate catalog;
          let ix1, scan1 = counts () in
          let path_ok =
            match change with
            | Txn.Insert _ -> ix1 = ix0 && scan1 = scan0
            | Txn.Delete _ | Txn.Update _ ->
                if pins then ix1 = ix0 + 1 && scan1 = scan0 else ix1 = ix0 && scan1 = scan0 + 1
          in
          path_ok
          && List.equal Tuple.equal expected_deleted delta.Txn.deleted
          && List.equal
               (fun (a, b) (c, d) -> Tuple.equal a c && Tuple.equal b d)
               expected_updated delta.Txn.updated)
        changes)

(* TPC-R changes pinned on orderkey find their rows through the
   orderkey indexes; an OR of two orderkeys pins nothing and scans. The
   counters are the engine's, registered next to the lock manager's. *)
let test_tpcr_changes_use_the_index () =
  let module Engine = Minirel_engine.Engine in
  let e = Engine.scoped () in
  ignore
    (Minirel_workload.Tpcr.generate (Engine.catalog e)
       (Minirel_workload.Tpcr.params_for_scale ~pad:false 0.002));
  let counts () =
    let snap = Engine.snapshot e in
    (counter snap "txn.index_matches", counter snap "txn.scan_matches")
  in
  let ok k = Predicate.Cmp (Predicate.Eq, 0, vi k) in
  let deltas =
    Engine.run e
      [
        Txn.Delete
          { rel = "lineitem"; pred = Predicate.And [ ok 5; Predicate.Cmp (Predicate.Eq, 2, vi 2) ] };
        Txn.Update { rel = "orders"; pred = ok 7; set = [ (2, vi 3) ] };
      ]
  in
  check Alcotest.(list int) "one row each"
    [ 1; 1 ]
    (List.map (fun d -> List.length d.Txn.deleted + List.length d.Txn.updated) deltas);
  check Alcotest.(pair int int) "pinned on orderkey: index" (2, 0) (counts ());
  let deltas =
    Engine.run e
      [ Txn.Update { rel = "lineitem"; pred = Predicate.Or [ ok 3; ok 4 ]; set = [ (3, vi 9) ] } ]
  in
  check Alcotest.int "eight lineitems" 8 (List.length (List.hd deltas).Txn.updated);
  check Alcotest.(pair int int) "or: scan" (2, 1) (counts ());
  Catalog.validate (Engine.catalog e)

let suite =
  [
    Alcotest.test_case "S locks share" `Quick test_s_locks_share;
    Alcotest.test_case "upgrade" `Quick test_upgrade;
    Alcotest.test_case "upgrade after refused request" `Quick test_upgrade_after_refused_request;
    Alcotest.test_case "upgrade after re-entrant S" `Quick test_upgrade_after_reentrant_s;
    Alcotest.test_case "release only owned" `Quick test_release_only_owned;
    Alcotest.test_case "partial lock failure releases" `Quick
      test_txn_partial_lock_failure_releases;
    Alcotest.test_case "X exclusive + reentrant" `Quick test_x_exclusive_and_reentrant;
    Alcotest.test_case "release_all" `Quick test_release_all;
    Alcotest.test_case "insert/delete txn" `Quick test_txn_insert_delete;
    Alcotest.test_case "update txn" `Quick test_txn_update;
    Alcotest.test_case "hooks invoked" `Quick test_hooks_invoked;
    Alcotest.test_case "locks released" `Quick test_txn_locks_released;
    QCheck_alcotest.to_alcotest (prop_index_matches_scan Index.Btree_kind);
    QCheck_alcotest.to_alcotest (prop_index_matches_scan Index.Hash_kind);
    Alcotest.test_case "tpc-r changes pinned on orderkey use the index" `Quick
      test_tpcr_changes_use_the_index;
  ]
