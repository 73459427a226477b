open Minirel_storage
module Catalog = Minirel_index.Catalog
module Index = Minirel_index.Index
module Hash_index = Minirel_index.Hash_index

let check = Alcotest.check

let test_hash_index () =
  let h = Hash_index.create () in
  let k i : Tuple.t = [| Value.Int i |] in
  let rid i = Rid.make ~page:i ~slot:0 in
  Hash_index.insert h (k 1) (rid 1);
  Hash_index.insert h (k 1) (rid 2);
  Hash_index.insert h (k 2) (rid 3);
  check Alcotest.int "n_keys" 2 (Hash_index.n_keys h);
  check Alcotest.int "n_entries" 3 (Hash_index.n_entries h);
  check Alcotest.int "find dup" 2 (List.length (Hash_index.find h (k 1)));
  check Alcotest.bool "delete" true (Hash_index.delete h (k 1) (rid 1));
  check Alcotest.bool "delete gone" false (Hash_index.delete h (k 1) (rid 1));
  check Alcotest.int "after delete" 1 (List.length (Hash_index.find h (k 1)));
  check (Alcotest.list Alcotest.int) "missing" []
    (List.map Rid.page (Hash_index.find h (k 42)));
  (* a 12-attribute key whose hash overflows to a negative int still
     charges a valid bucket page *)
  let pool = Buffer_pool.create ~capacity:4 () in
  let file = Buffer_pool.register_file pool in
  let wide = Hash_index.create () in
  Hash_index.set_visit_hook wide (fun page -> Buffer_pool.access pool ~file ~page ~mode:`Read);
  let rec negative i =
    let key = Array.make 12 (Value.Int i) in
    if Tuple.hash key < 0 then key else negative (i + 1)
  in
  let key = negative 0 in
  Hash_index.insert wide key (rid 7);
  check Alcotest.int "wide key found" 1 (List.length (Hash_index.find wide key))

let test_catalog_basics () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  check Alcotest.bool "relation exists" true (Catalog.mem catalog "r");
  check Alcotest.bool "unknown relation" false (Catalog.mem catalog "zzz");
  check Alcotest.int "two relations" 2 (List.length (Catalog.relations catalog));
  check Alcotest.int "r indexes" 2 (List.length (Catalog.indexes catalog "r"));
  (match Catalog.index_on catalog ~rel:"r" ~attrs:[ "f" ] with
  | Some ix -> check Alcotest.string "index_on finds r_f" "r_f" (Index.name ix)
  | None -> Alcotest.fail "index_on r.f");
  check Alcotest.bool "index_on missing" true
    (Catalog.index_on catalog ~rel:"r" ~attrs:[ "payload" ] = None)

let test_index_backfill () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs ~n_r:50 catalog;
  (* a new index over existing data must see every tuple *)
  let ix = Catalog.create_index catalog ~rel:"r" ~name:"r_rkey" ~attrs:[ "rkey" ] () in
  check Alcotest.int "backfilled entries" 50 (Index.n_entries ix);
  check Alcotest.int "lookup" 1 (List.length (Index.find ix [| Value.Int 17 |]))

let test_catalog_mutations_keep_indexes () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs ~n_r:30 catalog;
  let ix =
    match Catalog.index_on catalog ~rel:"r" ~attrs:[ "f" ] with
    | Some ix -> ix
    | None -> Alcotest.fail "no index"
  in
  let before = Index.n_entries ix in
  let rid =
    Catalog.insert catalog ~rel:"r"
      [| Value.Int 1000; Value.Int 5; Value.Int 3; Value.Str "p" |]
  in
  check Alcotest.int "insert indexed" (before + 1) (Index.n_entries ix);
  let _old =
    Catalog.update catalog ~rel:"r" rid
      [| Value.Int 1000; Value.Int 5; Value.Int 7; Value.Str "p" |]
  in
  check Alcotest.bool "update moved key" true
    (List.exists
       (fun r -> Rid.equal r rid)
       (Index.find ix [| Value.Int 7 |]))
  ;
  check Alcotest.bool "old key gone" true
    (not (List.exists (fun r -> Rid.equal r rid) (Index.find ix [| Value.Int 3 |])));
  let _t = Catalog.delete catalog ~rel:"r" rid in
  check Alcotest.int "delete unindexed" before (Index.n_entries ix)

let test_duplicate_names_rejected () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  (match Catalog.create_relation catalog Helpers.r_schema with
  | _ -> Alcotest.fail "duplicate relation accepted"
  | exception Invalid_argument _ -> ());
  match Catalog.create_index catalog ~rel:"r" ~name:"r_f" ~attrs:[ "f" ] () with
  | _ -> Alcotest.fail "duplicate index accepted"
  | exception Invalid_argument _ -> ()

let prop_index_consistent_with_heap =
  QCheck2.Test.make ~name:"secondary index always mirrors the heap" ~count:60
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 2) (int_range 0 9)))
    (fun ops ->
      let catalog = Helpers.fresh_catalog () in
      let sch = Schema.create "x" [ ("k", Schema.Tint); ("v", Schema.Tint) ] in
      let _ = Catalog.create_relation catalog sch in
      let ix = Catalog.create_index catalog ~rel:"x" ~name:"x_k" ~attrs:[ "k" ] () in
      let live = ref [] in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              let rid = Catalog.insert catalog ~rel:"x" [| Value.Int k; Value.Int 0 |] in
              live := (rid, k) :: !live
          | 1 -> (
              match !live with
              | (rid, _) :: rest ->
                  live := rest;
                  ignore (Catalog.delete catalog ~rel:"x" rid)
              | [] -> ())
          | _ -> (
              match !live with
              | (rid, _) :: rest ->
                  ignore (Catalog.update catalog ~rel:"x" rid [| Value.Int k; Value.Int 1 |]);
                  live := (rid, k) :: rest
              | [] -> ()))
        ops;
      (* every live rid must be findable under its current key *)
      List.for_all
        (fun (rid, k) ->
          List.exists (fun r -> Rid.equal r rid) (Index.find ix [| Value.Int k |]))
        !live
      && Index.n_entries ix = List.length !live)

let test_catalog_validate () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  (* a healthy catalog validates *)
  Catalog.validate catalog;
  (* random mutations keep it healthy *)
  let rng = Minirel_prng.Split_mix.create ~seed:9 in
  let module SM = Minirel_prng.Split_mix in
  for _ = 1 to 60 do
    (match SM.int rng ~bound:3 with
    | 0 ->
        ignore
          (Catalog.insert catalog ~rel:"r"
             [| Value.Int (2000 + SM.int rng ~bound:500); Value.Int 1; Value.Int 1; Value.Str "x" |])
    | 1 -> (
        let heap = Catalog.heap catalog "r" in
        let victim = ref None in
        (try
           Heap_file.iter heap (fun rid _ ->
               victim := Some rid;
               raise Exit)
         with Exit -> ());
        match !victim with Some rid -> ignore (Catalog.delete catalog ~rel:"r" rid) | None -> ())
    | _ -> ());
    ()
  done;
  Catalog.validate catalog;
  (* sabotage: desync an index and expect detection *)
  let ix =
    match Catalog.index_on catalog ~rel:"r" ~attrs:[ "f" ] with
    | Some ix -> ix
    | None -> Alcotest.fail "index"
  in
  Index.insert ix [| Value.Int 0; Value.Int 0; Value.Int 77; Value.Str "ghost" |] (Rid.make ~page:9999 ~slot:0);
  match Catalog.validate catalog with
  | () -> Alcotest.fail "desynchronised index not detected"
  | exception Catalog.Inconsistent _ -> ()

let suite =
  [
    Alcotest.test_case "hash index" `Quick test_hash_index;
    Alcotest.test_case "catalog validate (fsck)" `Quick test_catalog_validate;
    Alcotest.test_case "catalog basics" `Quick test_catalog_basics;
    Alcotest.test_case "index backfill" `Quick test_index_backfill;
    Alcotest.test_case "mutations keep indexes" `Quick test_catalog_mutations_keep_indexes;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
    QCheck_alcotest.to_alcotest prop_index_consistent_with_heap;
  ]
