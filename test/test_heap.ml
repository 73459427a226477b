open Minirel_storage

let check = Alcotest.check

let sch = Schema.create "h" [ ("k", Schema.Tint); ("v", Schema.Tstr) ]
let mk k v : Tuple.t = [| Value.Int k; Value.Str v |]

let fresh ?(pool_pages = 100) ?(slots_per_page = 4) () =
  let pool = Buffer_pool.create ~capacity:pool_pages () in
  (pool, Heap_file.create ~slots_per_page pool sch)

let test_insert_fetch () =
  let _, h = fresh () in
  let rid = Heap_file.insert h (mk 1 "a") in
  check Helpers.tuple "fetch" (mk 1 "a") (Heap_file.fetch h rid);
  check Alcotest.int "count" 1 (Heap_file.n_tuples h);
  Alcotest.check_raises "missing page" Not_found (fun () ->
      ignore (Heap_file.fetch h (Rid.make ~page:99 ~slot:0)))

let test_schema_enforced () =
  let _, h = fresh () in
  (match Heap_file.insert h [| Value.Str "bad" |] with
  | _ -> Alcotest.fail "non-conforming tuple accepted"
  | exception Invalid_argument _ -> ());
  (* an empty tuple would read as a free slot, so no page stores one *)
  match Page.insert (Page.create ~id:0 ~slots_per_page:4) [||] with
  | _ -> Alcotest.fail "empty tuple stored"
  | exception Invalid_argument _ -> ()

let test_delete_and_reuse () =
  let _, h = fresh ~slots_per_page:2 () in
  let r1 = Heap_file.insert h (mk 1 "a") in
  let _r2 = Heap_file.insert h (mk 2 "b") in
  let _r3 = Heap_file.insert h (mk 3 "c") in
  check Alcotest.int "pages" 2 (Heap_file.n_pages h);
  let old = Heap_file.delete h r1 in
  check Helpers.tuple "deleted tuple returned" (mk 1 "a") old;
  check Alcotest.int "count after delete" 2 (Heap_file.n_tuples h);
  Alcotest.check_raises "double delete" Not_found (fun () -> ignore (Heap_file.delete h r1));
  (* freed slot is reused before new pages are allocated *)
  let r4 = Heap_file.insert h (mk 4 "d") in
  check Alcotest.int "page reused" (Rid.page r1) (Rid.page r4);
  check Alcotest.int "no page growth" 2 (Heap_file.n_pages h)

let test_freed_slot () =
  let _, h = fresh ~slots_per_page:4 () in
  let rids = List.init 4 (fun i -> Heap_file.insert h (mk i "x")) in
  let victim = List.nth rids 2 in
  ignore (Heap_file.delete h victim);
  Alcotest.check_raises "fetching a freed slot finds nothing" Not_found (fun () ->
      ignore (Heap_file.fetch h victim));
  let again = Heap_file.insert h (mk 9 "y") in
  check Alcotest.bool "the freed slot is reused" true (Rid.equal victim again);
  check Helpers.tuple "and holds the new tuple" (mk 9 "y") (Heap_file.fetch h again);
  check Alcotest.int "no page growth" 1 (Heap_file.n_pages h)

let test_update () =
  let _, h = fresh () in
  let rid = Heap_file.insert h (mk 1 "a") in
  Heap_file.update h rid (mk 1 "z");
  check Helpers.tuple "updated" (mk 1 "z") (Heap_file.fetch h rid);
  Alcotest.check_raises "update empty slot" Not_found (fun () ->
      Heap_file.update h (Rid.make ~page:0 ~slot:3) (mk 9 "x"))

let test_iter_fold () =
  let _, h = fresh ~slots_per_page:3 () in
  for i = 1 to 10 do
    ignore (Heap_file.insert h (mk i "x"))
  done;
  let seen = Heap_file.fold h (fun acc _ t -> Value.int_exn t.(0) :: acc) [] in
  check (Alcotest.list Alcotest.int) "all tuples visited" (List.init 10 (fun i -> i + 1))
    (List.sort Int.compare seen);
  check Alcotest.int "size bytes" (10 * (8 + 4 + 1)) (Heap_file.size_bytes h)

let test_io_charging () =
  let pool, h = fresh ~pool_pages:2 ~slots_per_page:1 () in
  let stats = Buffer_pool.stats pool in
  Io_stats.reset stats;
  (* 5 pages of one tuple each through a 2-page pool *)
  let rids = List.init 5 (fun i -> Heap_file.insert h (mk i "x")) in
  check Alcotest.int "writes are misses without reads" 0 stats.Io_stats.reads;
  Io_stats.reset stats;
  List.iter (fun rid -> ignore (Heap_file.fetch h rid)) rids;
  (* pool holds 2 of 5 pages: at least 3 fetches miss *)
  check Alcotest.bool "read misses charged" true (stats.Io_stats.reads >= 3);
  Buffer_pool.flush pool;
  check Alcotest.bool "dirty pages written on flush" true (stats.Io_stats.writes >= 1)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_rid_bounds () =
  let make page slot () = Rid.make ~page ~slot in
  check Alcotest.bool "negative page" true (raises_invalid (make (-1) 0));
  check Alcotest.bool "negative slot" true (raises_invalid (make 0 (-1)));
  check Alcotest.bool "slot 2^20" true (raises_invalid (make 0 (1 lsl 20)));
  check Alcotest.bool "slot past 2^20" true (raises_invalid (make 3 ((1 lsl 20) + 7)));
  let r = Rid.make ~page:((1 lsl 40) + 5) ~slot:((1 lsl 20) - 1) in
  check Alcotest.(pair int int) "page and slot read back"
    ((1 lsl 40) + 5, (1 lsl 20) - 1)
    (Rid.page r, Rid.slot r);
  let pool = Buffer_pool.create ~capacity:4 () in
  check Alcotest.bool "2^20 slots per page allowed" false
    (raises_invalid (fun () -> Heap_file.create ~slots_per_page:Rid.max_slots pool sch));
  check Alcotest.bool "more than 2^20 slots per page refused" true
    (raises_invalid (fun () -> Heap_file.create ~slots_per_page:(Rid.max_slots + 1) pool sch))

(* Rids order like the (page, slot) records they replaced: by page,
   then by slot. *)
let prop_rid_order =
  let gen_pos =
    QCheck2.Gen.(
      pair
        (oneof [ int_range 0 50; int_range 0 ((1 lsl 41) - 1) ])
        (oneof [ int_range 0 50; int_range 0 ((1 lsl 20) - 1) ]))
  in
  QCheck2.Test.make ~name:"rid order matches (page, slot) order" ~count:500
    ~print:QCheck2.Print.(pair (pair int int) (pair int int))
    QCheck2.Gen.(pair gen_pos gen_pos)
    (fun ((pa, sa), (pb, sb)) ->
      let record_compare =
        let c = Int.compare pa pb in
        if c <> 0 then c else Int.compare sa sb
      in
      let a = Rid.make ~page:pa ~slot:sa and b = Rid.make ~page:pb ~slot:sb in
      Int.compare (Rid.compare a b) 0 = Int.compare record_compare 0
      && Rid.equal a b = (record_compare = 0)
      && (Rid.page a, Rid.slot a) = (pa, sa))

let prop_heap_vs_model =
  (* random insert/delete sequence behaves like a list-based model *)
  QCheck2.Test.make ~name:"heap file contents match reference model" ~count:100
    QCheck2.Gen.(list_size (int_range 1 120) (pair bool small_nat))
    (fun ops ->
      let _, h = fresh ~pool_pages:1000 ~slots_per_page:3 () in
      let model = Hashtbl.create 16 in
      let rids = ref [] in
      List.iter
        (fun (is_insert, k) ->
          if is_insert || !rids = [] then begin
            let t = mk k "v" in
            let rid = Heap_file.insert h t in
            rids := rid :: !rids;
            Hashtbl.replace model rid t
          end
          else begin
            match !rids with
            | rid :: rest ->
                rids := rest;
                ignore (Heap_file.delete h rid);
                Hashtbl.remove model rid
            | [] -> ()
          end)
        ops;
      let actual = Heap_file.fold h (fun acc rid t -> (rid, t) :: acc) [] in
      List.length actual = Hashtbl.length model
      && List.for_all
           (fun (rid, t) ->
             match Hashtbl.find_opt model rid with
             | Some expect -> Tuple.equal t expect
             | None -> false)
           actual)

let suite =
  [
    Alcotest.test_case "insert and fetch" `Quick test_insert_fetch;
    Alcotest.test_case "schema enforced" `Quick test_schema_enforced;
    Alcotest.test_case "delete and slot reuse" `Quick test_delete_and_reuse;
    Alcotest.test_case "freed slot: not fetched, reused" `Quick test_freed_slot;
    Alcotest.test_case "update" `Quick test_update;
    Alcotest.test_case "iter and fold" `Quick test_iter_fold;
    Alcotest.test_case "io charging" `Quick test_io_charging;
    QCheck_alcotest.to_alcotest prop_heap_vs_model;
    Alcotest.test_case "rid bounds" `Quick test_rid_bounds;
    QCheck_alcotest.to_alcotest prop_rid_order;
  ]
