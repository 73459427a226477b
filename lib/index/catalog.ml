(* The catalog: relation name -> heap file + secondary indexes, sharing
   one buffer pool. All index maintenance for base-table mutations is
   centralised here so the executor and the transaction layer cannot
   leave indexes stale. *)

type rel = {
  mutable heap : Minirel_storage.Heap_file.t;
  mutable indexes : Index.t list;
}

type t = {
  pool : Minirel_storage.Buffer_pool.t;
  rels : (string, rel) Hashtbl.t;
  mutable version : int;  (* bumped on index DDL; plan caches validate against it *)
  (* The executor's counters for queries against this catalog. The
     executor is stateless, so they live with what they count. *)
  cursors : int Atomic.t;
  root_tuples : int Atomic.t;
}

let create pool =
  {
    pool;
    rels = Hashtbl.create 16;
    version = 0;
    cursors = Atomic.make 0;
    root_tuples = Atomic.make 0;
  }

let pool t = t.pool
let version t = t.version
let cursors t = t.cursors
let root_tuples t = t.root_tuples

let create_relation t ?slots_per_page schema =
  let name = schema.Minirel_storage.Schema.name in
  if Hashtbl.mem t.rels name then
    invalid_arg (Fmt.str "Catalog.create_relation: %s already exists" name);
  let heap = Minirel_storage.Heap_file.create ?slots_per_page t.pool schema in
  Hashtbl.replace t.rels name { heap; indexes = [] };
  heap

(* @raise Not_found on unknown relation. *)
let find_rel t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> r
  | None -> raise Not_found

let heap t name = (find_rel t name).heap
let schema t name = Minirel_storage.Heap_file.schema (heap t name)
let mem t name = Hashtbl.mem t.rels name
let relations t = Hashtbl.fold (fun name _ acc -> name :: acc) t.rels []

(* Create an index on [attrs] of [rel] and backfill it from the heap. *)
let create_index t ?(kind = Index.Btree_kind) ~rel ~name ~attrs () =
  let r = find_rel t rel in
  if List.exists (fun ix -> Index.name ix = name) r.indexes then
    invalid_arg (Fmt.str "Catalog.create_index: index %s already exists" name);
  let sch = Minirel_storage.Heap_file.schema r.heap in
  let key_positions =
    Array.of_list (List.map (fun a -> Minirel_storage.Schema.pos sch a) attrs)
  in
  let file_id = Minirel_storage.Buffer_pool.register_file t.pool in
  (* backfill from the heap at creation (B-trees bulk-load) *)
  let prefill =
    List.rev
      (Minirel_storage.Heap_file.fold r.heap (fun acc rid tuple -> (tuple, rid) :: acc) [])
  in
  let ix = Index.create ~kind ~prefill ~name ~key_positions ~file_id () in
  Index.attach_pool ix t.pool;
  r.indexes <- ix :: r.indexes;
  t.version <- t.version + 1;
  ix

(* Drop an index by name, releasing its buffer-pool pages.
   @raise Invalid_argument when [rel] has no index called [name]. *)
let drop_index t ~rel ~name =
  let r = find_rel t rel in
  let doomed, kept = List.partition (fun ix -> Index.name ix = name) r.indexes in
  match doomed with
  | [] -> invalid_arg (Fmt.str "Catalog.drop_index: no index %s on %s" name rel)
  | ix :: _ ->
      Minirel_storage.Buffer_pool.invalidate_file t.pool ~file:(Index.file_id ix);
      r.indexes <- kept;
      t.version <- t.version + 1

let indexes t rel = (find_rel t rel).indexes

(* First index whose key is exactly [attrs] (in order), if any. *)
let index_on t ~rel ~attrs =
  let r = find_rel t rel in
  let sch = Minirel_storage.Heap_file.schema r.heap in
  let want = List.map (fun a -> Minirel_storage.Schema.pos sch a) attrs in
  List.find_opt
    (fun ix -> Array.to_list (Index.key_positions ix) = want)
    r.indexes

(* --- mutations that keep heap and indexes consistent --- *)

let insert t ~rel tuple =
  let r = find_rel t rel in
  let rid = Minirel_storage.Heap_file.insert r.heap tuple in
  List.iter (fun ix -> Index.insert ix tuple rid) r.indexes;
  rid

(* @raise Not_found if [rid] is empty. *)
let delete t ~rel rid =
  let r = find_rel t rel in
  let tuple = Minirel_storage.Heap_file.delete r.heap rid in
  List.iter (fun ix -> ignore (Index.delete ix tuple rid)) r.indexes;
  tuple

(* Compact a relation: rewrite its tuples into a fresh heap file with
   no holes and rebuild every index (bulk-loaded). Frees the space of
   deleted slots; RIDs change, so this must not run while cursors are
   open. Returns the number of pages reclaimed. *)
let vacuum t ~rel =
  let r = find_rel t rel in
  let old_heap = r.heap in
  let old_pages = Minirel_storage.Heap_file.n_pages old_heap in
  let tuples =
    List.rev (Minirel_storage.Heap_file.fold old_heap (fun acc _ tuple -> tuple :: acc) [])
  in
  Minirel_storage.Buffer_pool.invalidate_file t.pool
    ~file:(Minirel_storage.Heap_file.file_id old_heap);
  let fresh =
    Minirel_storage.Heap_file.create t.pool (Minirel_storage.Heap_file.schema old_heap)
  in
  let prefill = List.map (fun tuple -> (tuple, Minirel_storage.Heap_file.insert fresh tuple)) tuples in
  r.heap <- fresh;
  r.indexes <-
    List.map
      (fun ix ->
        let file_id = Minirel_storage.Buffer_pool.register_file t.pool in
        let fresh_ix =
          Index.create ~kind:(Index.kind ix) ~prefill ~name:(Index.name ix)
            ~key_positions:(Index.key_positions ix) ~file_id ()
        in
        Index.attach_pool fresh_ix t.pool;
        fresh_ix)
      r.indexes;
  t.version <- t.version + 1;
  max 0 (old_pages - Minirel_storage.Heap_file.n_pages fresh)

exception Inconsistent of string

(* Integrity check ("fsck"): every index of every relation must mirror
   its heap exactly — same entry count, every tuple findable under its
   key at its rid — and satisfy its structural invariants.
   @raise Inconsistent describing the first violation. *)
let validate t =
  let fail fmt = Fmt.kstr (fun s -> raise (Inconsistent s)) fmt in
  Hashtbl.iter
    (fun rel r ->
      List.iter
        (fun ix ->
          (try Index.validate ix
           with Btree.Invalid msg -> fail "%s.%s: %s" rel (Index.name ix) msg);
          let heap_tuples = Minirel_storage.Heap_file.n_tuples r.heap in
          if Index.n_entries ix <> heap_tuples then
            fail "%s.%s: %d entries vs %d heap tuples" rel (Index.name ix)
              (Index.n_entries ix) heap_tuples;
          Minirel_storage.Heap_file.iter r.heap (fun rid tuple ->
              let key = Index.key_of_tuple ix tuple in
              if
                not
                  (List.exists
                     (fun r2 -> Minirel_storage.Rid.equal r2 rid)
                     (Index.find ix key))
              then fail "%s.%s: tuple at %a missing from the index" rel (Index.name ix)
                  Minirel_storage.Rid.pp rid))
        r.indexes)
    t.rels

(* Returns the old tuple. @raise Not_found if [rid] is empty. *)
let update t ~rel rid tuple =
  let r = find_rel t rel in
  let old = Minirel_storage.Heap_file.fetch r.heap rid in
  Minirel_storage.Heap_file.update r.heap rid tuple;
  List.iter
    (fun ix ->
      ignore (Index.delete ix old rid);
      Index.insert ix tuple rid)
    r.indexes;
  old
