(* Transactions over the catalog: batches of inserts/deletes/updates
   that keep heap files and secondary indexes consistent and feed the
   resulting deltas to registered view-maintenance hooks (traditional
   MVs maintain immediately; PMVs defer per Section 3.4). *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog
module Index = Minirel_index.Index

type change =
  | Insert of { rel : string; tuple : Tuple.t }
  | Delete of { rel : string; pred : Predicate.t }
  | Update of { rel : string; pred : Predicate.t; set : (int * Value.t) list }

type delta = {
  rel : string;
  inserted : Tuple.t list;
  deleted : Tuple.t list;
  updated : (Tuple.t * Tuple.t) list;  (* (old, new) *)
}

let empty_delta rel = { rel; inserted = []; deleted = []; updated = [] }

type hook = { hook_name : string; on_delta : delta -> unit }

type t = {
  catalog : Catalog.t;
  locks : Lock_manager.t;
  fault : Minirel_fault.Fault.reg;
  mutable hooks : hook list;
  mutable next_txn : int;
  (* how each Delete/Update found its rows *)
  mutable index_matches : int;
  mutable scan_matches : int;
}

let create ?(fault = Minirel_fault.Fault.default) catalog =
  {
    catalog;
    locks = Lock_manager.create ~fault ();
    fault;
    hooks = [];
    next_txn = 1;
    index_matches = 0;
    scan_matches = 0;
  }

let catalog t = t.catalog
let locks t = t.locks
let fault t = t.fault

let register_telemetry ~registry t =
  let module R = Minirel_telemetry.Registry in
  R.register_source registry ~name:"txn"
    ~reset:(fun () ->
      t.index_matches <- 0;
      t.scan_matches <- 0)
    (fun () ->
      [
        ("index_matches", R.Counter t.index_matches);
        ("scan_matches", R.Counter t.scan_matches);
      ])

let register_hook t ~name on_delta =
  t.hooks <- { hook_name = name; on_delta } :: t.hooks

let unregister_hook t ~name =
  t.hooks <- List.filter (fun h -> h.hook_name <> name) t.hooks

let fresh_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

let rel_lock rel = "rel:" ^ rel

(* A single-attribute index on [rel] whose key the predicate pins,
   with the pinned value. *)
let pinned_index catalog ~rel pred =
  List.find_map
    (fun ix ->
      match Index.key_positions ix with
      | [| pos |] -> Option.map (fun v -> (ix, v)) (Predicate.pinned_value pos pred)
      | _ -> None)
    (Catalog.indexes catalog rel)

(* The rids a Delete/Update changes, in heap order. When the predicate
   pins an indexed key, the index supplies the candidates: they are
   sorted into heap order, fetched and re-checked against the whole
   predicate. Otherwise the heap is scanned. Both paths give the same
   rids in the same order, so deltas, maintenance and WAL records do
   not depend on which one ran. *)
let matching_rids t ~rel pred =
  let heap = Catalog.heap t.catalog rel in
  match pinned_index t.catalog ~rel pred with
  | Some (ix, v) ->
      t.index_matches <- t.index_matches + 1;
      List.filter
        (fun rid ->
          match Heap_file.fetch heap rid with
          | tuple -> Predicate.eval pred tuple
          | exception Not_found -> false)
        (List.sort_uniq Rid.compare (Index.find ix [| v |]))
  | None ->
      t.scan_matches <- t.scan_matches + 1;
      let acc = ref [] in
      Heap_file.iter heap (fun rid tuple ->
          if Predicate.eval pred tuple then acc := rid :: !acc);
      List.rev !acc

let apply_change t change =
  let catalog = t.catalog in
  match change with
  | Insert { rel; tuple } ->
      let _rid = Catalog.insert catalog ~rel tuple in
      { (empty_delta rel) with inserted = [ tuple ] }
  | Delete { rel; pred } ->
      let rids = matching_rids t ~rel pred in
      let deleted = List.map (fun rid -> Catalog.delete catalog ~rel rid) rids in
      { (empty_delta rel) with deleted }
  | Update { rel; pred; set } ->
      let rids = matching_rids t ~rel pred in
      let updated =
        List.map
          (fun rid ->
            let heap = Catalog.heap catalog rel in
            (* the rid was matched moments ago *)
            let old = Heap_file.fetch heap rid in
            let fresh = Array.copy old in
            List.iter (fun (pos, v) -> fresh.(pos) <- v) set;
            ignore (Catalog.update catalog ~rel rid fresh);
            (old, fresh))
          rids
      in
      { (empty_delta rel) with updated }

(* Run a transaction. X-locks every touched relation for its duration,
   applies the changes in order, then notifies hooks once per change.
   Returns the deltas. @raise Lock_manager.Conflict on lock conflict. *)
let run t changes =
  let txn = fresh_txn t in
  let rels =
    List.sort_uniq String.compare
      (List.map
         (function Insert { rel; _ } | Delete { rel; _ } | Update { rel; _ } -> rel)
         changes)
  in
  (* a conflict midway through the lock list must not leak the locks
     already granted — release everything this txn holds and re-raise *)
  Fun.protect
    ~finally:(fun () -> Lock_manager.release_all t.locks ~txn)
    (fun () ->
      List.iter
        (fun rel ->
          Lock_manager.acquire_exn t.locks ~txn ~obj:(rel_lock rel) Lock_manager.X)
        rels;
      List.map
        (fun change ->
          let delta = apply_change t change in
          List.iter (fun h -> h.on_delta delta) t.hooks;
          delta)
        changes)
