(* The partial materialized view object (Section 3.2):

     create partial materialized view V_PM as subset of
       select Ls' from R1, ..., Rn where Cjoin
       with selection condition template Cselect;

   A view bundles the compiled template, the bounded entry store, and —
   when enabled — auxiliary in-memory indexes over the Ls' attributes of
   each base relation, the full version's device for maintaining the
   PMV on deletes without recomputing the delta join (Section 3.4).

   Auxiliary index correctness: a PMV is *any* subset of its containing
   MV, so removing too much is always safe. On a delete from base
   relation R_i we drop every cached tuple that agrees with the deleted
   tuple on R_i's Ls' attributes — a superset of the tuples that
   actually lost a derivation. *)

open Minirel_storage
open Minirel_query

type aux = {
  aux_rel : int;  (* template relation index *)
  base_positions : int array;  (* in the base relation's schema *)
  result_positions : int array;  (* in the Ls' tuple *)
  buckets : (Bcp.t * Tuple.t) list ref Tuple.Table.t;  (* key -> occupants *)
}

type stats = {
  mutable queries : int;  (* answered through this view *)
  mutable query_hits : int;  (* queries served >= 1 partial tuple source bcp *)
  mutable partial_tuples : int;  (* tuples served from the view *)
  mutable fills : int;  (* tuples cached during O3 *)
  mutable skipped_inserts : int;  (* base inserts needing no maintenance *)
  mutable maint_removed : int;  (* tuples dropped by deferred maintenance *)
  mutable maint_skipped_updates : int;  (* updates not touching Ls'/Cjoin *)
  mutable shaped_queries : int;  (* §3.6 shaped answers (distinct/grouped/...) *)
}

type t = {
  name : string;
  compiled : Template.compiled;
  store : Entry_store.t;
  probe_store : Entry_store.t;
      (* epoch fast path: complete per-bcp answers installed by fallback
         queries and served lock-free; separate from [store] so the
         paper's F bound on partial fills stays untouched *)
  aux : aux array option;
  stats : stats;
  relevant : int list array;  (* per relation: positions that matter to the view *)
  mutable pending_deltas : Minirel_txn.Txn.delta list;
      (* maintenance deferred past a reader's S lock (newest first) *)
}

let empty_stats () =
  {
    queries = 0;
    query_hits = 0;
    partial_tuples = 0;
    fills = 0;
    skipped_inserts = 0;
    maint_removed = 0;
    maint_skipped_updates = 0;
    shaped_queries = 0;
  }

(* Positions (in relation [i]'s schema) that matter to the view: Ls'
   attributes, join attributes, fixed-predicate attributes. An update
   leaving all of them unchanged cannot affect cached tuples. *)
let relevant_positions_of compiled i =
  let spec = compiled.Template.spec in
  let schema = compiled.Template.schemas.(i) in
  let of_ref (a : Template.attr_ref) =
    if a.Template.rel = i then [ Schema.pos schema a.Template.attr ] else []
  in
  let ls' = List.concat_map of_ref compiled.Template.expanded_select in
  let joins = List.concat_map (fun (a, b) -> of_ref a @ of_ref b) spec.Template.joins in
  let fixed =
    List.concat_map (fun (r, p) -> if r = i then Predicate.positions p else []) spec.Template.fixed
  in
  List.sort_uniq Int.compare (ls' @ joins @ fixed)

let build_aux compiled =
  let spec = compiled.Template.spec in
  Array.init (Array.length spec.Template.relations) (fun rel ->
      let pairs =
        compiled.Template.expanded_select
        |> List.mapi (fun i a -> (i, a))
        |> List.filter_map (fun (i, (a : Template.attr_ref)) ->
               if a.Template.rel = rel then
                 Some (Schema.pos compiled.Template.schemas.(rel) a.Template.attr, i)
               else None)
      in
      {
        aux_rel = rel;
        base_positions = Array.of_list (List.map fst pairs);
        result_positions = Array.of_list (List.map snd pairs);
        buckets = Tuple.Table.create 1024;
      })

let aux_key_of_result aux result = Tuple.project result aux.result_positions
let aux_key_of_base aux base = Tuple.project base aux.base_positions

let aux_add aux bcp tuple =
  let key = aux_key_of_result aux tuple in
  match Tuple.Table.find_opt aux.buckets key with
  | Some bucket -> bucket := (bcp, tuple) :: !bucket
  | None -> Tuple.Table.replace aux.buckets key (ref [ (bcp, tuple) ])

let aux_remove aux bcp tuple =
  let key = aux_key_of_result aux tuple in
  match Tuple.Table.find_opt aux.buckets key with
  | None -> ()
  | Some bucket ->
      let removed = ref false in
      bucket :=
        List.filter
          (fun (b, cached) ->
            if (not !removed) && Bcp.equal b bcp && Tuple.equal cached tuple then begin
              removed := true;
              false
            end
            else true)
          !bucket;
      if !bucket = [] then Tuple.Table.remove aux.buckets key

(* Cached (bcp, tuple) pairs that agree with [base] on relation [rel]'s
   Ls' attributes. *)
let aux_victims t ~rel base =
  match t.aux with
  | None -> invalid_arg "View.aux_victims: auxiliary indexes disabled"
  | Some auxes ->
      let aux = auxes.(rel) in
      let key = aux_key_of_base aux base in
      (match Tuple.Table.find_opt aux.buckets key with
      | Some bucket -> !bucket
      | None -> [])

let create ?(policy = Minirel_cache.Policies.Clock) ?(f_max = 2) ?(aux_maintenance = true)
    ~capacity ~name compiled =
  let store = Entry_store.create ~policy ~capacity ~f_max () in
  (* The probe store caches whole answers, so it lives or dies by its
     residency: a query fast-hits only when every one of its bcps is
     trusted, which decays as hit_ratio^h. Give it 4x the paper store's
     entry count (tuples are shared with the result stream, and each
     answer is capped at 64 tuples per bcp, so the footprint stays
     bounded) to keep the joint hit probability useful. *)
  let probe_store = Entry_store.create ~capacity:(4 * capacity) ~f_max:(max 64 f_max) () in
  let aux =
    if aux_maintenance then begin
      let auxes = build_aux compiled in
      (* refuse the aux strategy if some relation contributes no Ls'
         attribute: its deletes could not locate victims *)
      if Array.exists (fun a -> Array.length a.base_positions = 0) auxes then None
      else Some auxes
    end
    else None
  in
  let relevant =
    Array.init
      (Array.length compiled.Template.spec.Template.relations)
      (relevant_positions_of compiled)
  in
  let t =
    {
      name;
      compiled;
      store;
      probe_store;
      aux;
      stats = empty_stats ();
      relevant;
      pending_deltas = [];
    }
  in
  Entry_store.set_on_change store (fun change bcp tuple ->
      match (t.aux, change) with
      | Some auxes, Entry_store.Added -> Array.iter (fun a -> aux_add a bcp tuple) auxes
      | Some auxes, Entry_store.Removed -> Array.iter (fun a -> aux_remove a bcp tuple) auxes
      | None, _ -> ());
  t

let pending_deltas t = t.pending_deltas
let set_pending_deltas t ds = t.pending_deltas <- ds

let name t = t.name
let compiled t = t.compiled
let store t = t.store
let probe_store t = t.probe_store

(* A relevant base delta is being applied (or was lost/deferred): every
   complete fast-path answer published before it is now untrusted. *)
let invalidate_probe t = Entry_store.invalidate_complete t.probe_store

(* Release both stores' retired version chains; part of engine
   shutdown, after which no probe may run against this view. *)
let shutdown t =
  Entry_store.shutdown t.store;
  Entry_store.shutdown t.probe_store

let stats t = t.stats
let relevant_positions t i = t.relevant.(i)
let has_aux t = t.aux <> None
let lock_object t = "pmv:" ^ t.name

let n_entries t = Entry_store.n_entries t.store
let n_tuples t = Entry_store.n_tuples t.store

(* Total footprint: cached tuples plus the paper's 4%-of-entry estimate
   for the bcp index side (Section 4.1's accounting). *)
let size_bytes t =
  let tuple_bytes = Entry_store.tuple_bytes t.store in
  tuple_bytes + (tuple_bytes * 4 / 100)

let hit_ratio t =
  if t.stats.queries = 0 then 0.0
  else float_of_int t.stats.query_hits /. float_of_int t.stats.queries

(* Every cached tuple must belong to the bcp whose entry holds it, and
   the store bounds must hold; the qcheck suites call this after random
   workloads. *)
let invariants_ok t =
  Entry_store.invariants_ok t.store
  && Entry_store.fold t.store
       (fun ok entry ->
         ok
         && List.for_all
              (fun tuple ->
                Bcp.equal (Condition_part.bcp_of_result t.compiled tuple) entry.Entry_store.e_bcp)
              entry.Entry_store.tuples)
       true
