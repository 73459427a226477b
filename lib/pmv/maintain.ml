(* Deferred PMV maintenance (Section 3.4). Upon a change ΔR_i to a base
   relation of V_PM:

   - insert: nothing. New result tuples are filled in lazily by future
     queries' Operation O3.
   - delete: the affected cached tuples must go. Two strategies:
       [Delta_join]  compute ΔR_i ⋈ (other base relations), look each
                     join result up through the bcp index, remove it —
                     the paper's base algorithm;
       [Aux_index]   skip the join: auxiliary in-memory indexes over the
                     Ls' attributes of each relation locate (a conserva-
                     tive superset of) the victims directly — the full
                     version's optimisation ("we can avoid this join
                     computation by building indices on some attributes
                     of V_PM").
   - update: if no attribute of R_i appearing in Ls' or Cjoin changed,
     nothing; otherwise the old versions are handled like deletions. *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog

type strategy = Delta_join | Aux_index

let strategy_to_string = function Delta_join -> "delta-join" | Aux_index -> "aux-index"

(* Template-relation index of a catalog relation name, if the view
   ranges over it. *)
let template_rel compiled rel =
  let rels = compiled.Template.spec.Template.relations in
  let rec find i =
    if i >= Array.length rels then None else if rels.(i) = rel then Some i else find (i + 1)
  in
  find 0

(* Positions in relation [i]'s schema that matter to the view: Ls',
   join and fixed-predicate attributes. An update leaving all of them
   unchanged cannot affect cached tuples. *)
let relevant_positions = View.relevant_positions_of

let update_touches positions (old_t, new_t) =
  List.exists (fun pos -> not (Value.equal old_t.(pos) new_t.(pos))) positions

let update_is_relevant compiled i pair = update_touches (relevant_positions compiled i) pair

let remove_via_delta_join view catalog ~delta_rel removed_tuples =
  let compiled = View.compiled view in
  let store = View.store view in
  let plan = Minirel_exec.Planner.plan_delta_join catalog compiled ~delta_rel removed_tuples in
  let removed = ref 0 in
  Minirel_exec.Cursor.iter
    (fun result ->
      let bcp = Condition_part.bcp_of_result compiled result in
      if Entry_store.remove_tuple store bcp result then incr removed)
    (Minirel_exec.Executor.cursor catalog plan);
  !removed

let remove_via_aux view ~delta_rel removed_tuples =
  let store = View.store view in
  let removed = ref 0 in
  List.iter
    (fun base ->
      let victims = View.aux_victims view ~rel:delta_rel base in
      List.iter
        (fun (bcp, cached) ->
          if Entry_store.remove_tuple store bcp cached then incr removed)
        victims)
    removed_tuples;
  !removed

let handle_removal view catalog strategy ~delta_rel tuples =
  if tuples = [] then 0
  else
    match strategy with
    | Aux_index when View.has_aux view -> remove_via_aux view ~delta_rel tuples
    | Aux_index | Delta_join -> remove_via_delta_join view catalog ~delta_rel tuples

(* Process one transaction delta against the view.

   Failpoint [maintain.apply] fires before a relevant delta is applied:
   the view then misses this maintenance step entirely — the classic
   stale-view drift — and the owner must rebuild or drop the view to
   restore consistency (the torture driver does exactly that). *)
let on_delta ?(strategy = Aux_index) ?(fault = Minirel_fault.Fault.default) view
    catalog (delta : Minirel_txn.Txn.delta) =
  let compiled = View.compiled view in
  let stats = View.stats view in
  match template_rel compiled delta.Minirel_txn.Txn.rel with
  | None -> ()
  | Some i ->
      Minirel_fault.Fault.hit_in fault "maintain.apply";
      Minirel_telemetry.Flight.record Maint_apply
        ~a:(Minirel_telemetry.Flight.intern (View.name view))
        ~b:i;
      let { Minirel_txn.Txn.inserted; deleted; updated; _ } = delta in
      stats.View.skipped_inserts <- stats.View.skipped_inserts + List.length inserted;
      let removed = ref (handle_removal view catalog strategy ~delta_rel:i deleted) in
      (* positions memoized on the view: once per (view, relation), not
         per updated tuple *)
      let positions = View.relevant_positions view i in
      let relevant, irrelevant = List.partition (update_touches positions) updated in
      stats.View.maint_skipped_updates <-
        stats.View.maint_skipped_updates + List.length irrelevant;
      removed :=
        !removed
        + handle_removal view catalog strategy ~delta_rel:i (List.map fst relevant);
      stats.View.maint_removed <- stats.View.maint_removed + !removed

(* Pending deltas: when maintenance cannot take the X lock because a
   query holds its S lock across O2-O3 (Section 3.6), the delta is
   queued on the view — maintenance is deferred a little further — and
   applied at the next lock-grantable opportunity. Correctness holds
   meanwhile: the answering layer's stale check purges any cached tuple
   that execution no longer produces. *)

(* Number of deltas waiting for the view's X lock. *)
let n_pending view = List.length (View.pending_deltas view)

let process_with_lock ~strategy view txn_mgr delta_opt =
  let catalog = Minirel_txn.Txn.catalog txn_mgr in
  let locks = Minirel_txn.Txn.locks txn_mgr in
  let fault = Minirel_txn.Txn.fault txn_mgr in
  let txn = -1 in
  match
    (* failpoint [maintain.defer] simulates a reader holding its S lock:
       the delta takes the pending-queue path and is applied at the
       next grantable opportunity (flush_pending) *)
    if Minirel_fault.Fault.fire_in fault "maintain.defer" then
      Error
        {
          Minirel_txn.Lock_manager.obj = View.lock_object view;
          holders = [];
          held = Minirel_txn.Lock_manager.X;
          requested = Minirel_txn.Lock_manager.X;
        }
    else
      Minirel_txn.Lock_manager.acquire locks ~txn ~obj:(View.lock_object view)
        Minirel_txn.Lock_manager.X
  with
  | Error _ ->
      (* a reader holds its S lock: defer further *)
      Minirel_telemetry.Flight.record Maint_defer
        ~a:(Minirel_telemetry.Flight.intern (View.name view))
        ~b:(n_pending view + 1);
      (match delta_opt with
      | Some delta -> View.set_pending_deltas view (delta :: View.pending_deltas view)
      | None -> ())
  | Ok () ->
      Fun.protect
        ~finally:(fun () ->
          Minirel_txn.Lock_manager.release locks ~txn ~obj:(View.lock_object view))
        (fun () ->
          (* Take ownership of the queue before applying: the pending
             counter must clear exactly once per queued delta, even
             when a later application raises. Re-running a queued
             delta would double-remove. *)
          let queued = List.rev (View.pending_deltas view) in
          View.set_pending_deltas view [];
          List.iter (on_delta ~strategy ~fault view catalog) queued;
          match delta_opt with
          | Some delta -> on_delta ~strategy ~fault view catalog delta
          | None -> ())

(* Apply any queued deltas now (e.g. after the blocking reader ends). *)
let flush_pending ?(strategy = Aux_index) view txn_mgr =
  process_with_lock ~strategy view txn_mgr None

(* Subscribe the view to a transaction manager. Maintenance takes an X
   lock on the view when [use_locks] (Section 3.6); if a reader holds
   its S lock, the delta queues and is applied at the next grantable
   opportunity. *)
let attach ?(strategy = Aux_index) ?(use_locks = true) view txn_mgr =
  let catalog = Minirel_txn.Txn.catalog txn_mgr in
  let fault = Minirel_txn.Txn.fault txn_mgr in
  Minirel_txn.Txn.register_hook txn_mgr ~name:("pmv:" ^ View.name view) (fun delta ->
      (* Untrust the epoch fast path's complete answers *before* any
         apply/defer/fault decision: whether this delta is applied now,
         queued, or lost to an injected fault, complete versions
         published against the pre-delta data state may no longer be
         served whole (DESIGN.md Section 13). *)
      (match template_rel (View.compiled view) delta.Minirel_txn.Txn.rel with
      | Some _ -> View.invalidate_probe view
      | None -> ());
      if use_locks then process_with_lock ~strategy view txn_mgr (Some delta)
      else on_delta ~strategy ~fault view catalog delta)

let detach view txn_mgr =
  View.set_pending_deltas view [];
  Minirel_txn.Txn.unregister_hook txn_mgr ~name:("pmv:" ^ View.name view)
