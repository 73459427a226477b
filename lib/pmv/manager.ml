(* Managing many PMVs at once: the paper argues the RDBMS "can afford
   storing many PMVs" (Section 3.2's sizing example) — one per
   frequently used query template. The manager owns a set of views
   keyed by template name, sizes each one from a per-view storage
   budget UB via the Section 3.2 rule, routes queries to the right
   view, and attaches deferred maintenance for all of them.

   Views live in a hash table so routing stays O(1) however many
   templates are registered; a separate creation-order list keeps
   reports deterministic. The manager also owns the template plan
   cache every routed query answers through. *)

open Minirel_query
module Catalog = Minirel_index.Catalog
module Plan_cache = Minirel_exec.Plan_cache

type entry = {
  view : View.t;
  mutable ub_bytes : int option;
  (* budget-arbiter state (DESIGN.md Section 17): cumulative stat
     snapshots at the last rebalance and the EMA-smoothed measured
     hit-value-per-byte since *)
  mutable ema_value : float;
  mutable last_hits : int;
  mutable last_partials : int;
  mutable last_shaped : int;
}

type t = {
  catalog : Catalog.t;
  views : (string, entry) Hashtbl.t;  (* template name -> entry *)
  mutable order : string list;  (* template names, most recently created first *)
  plan_cache : Plan_cache.t;
  registry : Minirel_telemetry.Registry.t;
  mutable txn_mgr : Minirel_txn.Txn.t option;
  default_f_max : int;
  default_policy : Minirel_cache.Policies.kind;
  mutable budget_total : int option;  (* global UB across all views *)
  mutable rebalance_every : int option;  (* auto-rebalance period, in answers *)
  mutable answers_since_rebalance : int;
  mutable rebalances : int;
}

(* Register a view as telemetry source [pmv.<template>]: query/fill
   counters, replacement-policy counters, and residency gauges. *)
let register_view_telemetry ?(registry = Minirel_telemetry.Registry.default) view =
  let module R = Minirel_telemetry.Registry in
  let vstats = View.stats view in
  R.register_source registry
    ~name:("pmv." ^ View.name view)
    ~reset:(fun () ->
      vstats.View.queries <- 0;
      vstats.View.query_hits <- 0;
      vstats.View.partial_tuples <- 0;
      vstats.View.fills <- 0;
      vstats.View.skipped_inserts <- 0;
      vstats.View.maint_removed <- 0;
      vstats.View.maint_skipped_updates <- 0;
      vstats.View.shaped_queries <- 0;
      Minirel_cache.Cache_stats.reset (Entry_store.policy_stats (View.store view)))
    (fun () ->
      [
        ("queries", R.Counter vstats.View.queries);
        ("query_hits", R.Counter vstats.View.query_hits);
        ("partial_tuples", R.Counter vstats.View.partial_tuples);
        ("fills", R.Counter vstats.View.fills);
        ("skipped_inserts", R.Counter vstats.View.skipped_inserts);
        ("maint_removed", R.Counter vstats.View.maint_removed);
        ("maint_skipped_updates", R.Counter vstats.View.maint_skipped_updates);
        ("shaped_queries", R.Counter vstats.View.shaped_queries);
        ("entries", R.Gauge (float_of_int (View.n_entries view)));
        ("tuples", R.Gauge (float_of_int (View.n_tuples view)));
        ("bytes", R.Gauge (float_of_int (View.size_bytes view)));
        ("hit_ratio", R.Gauge (View.hit_ratio view));
      ]
      @ (let ps = View.probe_store view in
         let es = Entry_store.epoch_stats ps in
         [
           ("probe.entries", R.Gauge (float_of_int (Entry_store.n_entries ps)));
           ("probe.tuples", R.Gauge (float_of_int (Entry_store.n_tuples ps)));
           ("probe.versions_retired", R.Counter es.Minirel_parallel.Epoch.retired);
           ("probe.versions_reclaimed", R.Counter es.Minirel_parallel.Epoch.reclaimed);
           ("probe.versions_in_flight", R.Counter es.Minirel_parallel.Epoch.in_flight);
         ])
      @ List.map
          (fun (k, v) -> ("policy." ^ k, R.Counter v))
          (Minirel_cache.Cache_stats.to_list
             (Entry_store.policy_stats (View.store view))))

let create ?(default_f_max = 2) ?(default_policy = Minirel_cache.Policies.Clock)
    ?(registry = Minirel_telemetry.Registry.default) catalog =
  let t =
    {
      catalog;
      views = Hashtbl.create 16;
      order = [];
      plan_cache = Plan_cache.create catalog;
      registry;
      txn_mgr = None;
      default_f_max;
      default_policy;
      budget_total = None;
      rebalance_every = None;
      answers_since_rebalance = 0;
      rebalances = 0;
    }
  in
  (* A manager is the engine's chokepoint, so creating one (re)binds its
     registry's engine-level sources to this instance's components. *)
  Minirel_storage.Buffer_pool.register_telemetry ~registry (Catalog.pool catalog);
  Plan_cache.register_telemetry ~registry t.plan_cache;
  Minirel_exec.Executor.register_telemetry ~registry catalog;
  t

let catalog t = t.catalog
let plan_cache t = t.plan_cache
let registry t = t.registry

let entries t = List.filter_map (Hashtbl.find_opt t.views) t.order
let views t = List.map (fun e -> e.view) (entries t)
let n_views t = Hashtbl.length t.views

let find t ~template = Option.map (fun e -> e.view) (Hashtbl.find_opt t.views template)

(* Average tuple size used when no result sample is available. *)
let default_avg_tuple_bytes = 64

(* Create (and register) a PMV for the template. [ub_bytes] sizes the
   view by the Section 3.2 rule L = UB / (F * At * 1.04); [sample]
   refines At from representative result tuples. Alternatively pass
   [capacity] directly. @raise Invalid_argument when the template
   already has a view or when neither capacity nor budget is given. *)
let create_view ?policy ?f_max ?capacity ?ub_bytes ?(sample = []) t compiled =
  let name = compiled.Template.spec.Template.name in
  if Hashtbl.mem t.views name then
    invalid_arg (Fmt.str "Manager.create_view: template %s already has a view" name);
  let f_max = Option.value ~default:t.default_f_max f_max in
  let policy = Option.value ~default:t.default_policy policy in
  let capacity =
    match (capacity, ub_bytes) with
    | Some c, _ -> c
    | None, Some ub ->
        let avg =
          match Template.avg_result_bytes sample with 0 -> default_avg_tuple_bytes | n -> n
        in
        let l = Sizing.max_entries { Sizing.ub_bytes = ub; f_max; avg_tuple_bytes = avg } in
        if policy = Minirel_cache.Policies.Two_q then Sizing.two_q_am_of_clock_l l else l
    | None, None ->
        invalid_arg "Manager.create_view: pass either ~capacity or ~ub_bytes"
  in
  let view = View.create ~policy ~f_max ~capacity ~name compiled in
  Hashtbl.replace t.views name
    { view; ub_bytes; ema_value = 0.0; last_hits = 0; last_partials = 0; last_shaped = 0 };
  t.order <- name :: t.order;
  register_view_telemetry ~registry:t.registry view;
  (match t.txn_mgr with Some mgr -> Maintain.attach view mgr | None -> ());
  view

(* Attach deferred maintenance for every current and future view. *)
let attach_maintenance t mgr =
  t.txn_mgr <- Some mgr;
  List.iter (fun e -> Maintain.attach e.view mgr) (entries t)

let drop_view t ~template =
  (match (Hashtbl.find_opt t.views template, t.txn_mgr) with
  | Some e, Some mgr -> Maintain.detach e.view mgr
  | _ -> ());
  if Hashtbl.mem t.views template then
    Minirel_telemetry.Registry.unregister_source t.registry ~name:("pmv." ^ template);
  Hashtbl.remove t.views template;
  t.order <- List.filter (fun n -> n <> template) t.order

(* ---- Global UB budget arbitration (DESIGN.md Section 17) ----

   Instead of freezing each template's UB at creation, the manager can
   own one global byte budget and periodically re-split it by measured
   value: since the last rebalance each view earned

     value = d(query_hits) + d(shaped_queries) + 0.01 * d(partial_tuples)

   (a shaped or plain hit each count 1; raw partial tuples count at 1%
   so a view streaming many tuples per hit doesn't drown the others).
   Value per byte is EMA-smoothed (alpha 0.5) so one quiet interval
   doesn't zero a previously useful template, each view's share is
   floored at half its equal share to keep starvation bounded, and the
   new per-view UB feeds the same Section 3.2 rule (L = UB/(F*At*1.04),
   2Q's Am correction included) used at creation. *)

module Tm = Minirel_telemetry.Telemetry

let c_rebalance = Tm.counter "budget.rebalance"

let set_global_budget ?auto_every t total =
  if total <= 0 then invalid_arg "Manager.set_global_budget: total must be positive";
  (match auto_every with
  | Some n when n <= 0 -> invalid_arg "Manager.set_global_budget: auto_every must be positive"
  | _ -> ());
  t.budget_total <- Some total;
  t.rebalance_every <- auto_every;
  t.answers_since_rebalance <- 0

let global_budget t = t.budget_total
let rebalances t = t.rebalances

let rebalance t =
  match t.budget_total with
  | None -> []
  | Some total ->
      let es = entries t in
      let n = List.length es in
      if n = 0 then []
      else begin
        (* measured hit-value-per-byte since the last rebalance, EMA-smoothed *)
        List.iter
          (fun e ->
            let vstats = View.stats e.view in
            let hits = vstats.View.query_hits in
            let partials = vstats.View.partial_tuples in
            let shaped = vstats.View.shaped_queries in
            let value =
              float_of_int (hits - e.last_hits)
              +. float_of_int (shaped - e.last_shaped)
              +. (0.01 *. float_of_int (partials - e.last_partials))
            in
            e.last_hits <- hits;
            e.last_partials <- partials;
            e.last_shaped <- shaped;
            let vpb = value /. float_of_int (max 1 (View.size_bytes e.view)) in
            e.ema_value <- (if e.ema_value = 0.0 then vpb else (0.5 *. e.ema_value) +. (0.5 *. vpb)))
          es;
        let sum = List.fold_left (fun acc e -> acc +. e.ema_value) 0.0 es in
        let equal = 1.0 /. float_of_int n in
        let raw_share e = if sum <= 0.0 then equal else e.ema_value /. sum in
        (* floor at half the equal share so no template starves outright *)
        let shares = List.map (fun e -> (e, Float.max (0.5 *. equal) (raw_share e))) es in
        let norm = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
        t.rebalances <- t.rebalances + 1;
        if Tm.is_enabled () then Minirel_telemetry.Registry.incr c_rebalance;
        List.map
          (fun (e, share) ->
            let ub = int_of_float (float_of_int total *. share /. norm) in
            e.ub_bytes <- Some ub;
            let store = View.store e.view in
            let avg =
              let nt = Entry_store.n_tuples store in
              if nt > 0 then max 1 (Entry_store.tuple_bytes store / nt)
              else default_avg_tuple_bytes
            in
            let l =
              Sizing.max_entries
                { Sizing.ub_bytes = ub; f_max = Entry_store.f_max store; avg_tuple_bytes = avg }
            in
            let l =
              if Entry_store.policy_name store = "2q" then Sizing.two_q_am_of_clock_l l else l
            in
            Entry_store.resize store ~capacity:l;
            Entry_store.resize (View.probe_store e.view) ~capacity:(4 * l);
            Minirel_telemetry.Flight.record Minirel_telemetry.Flight.Budget_rebalance
              ~a:(Minirel_telemetry.Flight.intern (View.name e.view))
              ~b:l;
            (View.name e.view, l))
          shares
      end

(* Answer through the template's view when one exists, plainly
   otherwise. Returns the stats and whether a view was used. Plans come
   from the manager's template plan cache. *)
let answer ?locks ?txn ?profile ?probe_path ?trace t instance ~on_tuple =
  let name = (Instance.compiled instance).Template.spec.Template.name in
  match find t ~template:name with
  | Some view ->
      let r =
        Answer.answer ?locks ?txn ~plan_cache:t.plan_cache ?profile ?probe_path ?trace
          ~view t.catalog instance ~on_tuple
      in
      (match t.rebalance_every with
      | Some every ->
          t.answers_since_rebalance <- t.answers_since_rebalance + 1;
          if t.answers_since_rebalance >= every then begin
            t.answers_since_rebalance <- 0;
            ignore (rebalance t)
          end
      | None -> ());
      (r, true)
  | None ->
      ( Answer.answer_plain ~plan_cache:t.plan_cache ?profile ?trace t.catalog instance
          ~on_tuple,
        false )

(* Total approximate bytes across all views. *)
let total_bytes t =
  List.fold_left (fun acc e -> acc + View.size_bytes e.view) 0 (entries t)

type report_row = {
  template : string;
  entries : int;
  tuples : int;
  bytes : int;
  hit_ratio : float;
  queries : int;
}

let report t =
  List.map
    (fun (e : entry) ->
      {
        template = View.name e.view;
        entries = View.n_entries e.view;
        tuples = View.n_tuples e.view;
        bytes = View.size_bytes e.view;
        hit_ratio = View.hit_ratio e.view;
        queries = (View.stats e.view).View.queries;
      })
    (entries t)

let pp_report ppf t =
  Fmt.pf ppf "%-16s %-8s %-8s %-10s %-8s %-8s@." "template" "bcps" "tuples" "bytes" "hit"
    "queries";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s %-8d %-8d %-10d %-8.2f %-8d@." r.template r.entries r.tuples r.bytes
        r.hit_ratio r.queries)
    (report t);
  Fmt.pf ppf "total: %d bytes across %d views@." (total_bytes t) (n_views t)
