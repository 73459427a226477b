(* A first-class engine instance: one catalog plus everything wired to
   it — buffer pool, transaction manager (with its lock manager),
   PMV manager (with its plan cache), SQL session, optional WAL — and
   the fault and telemetry scopes they all report into.

   Before this module, pmvctl, the shell, the torture driver and the
   test helpers each rebuilt this wiring by hand against the
   process-global fault/telemetry registries, so two engines could not
   coexist in one process. Now the scopes are injected: [create] wires
   everything against the (default, process-global) scopes for drop-in
   compatibility, while [scoped] gives the engine fresh private scopes
   — the building block the shard router fans out over. *)

module Catalog = Minirel_index.Catalog
module Fault = Minirel_fault.Fault
module Registry = Minirel_telemetry.Registry
module Tracer = Minirel_telemetry.Tracer
module Txn = Minirel_txn.Txn
module Wal = Minirel_txn.Wal
module Template = Minirel_query.Template

type t = {
  name : string;
  catalog : Catalog.t;
  txn_mgr : Txn.t;
  manager : Pmv.Manager.t;
  session : Minirel_sql.Session.t;
  fault : Fault.reg;
  registry : Registry.t;
  tracer : Tracer.t;
  mutable wal : Wal.t option;
  (* Domain pool for morsel-parallel O3 execution. Externally owned:
     attaching does not transfer shutdown responsibility. *)
  mutable par : Minirel_parallel.Pool.t option;
  (* Default read path for [answer]; per-call override wins. *)
  mutable probe_path : Pmv.Answer.probe_path;
}

let create ?(name = "engine") ?(fault = Fault.default) ?(registry = Registry.default)
    ?(tracer = Tracer.default) ?(pool_capacity = 4_000) ?default_f_max ?default_policy
    ?catalog () =
  let catalog =
    match catalog with
    | Some c -> c
    | None ->
        Catalog.create (Minirel_storage.Buffer_pool.create ~fault ~capacity:pool_capacity ())
  in
  let txn_mgr = Txn.create ~fault catalog in
  let manager = Pmv.Manager.create ?default_f_max ?default_policy ~registry catalog in
  Pmv.Manager.attach_maintenance manager txn_mgr;
  Minirel_txn.Lock_manager.register_telemetry ~registry (Txn.locks txn_mgr);
  Txn.register_telemetry ~registry txn_mgr;
  {
    name;
    catalog;
    txn_mgr;
    manager;
    session = Minirel_sql.Session.create catalog;
    fault;
    registry;
    tracer;
    wal = None;
    par = None;
    probe_path = Pmv.Answer.Locked;
  }

(* An engine with fresh, private fault and telemetry scopes: nothing it
   does is visible in the process-global registries, and nothing armed
   or recorded globally reaches it. *)
let scoped ?name ?pool_capacity ?default_f_max ?default_policy ?catalog () =
  create ?name ~fault:(Fault.create ()) ~registry:(Registry.create ())
    ~tracer:(Tracer.create ()) ?pool_capacity ?default_f_max ?default_policy ?catalog ()

let name t = t.name
let catalog t = t.catalog
let pool t = Catalog.pool t.catalog
let txn_mgr t = t.txn_mgr
let locks t = Txn.locks t.txn_mgr
let manager t = t.manager
let session t = t.session
let plan_cache t = Pmv.Manager.plan_cache t.manager
let fault t = t.fault
let registry t = t.registry
let tracer t = t.tracer
let wal t = t.wal
let parallel t = t.par
let set_parallel t pool = t.par <- pool
let probe_path t = t.probe_path
let set_probe_path t path = t.probe_path <- path

(* Open a WAL in this engine's fault scope, subscribe it to the
   transaction manager and register its telemetry. *)
let attach_wal t ~filename =
  let wal = Wal.open_log ~fault:t.fault ~filename () in
  Wal.attach wal t.txn_mgr;
  Wal.register_telemetry ~registry:t.registry wal;
  t.wal <- Some wal;
  wal

let detach_wal t =
  match t.wal with
  | None -> ()
  | Some wal ->
      Wal.detach wal t.txn_mgr;
      Wal.close wal;
      t.wal <- None

(* Run a transaction through the engine's manager: locks, WAL (when
   attached) and deferred PMV maintenance all fire. *)
let run t changes = Txn.run t.txn_mgr changes

(* The view registered for the template, creating it on first use when
   a sizing argument is given. *)
let ensure_view ?policy ?f_max ?capacity ?ub_bytes t compiled =
  let template = compiled.Template.spec.Template.name in
  match Pmv.Manager.find t.manager ~template with
  | Some view -> view
  | None -> Pmv.Manager.create_view ?policy ?f_max ?capacity ?ub_bytes t.manager compiled

let find_view t ~template = Pmv.Manager.find t.manager ~template

(* Answer under the Section 3.6 S-lock protocol through the engine's
   manager (PMV when the template has one, plain otherwise). [par]
   overrides the attached pool for this query. *)
let answer ?par ?profile ?probe_path ?trace t instance ~on_tuple =
  let par = match par with Some _ -> par | None -> t.par in
  let probe_path = Option.value ~default:t.probe_path probe_path in
  Pmv.Manager.answer ~locks:(locks t) ?par ?profile ~probe_path ?trace t.manager
    instance ~on_tuple

(* Root-trace lifecycle on this engine's (possibly scoped) tracer: the
   serving surface (shell, pmvctl) opens the root here, threads the
   trace through [answer]/the router, and closes it so the stitched
   tree lands in the tracer's retained ring. *)
let trace_start ?at t name =
  if Minirel_telemetry.Telemetry.is_enabled () then Tracer.start ?at t.tracer name
  else None

let trace_finish ?at t trace = Tracer.finish ?at t.tracer trace
let last_trace t = Tracer.last t.tracer
let force_next_trace t = Tracer.force_next t.tracer

let snapshot t = Registry.snapshot t.registry

let reset_telemetry t =
  Registry.reset t.registry;
  Tracer.clear t.tracer

(* Tear the engine down: close the WAL and drain every view's retired
   version chains, so repeated scoped create/destroy cycles (tests,
   torture rebuilds) do not accumulate version history. The engine must
   not answer queries afterwards. *)
let shutdown t =
  detach_wal t;
  List.iter Pmv.View.shutdown (Pmv.Manager.views t.manager)
