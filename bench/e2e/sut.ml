(* The system under test, set up from the outside: TPC-R data, a
   single engine or a 4-shard router over it, the workload's views and
   budget, and calls into the public answering and DML functions. *)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Txn = Minirel_txn.Txn
module Predicate = Minirel_query.Predicate
module Instance = Minirel_query.Instance
module Template = Minirel_query.Template
module Manager = Pmv.Manager
module Extensions = Pmv.Extensions
module Pool = Minirel_parallel.Pool
module Tpcr = Minirel_workload.Tpcr
module W = Workload

type backend = R of Router.t | E of Engine.t

(* Clock stamps written by the traced run's transaction hooks:
   [base_done] when the base change has been applied (the first hook),
   [maint_done] when every view's maintenance hook has run (the last). *)
type stamps = { mutable base_done : int; mutable maint_done : int }

type t = {
  w : W.t;
  tpls : W.tpl array;
  backend : backend;
  engines : Engine.t array;
  reference : Catalog.t;
      (* the unsharded data the oracle reads: the engine's own catalog,
         or the router's source catalog, which replays the router's DML
         after timing *)
  mutable executed : Txn.change list;  (* router DML, newest first *)
  mutable next_orderkey : int;
  stamps : stamps;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Pool workers for the router workloads: the client plus the workers
   never exceed the host's cores. *)
let pool_workers () = max 1 (min 3 (Domain.recommended_domain_count () - 1))

let order_pad = Value.Str (String.make 45 'x')
let lineitem_pad = Value.Str (String.make 90 'x')

(* A hook registered before the views fires after their maintenance
   hooks, one registered after them fires before: Txn.register_hook
   prepends. *)
let stamp_hook txn stamps ~first =
  Txn.register_hook txn ~name:(if first then "e2e:base" else "e2e:maint") (fun _ ->
      if first then stamps.base_done <- now_ns () else stamps.maint_done <- now_ns ())

let create (w : W.t) ~tpls ~pool ~traced =
  let params = W.params w in
  let source =
    Catalog.create
      (Buffer_pool.create
         ~capacity:(match w.W.target with W.Engine -> w.W.buffer_pages | W.Router -> 8_000)
         ())
  in
  ignore (Tpcr.generate source params);
  let used = Array.sub tpls 0 (W.n_templates w) in
  let n_shards = match w.W.target with W.Router -> W.shards | W.Engine -> 1 in
  let total = match w.W.budget with W.Static b -> b | W.Global { total; _ } -> total in
  let per_view = total / n_shards / Array.length used in
  let stamps = { base_done = 0; maint_done = 0 } in
  let backend, engines =
    match w.W.target with
    | W.Engine ->
        let e = Engine.scoped ~catalog:source ~default_f_max:W.f_max () in
        (E e, [| e |])
    | W.Router ->
        let r =
          Router.create ~pool_capacity:(w.W.buffer_pages / W.shards) ~default_f_max:W.f_max
            ~shards:W.shards ()
        in
        List.iter
          (fun rel -> Router.declare r (Catalog.schema source rel) ~part:(`Hash "orderkey"))
          [ "orders"; "lineitem" ];
        Router.declare r (Catalog.schema source "customer") ~part:`Replicated;
        Router.load_from r source;
        (R r, Array.of_list (Router.shards r))
  in
  if traced then Array.iter (fun e -> stamp_hook (Engine.txn_mgr e) stamps ~first:false) engines;
  Array.iter
    (fun (tp : W.tpl) ->
      match backend with
      | E e -> ignore (Engine.ensure_view ~f_max:W.f_max ~ub_bytes:per_view e tp.W.compiled)
      | R r -> ignore (Router.create_view ~f_max:W.f_max ~ub_bytes:per_view r tp.W.compiled))
    used;
  if traced then Array.iter (fun e -> stamp_hook (Engine.txn_mgr e) stamps ~first:true) engines;
  (match w.W.budget with
  | W.Static _ -> ()
  | W.Global { total; _ } ->
      Array.iter
        (fun e -> Manager.set_global_budget (Engine.manager e) (total / n_shards))
        engines);
  (match backend with
  | E e -> Engine.set_probe_path e w.W.path
  | R r ->
      Router.set_probe_path r w.W.path;
      Router.set_parallel r pool);
  {
    w;
    tpls;
    backend;
    engines;
    reference = source;
    executed = [];
    next_orderkey = (Tpcr.counts_of_scale w.W.scale).Tpcr.orders + 1;
    stamps;
  }

let views t = List.concat_map (fun e -> Manager.views (Engine.manager e)) (Array.to_list t.engines)

let view_of e (tp : W.tpl) =
  match Engine.find_view e ~template:tp.W.compiled.Template.spec.Template.name with
  | Some v -> v
  | None -> invalid_arg "Sut: template has no view"

(* --- queries ---------------------------------------------------------- *)

(* What one query delivered: a checksum over group keys and counts,
   never float sums, so it is identical across shard counts; [first]
   is the clock at the first streamed tuple (0 when none). *)
type acc = {
  mutable checksum : int;
  mutable rows : int;
  mutable first : int;
  mutable from_pmv : bool;
}

let acc () = { checksum = 0; rows = 0; first = 0; from_pmv = false }

let answer_plain t inst ~on_tuple =
  match t.backend with
  | R r -> fst (Router.answer r inst ~on_tuple)
  | E e -> fst (Engine.answer e inst ~on_tuple)

let answer_grouped t (tp : W.tpl) inst =
  match t.backend with
  | R r ->
      let g, _ = Router.answer_grouped r inst ~key:tp.W.key ~aggs:tp.W.aggs in
      g
  | E e ->
      Extensions.answer_groups ~locks:(Engine.locks e) ~probe_path:(Engine.probe_path e)
        ~view:(view_of e tp) (Engine.catalog e) inst ~key:tp.W.key ~aggs:tp.W.aggs

let answer_ordered t (tp : W.tpl) inst =
  match t.backend with
  | R r -> Router.answer_ordered_k r inst ~order:tp.W.order ~k:W.limit_k
  | E e ->
      Extensions.answer_ordered_k ~locks:(Engine.locks e) ~probe_path:(Engine.probe_path e)
        ~view:(view_of e tp) (Engine.catalog e) inst ~order:tp.W.order ~k:W.limit_k

let answer_exists t (tp : W.tpl) inst =
  match t.backend with
  | R r -> Router.exists_ r inst
  | E e ->
      Extensions.exists_ ~probe_path:(Engine.probe_path e) ~view:(view_of e tp)
        (Engine.catalog e) inst

(* Run one query, folding what it delivered into [a] (which the caller
   resets); returns the answer statistics the system reports, when
   the shape returns any. *)
let query t a (q : W.query) =
  let tp = t.tpls.(q.W.tpl) in
  match q.W.shape with
  | W.Plain ->
      Some
        (answer_plain t q.W.inst ~on_tuple:(fun _ tuple ->
             if a.rows = 0 then a.first <- now_ns ();
             a.rows <- a.rows + 1;
             a.checksum <- a.checksum + Tuple.hash tuple))
  | W.Grouped ->
      let g = answer_grouped t tp q.W.inst in
      List.iter
        (fun (k, (accs : Minirel_query.Aggregate.acc array)) ->
          a.rows <- a.rows + 1;
          a.checksum <- a.checksum + Tuple.hash k + accs.(0).Minirel_query.Aggregate.n)
        g.Extensions.g_groups;
      Some g.Extensions.g_stats
  | W.Ordered ->
      let rows, stats = answer_ordered t tp q.W.inst in
      List.iteri
        (fun j tuple ->
          a.rows <- a.rows + 1;
          a.checksum <- a.checksum + ((j + 1) * Tuple.hash tuple))
        rows;
      Some stats
  | W.Exists ->
      let b, src = answer_exists t tp q.W.inst in
      if b then begin
        a.rows <- a.rows + 1;
        a.checksum <- a.checksum + 1
      end;
      a.from_pmv <- src = `From_pmv;
      None

(* --- DML -------------------------------------------------------------- *)

let pinned_line orderkey linenumber =
  Predicate.And
    [
      Predicate.Cmp (Predicate.Eq, 0, Value.Int orderkey);
      Predicate.Cmp (Predicate.Eq, 2, Value.Int linenumber);
    ]

let change_of t = function
  | W.Insert_order { custkey; date; price } ->
      let orderkey = t.next_orderkey in
      t.next_orderkey <- orderkey + 1;
      Txn.Insert
        {
          rel = "orders";
          tuple =
            [|
              Value.Int orderkey; Value.Int custkey; Value.Int date; Value.Float price; order_pad;
            |];
        }
  | W.Insert_lineitem { orderkey; suppkey; qty; price } ->
      Txn.Insert
        {
          rel = "lineitem";
          tuple =
            [|
              Value.Int orderkey;
              Value.Int suppkey;
              Value.Int 5;
              Value.Int qty;
              Value.Float price;
              lineitem_pad;
            |];
        }
  | W.Delete_lineitem { orderkey; linenumber } ->
      Txn.Delete { rel = "lineitem"; pred = pinned_line orderkey linenumber }
  | W.Update_suppkey { orderkey; linenumber; suppkey } ->
      Txn.Update
        {
          rel = "lineitem";
          pred = pinned_line orderkey linenumber;
          set = [ (1, Value.Int suppkey) ];
        }
  | W.Update_orderdate { orderkey; date } ->
      Txn.Update
        {
          rel = "orders";
          pred = Predicate.Cmp (Predicate.Eq, 0, Value.Int orderkey);
          set = [ (2, Value.Int date) ];
        }

(* Run one single-change transaction, maintenance included. *)
let dml t d =
  let change = change_of t d in
  match t.backend with
  | E e -> ignore (Engine.run e [ change ])
  | R r ->
      ignore (Router.run r [ change ]);
      t.executed <- change :: t.executed

(* Re-split every engine's global budget (no-op under a static one). *)
let rebalance t = Array.iter (fun e -> ignore (Manager.rebalance (Engine.manager e))) t.engines

(* Bring the router's source catalog to the state the shards hold by
   replaying every change the router ran, in order. *)
let replay_reference t =
  match t.backend with
  | E _ -> ()
  | R _ ->
      let txn = Txn.create t.reference in
      List.iter (fun c -> ignore (Txn.run txn [ c ])) (List.rev t.executed);
      t.executed <- []

let shutdown t = match t.backend with R r -> Router.shutdown r | E e -> Engine.shutdown e
