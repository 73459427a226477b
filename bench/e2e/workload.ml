(* The five workloads and their seeded op streams.

   Every workload draws from the TPC-R generator's data and the
   paper's Zipf-hot T1/T2 parameter draws (Querygen). A workload is
   a closed loop driven by one client: the next op is sent when the
   previous one returns. The whole op stream is generated from the
   seed before timing starts; the system under test receives only the
   generated ops. *)

module Template = Minirel_query.Template
module Instance = Minirel_query.Instance
module Aggregate = Minirel_query.Aggregate
module Ordering = Minirel_query.Ordering
module Querygen = Minirel_workload.Querygen
module Tpcr = Minirel_workload.Tpcr
module Zipf = Minirel_workload.Zipf
module SM = Minirel_prng.Split_mix

type target = Router | Engine

(* Cache memory is fixed in total across shards and templates: a
   static split per view, or one global budget the manager's arbiter
   re-splits every [every] ops. *)
type budget = Static of int | Global of { total : int; every : int }

type t = {
  name : string;
  why : string;
  target : target;
  path : Pmv.Answer.probe_path;
  scale : float;
  alpha : float;
  e : int;
  f : int;
  g : int;
  t2_pct : int;  (* share of queries on T2; 0 = T1 only *)
  shaped : bool;  (* rotate the §3.6 shapes by query index *)
  dml_pct : int;
  budget : budget;
  buffer_pages : int;  (* total across shards *)
  ops : int;  (* op-stream length; a fixed-count run times exactly these *)
  warmup : int;
}

let shards = 4
let f_max = 3

(* ORDER BY ... LIMIT k of the ordered shape. *)
let limit_k = 10

let hot_probe =
  {
    name = "hot_probe";
    why =
      "4-shard router, epoch path: Zipf-hot plain T1 probes under a \
       capacity-bound 100 KB UB, served mostly by the router fast path";
    target = Router;
    path = Pmv.Answer.Epoch;
    scale = 0.005;
    alpha = 1.07;
    e = 2;
    f = 2;
    g = 1;
    t2_pct = 0;
    shaped = false;
    dml_pct = 0;
    budget = Static 100_000;
    buffer_pages = 8_000;
    ops = 60_000;
    warmup = 6_000;
  }

let hot_probe_engine =
  {
    hot_probe with
    name = "hot_probe_engine";
    why =
      "hot_probe's stream and bytes on one engine in epoch mode, so the \
       per-view probe store serves the hits instead of the router cache";
    target = Engine;
  }

let cold_scan =
  {
    name = "cold_scan";
    why =
      "one engine, locked path: a flat T1/T2 mix whose working set dwarfs \
       a 100 KB UB and a 300-page buffer pool, so O3 execution dominates";
    target = Engine;
    path = Pmv.Answer.Locked;
    scale = 0.01;
    alpha = 0.6;
    e = 3;
    f = 3;
    g = 1;
    t2_pct = 30;
    shaped = false;
    dml_pct = 0;
    budget = Static 100_000;
    buffer_pages = 300;
    ops = 12_000;
    warmup = 1_000;
  }

let churn_router4 =
  {
    name = "churn_router4";
    why =
      "4-shard router, epoch path: four query shapes beside 20% DML with \
       maintenance and a rebalanced 200 KB global UB";
    target = Router;
    path = Pmv.Answer.Epoch;
    scale = 0.01;
    alpha = 1.07;
    e = 2;
    f = 2;
    g = 1;
    t2_pct = 15;
    shaped = true;
    dml_pct = 20;
    budget = Global { total = 200_000; every = 200 };
    buffer_pages = 8_000;
    ops = 20_000;
    warmup = 2_000;
  }

let churn_engine =
  {
    churn_router4 with
    name = "churn_engine";
    why =
      "churn_router4's stream and bytes on one engine under the paper's \
       S-lock protocol, deferred maintenance included";
    target = Engine;
    path = Pmv.Answer.Locked;
  }

let all = [ hot_probe; hot_probe_engine; cold_scan; churn_router4; churn_engine ]

(* The smoke-test size: about 1/100 of the ops on a small data set. *)
let quick w =
  { w with ops = max 150 (w.ops / 100); warmup = max 50 (w.warmup / 100); scale = 0.001 }

let n_templates w = if w.t2_pct > 0 then 2 else 1

(* --- ops ------------------------------------------------------------- *)

type shape = Plain | Grouped | Ordered | Exists

let shape_name = function
  | Plain -> "plain"
  | Grouped -> "grouped"
  | Ordered -> "ordered"
  | Exists -> "exists"

let shapes = [| Plain; Grouped; Ordered; Exists |]

let shape_index = function Plain -> 0 | Grouped -> 1 | Ordered -> 2 | Exists -> 3

type query = { tpl : int;  (** 0 = T1, 1 = T2 *) inst : Instance.t; shape : shape }

(* DML pinned by orderkey, so the router sends each change to one
   shard. A new order's key is assigned when it runs. *)
type dml =
  | Insert_order of { custkey : int; date : int; price : float }
  | Insert_lineitem of { orderkey : int; suppkey : int; qty : int; price : float }
  | Delete_lineitem of { orderkey : int; linenumber : int }
  | Update_suppkey of { orderkey : int; linenumber : int; suppkey : int }
  | Update_orderdate of { orderkey : int; date : int }

type op = Query of query | Dml of dml

(* A template compiled once against the TPC-R schemas, with its
   grouped and ordered shape parameters. *)
type tpl = {
  compiled : Template.compiled;
  key : int array;
  aggs : Aggregate.spec array;
  order : Ordering.key array;
}

let compile_templates () =
  let catalog =
    Minirel_index.Catalog.create (Minirel_storage.Buffer_pool.create ~capacity:8 ())
  in
  List.iter
    (fun s -> ignore (Minirel_index.Catalog.create_relation catalog s))
    [ Tpcr.customer_schema; Tpcr.orders_schema; Tpcr.lineitem_schema ];
  let tpl spec =
    let compiled = Template.compile catalog spec in
    let shapes = Querygen.shapes_for compiled ~k:limit_k in
    let key, aggs =
      List.find_map
        (function Querygen.Grouped { key; aggs } -> Some (key, aggs) | _ -> None)
        shapes
      |> Option.get
    in
    let order =
      List.find_map (function Querygen.Ordered { order; _ } -> Some order | _ -> None) shapes
      |> Option.get
    in
    { compiled; key; aggs; order }
  in
  [| tpl Querygen.t1_spec; tpl Querygen.t2_spec |]

(* The database is the same for every seed, as in a TPC run: the
   generator's own seed is fixed and [--seed] draws the op streams.
   Runs at different seeds then differ in the queries and changes
   they send, not in how the hot keys' data happened to fall. *)
let data_seed = 42

let params w = Tpcr.params_for_scale ~seed:data_seed w.scale

(* A fresh op generator: the shape rotation counts this generator's
   queries from zero. [dml] false yields queries only (the oracle's
   sample). *)
let generator ?(dml = true) w ~tpls =
  let p = params w in
  let counts = Tpcr.counts_of_scale w.scale in
  let dz = Zipf.create ~n:p.Tpcr.n_dates ~alpha:w.alpha in
  let sz = Zipf.create ~n:p.Tpcr.n_suppliers ~alpha:w.alpha in
  let nz = Zipf.create ~n:p.Tpcr.n_nations ~alpha:w.alpha in
  let n_queries = ref 0 in
  fun rng ->
    if dml && w.dml_pct > 0 && SM.int rng ~bound:100 < w.dml_pct then begin
      let order () = 1 + SM.int rng ~bound:counts.Tpcr.orders in
      let date () = 1 + Zipf.sample dz rng in
      let supp () = 1 + Zipf.sample sz rng in
      let price bound = float_of_int (SM.int rng ~bound) /. 100.0 in
      Dml
        (match SM.int rng ~bound:5 with
        | 0 ->
            let custkey = 1 + SM.int rng ~bound:counts.Tpcr.customers in
            let date = date () in
            Insert_order { custkey; date; price = price 50_000_000 }
        | 1 ->
            let orderkey = order () in
            let suppkey = supp () in
            let qty = 1 + SM.int rng ~bound:50 in
            Insert_lineitem { orderkey; suppkey; qty; price = price 10_000_000 }
        | 2 ->
            let orderkey = order () in
            Delete_lineitem { orderkey; linenumber = 1 + SM.int rng ~bound:4 }
        | 3 ->
            let orderkey = order () in
            let linenumber = 1 + SM.int rng ~bound:4 in
            Update_suppkey { orderkey; linenumber; suppkey = supp () }
        | _ ->
            let orderkey = order () in
            Update_orderdate { orderkey; date = date () })
    end
    else begin
      let tpl = if w.t2_pct > 0 && SM.int rng ~bound:100 < w.t2_pct then 1 else 0 in
      let compiled = tpls.(tpl).compiled in
      let inst =
        if tpl = 0 then Querygen.gen_t1 compiled ~dates_zipf:dz ~supp_zipf:sz ~e:w.e ~f:w.f rng
        else
          Querygen.gen_t2 compiled ~dates_zipf:dz ~supp_zipf:sz ~nation_zipf:nz ~e:w.e ~f:w.f
            ~g:w.g rng
      in
      let shape = if w.shaped then shapes.(!n_queries mod Array.length shapes) else Plain in
      incr n_queries;
      Query { tpl; inst; shape }
    end

(* Warm-up and timed streams come from separate seeded generators. *)
let streams w ~seed ~tpls =
  let make len s =
    let gen = generator w ~tpls in
    let rng = SM.create ~seed:s in
    Array.init len (fun _ -> gen rng)
  in
  (make w.warmup (seed + 1), make w.ops (seed + 2))
