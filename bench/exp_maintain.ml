(* Figures 11-12 (analytical maintenance model), the measured
   maintenance counterpart (extra A), and the aux-index ablation
   (extra C). *)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Template = Minirel_query.Template
module Predicate = Minirel_query.Predicate
module Mv_cost = Minirel_matview.Mv_cost
module Matview = Minirel_matview.Matview
module Txn = Minirel_txn.Txn
module View = Pmv.View
module Maintain = Pmv.Maintain
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Zipf = Minirel_workload.Zipf
module SM = Minirel_prng.Split_mix

type config = { full : bool; seed : int }

let p_grid = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

(* --- Figure 11: total maintenance workload, analytical --- *)

let fig11 (_ : config) =
  let m = Mv_cost.default in
  Output.header ~id:"Figure 11" ~title:"maintenance workload TW vs insert fraction p (|ΔR|=1000)"
    ~paper:
      "log-scale: MV in the thousands of I/Os, PMV >= 2 orders of magnitude below; both \
       decrease as p grows; PMV reaches 0 at p=100% (idealized)";
  Output.row "%-6s %-14s %-14s %-18s@." "p" "MV (I/Os)" "PMV (I/Os)" "PMV idealized";
  List.iter
    (fun p ->
      Output.row "%-6.0f %-14.1f %-14.2f %-18.2f@." (100. *. p) (Mv_cost.tw_mv m ~p)
        (Mv_cost.tw_pmv m ~p)
        (Mv_cost.tw_pmv ~idealized:true m ~p))
    p_grid

(* --- Figure 12: speedup ratio, analytical --- *)

let fig12 (_ : config) =
  let m = Mv_cost.default in
  Output.header ~id:"Figure 12" ~title:"speedup of PMV over MV maintenance vs p"
    ~paper:"speedup increases with p, reaching several hundred as p -> 100%";
  Output.row "%-6s %-12s@." "p" "speedup";
  List.iter
    (fun p -> Output.row "%-6.0f %-12.1f@." (100. *. p) (Mv_cost.speedup m ~p))
    p_grid

(* --- Extra A: measured maintenance on the engine --- *)

(* Apply |ΔR| changes to lineitem with insert fraction p, returning the
   engine I/Os charged while the given view-maintenance mode is active,
   minus the cost of the base-table work itself (measured with no view). *)
let run_workload ~mode ~seed ~delta_size ~p scale =
  let pool = Buffer_pool.create ~capacity:4_000 () in
  let catalog = Catalog.create pool in
  let params = Tpcr.params_for_scale ~seed scale in
  ignore (Tpcr.generate catalog params);
  let t1 = Template.compile catalog Querygen.t1_spec in
  let mgr = Txn.create catalog in
  (match mode with
  | `None -> ()
  | `Mv ->
      let mv = Matview.create catalog ~name:"t1" t1 in
      Matview.attach mv mgr
  | `Pmv strategy ->
      let view = View.create ~capacity:2_000 ~f_max:3 ~name:"t1" t1 in
      Maintain.attach ~strategy ~use_locks:false view mgr;
      (* warm the PMV so maintenance has something to do — through the
         Section 3.6 shape mix, not just plain probes, so the delta
         stream is maintained against the same store a shaped workload
         would leave behind *)
      let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
      let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
      let rng = SM.create ~seed:(seed + 7) in
      for i = 1 to 150 do
        let inst = Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:2 ~f:2 rng in
        match i mod 5 with
        | 1 ->
            ignore
              (Pmv.Extensions.answer_distinct ~view catalog inst
                 ~on_tuple:(fun _ _ -> ()))
        | 2 ->
            ignore
              (Pmv.Extensions.answer_groups ~view catalog inst ~key:[| 0 |]
                 ~aggs:[| Minirel_query.Aggregate.Count |])
        | 3 ->
            ignore
              (Pmv.Extensions.answer_ordered_k ~view catalog inst ~order:[| (0, false) |]
                 ~k:10)
        | _ -> ignore (Pmv.Answer.answer ~view catalog inst ~on_tuple:(fun _ _ -> ()))
      done);
  let n_orders = (Tpcr.counts_of_scale scale).Tpcr.orders in
  let rng = SM.create ~seed:(seed + 13) in
  let stats = Buffer_pool.stats pool in
  let before = Io_stats.snapshot stats in
  let t0 = Monotonic_clock.now () in
  let next = ref 50_000_000 in
  for _ = 1 to delta_size do
    incr next;
    let change =
      if SM.float rng < p then
        Txn.Insert
          {
            rel = "lineitem";
            tuple =
              [|
                Value.Int (1 + SM.int rng ~bound:n_orders);
                Value.Int (1 + SM.int rng ~bound:params.Tpcr.n_suppliers);
                Value.Int 9;
                Value.Int 1;
                Value.Float 1.0;
                Value.Str "";
              |];
          }
      else
        Txn.Delete
          {
            rel = "lineitem";
            pred =
              Predicate.And
                [
                  Predicate.Cmp
                    (Predicate.Eq, 1, Value.Int (1 + SM.int rng ~bound:params.Tpcr.n_suppliers));
                  Predicate.Cmp (Predicate.Eq, 3, Value.Int (1 + SM.int rng ~bound:50));
                ];
          }
    in
    ignore (Txn.run mgr [ change ])
  done;
  let elapsed = Output.sec_of_ns (Int64.sub (Monotonic_clock.now ()) t0) in
  let io = Io_stats.diff ~before stats in
  (Io_stats.total io, elapsed)

let maintain_measured cfg =
  let scale = if cfg.full then 0.02 else 0.008 in
  let delta_size = if cfg.full then 600 else 250 in
  Output.header ~id:"Extra A"
    ~title:
      (Fmt.str "measured maintenance on the engine (|ΔR|=%d lineitem changes)" delta_size)
    ~paper:
      "validates Figure 11's shape: MV maintenance I/Os far above PMV's; both shrink as p \
       grows; PMV insert-only maintenance is free";
  Output.row "%-6s %-12s %-12s %-12s %-12s %-12s@." "p" "base I/Os" "MV extra" "PMV extra"
    "MV time(s)" "PMV time(s)";
  List.iter
    (fun p ->
      let base_io, base_t = run_workload ~mode:`None ~seed:cfg.seed ~delta_size ~p scale in
      let mv_io, mv_t = run_workload ~mode:`Mv ~seed:cfg.seed ~delta_size ~p scale in
      let pmv_io, pmv_t =
        run_workload ~mode:(`Pmv Maintain.Aux_index) ~seed:cfg.seed ~delta_size ~p scale
      in
      Output.row "%-6.0f %-12d %-12d %-12d %-12.4f %-12.4f@." (100. *. p) base_io
        (max 0 (mv_io - base_io))
        (max 0 (pmv_io - base_io))
        (Float.max 0. (mv_t -. base_t))
        (Float.max 0. (pmv_t -. base_t)))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* --- Extra C: aux-index vs delta-join deferred maintenance --- *)

let ablation_aux cfg =
  let scale = if cfg.full then 0.02 else 0.008 in
  let delta_size = if cfg.full then 400 else 150 in
  Output.header ~id:"Ablation C" ~title:"deferred maintenance strategy (deletes only, p=0)"
    ~paper:
      "(extra, full version's optimisation) aux-index avoids the delta join: fewer I/Os \
       and less time than delta-join maintenance";
  Output.row "%-12s %-12s %-12s@." "strategy" "extra I/Os" "time (s)";
  let base_io, base_t = run_workload ~mode:`None ~seed:cfg.seed ~delta_size ~p:0.0 scale in
  List.iter
    (fun (label, strategy) ->
      let io, t = run_workload ~mode:(`Pmv strategy) ~seed:cfg.seed ~delta_size ~p:0.0 scale in
      Output.row "%-12s %-12d %-12.4f@." label (max 0 (io - base_io)) (Float.max 0. (t -. base_t)))
    [ ("aux-index", Maintain.Aux_index); ("delta-join", Maintain.Delta_join) ]
