(* Global UB budget arbitration across templates (DESIGN.md Section 17).

   Two templates (T1 hot, T2 cold) share one fixed UB byte pool. The
   static split halves it forever; the arbitrated run arms
   Manager.set_global_budget and lets the EMA hit-value-per-byte
   arbiter re-split L across the entry stores as the popularity skew
   reveals itself. Aggregate hit ratio at the same total budget must
   not fall below the static split, and answers through the resized
   views must stay oracle-exact.

   Results go to BENCH_adaptive.json. *)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Template = Minirel_query.Template
module View = Pmv.View
module Manager = Pmv.Manager
module Check = Minirel_check.Check
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Zipf = Minirel_workload.Zipf
module SM = Minirel_prng.Split_mix

type cfg = { full : bool; seed : int; scale : float option }

(* One run at a fixed total UB: T1 takes 85% of the query stream, T2
   the rest. [arbitrated] arms the global budget with auto-rebalance;
   otherwise both templates keep the static half. After the stream,
   sampled answers through both views are checked against brute force
   and both views' invariants must hold. *)
let budget_run cfg ~scale ~total_ub ~n_queries ~arbitrated =
  let pool = Buffer_pool.create ~capacity:8_000 () in
  let catalog = Catalog.create pool in
  let params = Tpcr.params_for_scale ~seed:cfg.seed scale in
  ignore (Tpcr.generate catalog params);
  let mgr = Manager.create ~default_f_max:3 catalog in
  let t1 = Template.compile catalog Querygen.t1_spec in
  let t2 = Template.compile catalog Querygen.t2_spec in
  let v1 = Manager.create_view ~ub_bytes:(total_ub / 2) mgr t1 in
  let v2 = Manager.create_view ~ub_bytes:(total_ub / 2) mgr t2 in
  if arbitrated then Manager.set_global_budget ~auto_every:200 mgr total_ub;
  let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
  let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
  let nz = Zipf.create ~n:params.Tpcr.n_nations ~alpha:1.07 in
  let rng = SM.create ~seed:(cfg.seed + 23) in
  let gen () =
    (* T1 hot (single-bcp queries keep the hit ratio a pure residency
       signal), T2 cold: the skew the arbiter should discover *)
    if SM.int rng ~bound:100 < 85 then
      (v1, Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:1 ~f:1 rng)
    else
      ( v2,
        Querygen.gen_t2 t2 ~dates_zipf:dz ~supp_zipf:sz ~nation_zipf:nz ~e:1 ~f:1 ~g:1
          rng )
  in
  for _ = 1 to n_queries do
    ignore (Manager.answer mgr (snd (gen ())) ~on_tuple:(fun _ _ -> ()))
  done;
  let hits, queries =
    List.fold_left
      (fun (h, q) v ->
        let s = View.stats v in
        (h + s.View.query_hits, q + s.View.queries))
      (0, 0) [ v1; v2 ]
  in
  let hit_ratio = if queries = 0 then 0.0 else float_of_int hits /. float_of_int queries in
  let oracle_clean =
    List.for_all
      (fun _ ->
        let view, inst = gen () in
        Check.report_ok (Check.check_answer ~view catalog inst))
      (List.init 20 Fun.id)
    && Check.check_view v1 catalog = []
    && Check.check_view v2 catalog = []
  in
  ( hit_ratio,
    Manager.rebalances mgr,
    Pmv.Entry_store.capacity (View.store v1),
    Pmv.Entry_store.capacity (View.store v2),
    oracle_clean )

let run cfg =
  Output.header ~id:"Adaptive" ~title:"global UB budget arbitration"
    ~paper:
      "(extension) one arbitrated UB pool must serve a skewed template mix at least \
       as well as a frozen 50/50 split, with answers oracle-exact";
  let scale = Option.value cfg.scale ~default:(if cfg.full then 0.02 else 0.008) in
  let total_ub = if cfg.full then 120_000 else 60_000 in
  let n_queries = if cfg.full then 6_000 else 3_000 in
  let hit_static, _, sl1, sl2, static_clean =
    budget_run cfg ~scale ~total_ub ~n_queries ~arbitrated:false
  in
  let hit_arb, rebalances, al1, al2, arb_clean =
    budget_run cfg ~scale ~total_ub ~n_queries ~arbitrated:true
  in
  let gain = hit_arb -. hit_static in
  let oracle_clean = static_clean && arb_clean in
  Output.row
    "budget %d bytes: static hit %.3f (L %d/%d), arbitrated hit %.3f (L %d/%d, %d \
     rebalances), oracle %s@."
    total_ub hit_static sl1 sl2 hit_arb al1 al2 rebalances
    (if oracle_clean then "clean" else "VIOLATED");
  let json =
    Fmt.str
      {|{
  "experiment": "adaptive",
  "scale": %g,
  "seed": %d,
  "host_cores": %d,
  "oracle_clean": %b,
  "budget_total_ub": %d,
  "budget_queries": %d,
  "hit_static": %.4f,
  "hit_arbitrated": %.4f,
  "hit_ratio_gain": %.4f,
  "rebalances": %d
}
|}
      scale cfg.seed
      (Domain.recommended_domain_count ())
      oracle_clean total_ub n_queries hit_static hit_arb gain rebalances
  in
  let oc = open_out "BENCH_adaptive.json" in
  output_string oc json;
  close_out oc;
  Output.row "wrote BENCH_adaptive.json@."
