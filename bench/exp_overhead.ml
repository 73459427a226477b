(* Table 1 and Figures 8-10: the engine experiments of Section 4.2 —
   PMV overhead vs F, vs combination factor h, and vs database scale,
   on TPC-R-shaped data with templates T1 and T2. *)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Template = Minirel_query.Template
module Instance = Minirel_query.Instance
module View = Pmv.View
module Answer = Pmv.Answer
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Zipf = Minirel_workload.Zipf
module SM = Minirel_prng.Split_mix

type config = { full : bool; seed : int; scale : float option }

let base_scale cfg =
  match cfg.scale with Some s -> s | None -> if cfg.full then 0.1 else 0.02

let pmv_capacity cfg = if cfg.full then 20_000 else 2_000
let n_warm cfg = if cfg.full then 1_500 else 400
let n_measure cfg = if cfg.full then 600 else 200

type env = {
  catalog : Catalog.t;
  params : Tpcr.params;
  t1 : Template.compiled;
  t2 : Template.compiled;
  dates_zipf : Zipf.t;
  supp_zipf : Zipf.t;
  nation_zipf : Zipf.t;
}

let build_env ?pool_pages ~seed scale =
  (* the paper's 1000-page buffer pool is small relative to its data;
     keep the same relationship at any scale: the pool holds roughly
     half of the heap pages, so cold access paths actually miss *)
  let pool_pages =
    match pool_pages with
    | Some p -> p
    | None ->
        let c = Tpcr.counts_of_scale scale in
        let data_pages = (c.Tpcr.lineitems + c.Tpcr.orders + c.Tpcr.customers) / 64 in
        max 200 (data_pages / 2)
  in
  let pool = Buffer_pool.create ~capacity:pool_pages () in
  let catalog = Catalog.create pool in
  let params = Tpcr.params_for_scale ~seed scale in
  let _counts = Tpcr.generate catalog params in
  {
    catalog;
    params;
    t1 = Template.compile catalog Querygen.t1_spec;
    t2 = Template.compile catalog Querygen.t2_spec;
    dates_zipf = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07;
    supp_zipf = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07;
    nation_zipf = Zipf.create ~n:params.Tpcr.n_nations ~alpha:1.01;
  }

type which = T1 | T2

let which_to_string = function T1 -> "T1" | T2 -> "T2"

type averages = {
  overhead_s : float;  (* mean per-query PMV overhead, seconds *)
  exec_s : float;  (* mean engine CPU execution time, seconds *)
  io : float;  (* mean logical I/Os per query *)
  hit : float;  (* fraction of measured queries with a PMV hit *)
  partials : float;  (* mean partial tuples per query *)
  results : float;  (* mean result tuples per query *)
  first_partial_s : float option;  (* mean time to first PMV tuple *)
}

(* Disk seek+read cost used to price a logical I/O when modelling the
   paper's 2005-era disk-bound execution times. *)
let io_cost_s = 5e-3

let modeled_exec_s r = r.exec_s +. (io_cost_s *. r.io)

(* The paper's controlled protocol (Section 4.2): the PMV holds entries
   with F result tuples each, and "one of these h basic condition parts
   exists in the PMV". We realise it in two phases:

   1. warm: issue single-bcp queries for candidate parameter combos;
      remember the combos whose bcp ended up cached with tuples;
   2. measure: per query, embed one warm combo plus cold disjuncts so
      the combination factor is exactly h = e * f * g. *)

let instance_of env which dates supps nations =
  let values xs = Instance.Dvalues (List.map (fun i -> Value.Int i) xs) in
  match which with
  | T1 -> Instance.make env.t1 [| values dates; values supps |]
  | T2 -> Instance.make env.t2 [| values dates; values supps; values nations |]

let bcp_of_combo which (d, s, n) : Minirel_query.Bcp.t =
  match which with
  | T1 -> [| Value.Int d; Value.Int s |]
  | T2 -> [| Value.Int d; Value.Int s; Value.Int n |]

let warm_hot_combos env which view ~n_hot ~seed =
  let rng = SM.create ~seed in
  let store = View.store view in
  let hot = ref [] and found = ref 0 and tries = ref 0 in
  while !found < n_hot && !tries < 60 * n_hot do
    incr tries;
    let d = 1 + Zipf.sample env.dates_zipf rng in
    let s = 1 + Zipf.sample env.supp_zipf rng in
    let n = Zipf.sample env.nation_zipf rng in
    let inst = instance_of env which [ d ] [ s ] [ n ] in
    ignore (Answer.answer ~view env.catalog inst ~on_tuple:(fun _ _ -> ()));
    match Pmv.Entry_store.find store (bcp_of_combo which (d, s, n)) with
    | Some entry when entry.Pmv.Entry_store.n > 0 ->
        if not (List.mem (d, s, n) !hot) then begin
          hot := (d, s, n) :: !hot;
          incr found
        end
    | Some _ | None -> ()
  done;
  Array.of_list !hot

(* [k] values drawn uniformly from [1, bound] (or [0, bound) when
   [zero_based]), all distinct and different from [avoid]. *)
let cold_values rng ~bound ~avoid ~k ~zero_based =
  let lo = if zero_based then 0 else 1 in
  let hi = if zero_based then bound - 1 else bound in
  let rec go acc got tries =
    if got >= k || tries > 500 * (k + 1) then acc
    else
      let v = SM.int_range rng ~lo ~hi in
      if v = avoid || List.mem v acc then go acc got (tries + 1)
      else go (v :: acc) (got + 1) (tries + 1)
  in
  go [] 0 0

let run_shape env which ~e ~f ~g ~f_max ~capacity ~warm ~measure ~seed =
  let compiled = match which with T1 -> env.t1 | T2 -> env.t2 in
  let view =
    View.create ~f_max ~capacity
      ~name:(Fmt.str "%s_F%d_h%d" (which_to_string which) f_max (e * f * g))
      compiled
  in
  let n_hot = min capacity (max 16 (warm / 4)) in
  let hot = warm_hot_combos env which view ~n_hot ~seed in
  if Array.length hot = 0 then
    invalid_arg "run_shape: no hot bcps could be warmed; scale too small";
  let rng = SM.create ~seed:(seed + 1) in
  let acc_overhead = ref 0.0
  and acc_exec = ref 0.0
  and acc_io = ref 0
  and acc_hits = ref 0
  and acc_partials = ref 0
  and acc_results = ref 0
  and acc_first = ref 0.0
  and n_first = ref 0 in
  for _ = 1 to measure do
    let d, s, n = hot.(SM.int rng ~bound:(Array.length hot)) in
    let dates = d :: cold_values rng ~bound:env.params.Tpcr.n_dates ~avoid:d ~k:(e - 1) ~zero_based:false in
    let supps = s :: cold_values rng ~bound:env.params.Tpcr.n_suppliers ~avoid:s ~k:(f - 1) ~zero_based:false in
    let nations = n :: cold_values rng ~bound:env.params.Tpcr.n_nations ~avoid:n ~k:(g - 1) ~zero_based:true in
    let inst = instance_of env which dates supps nations in
    let st = Answer.answer ~view env.catalog inst ~on_tuple:(fun _ _ -> ()) in
    acc_overhead := !acc_overhead +. Output.sec_of_ns st.Answer.overhead_ns;
    acc_exec := !acc_exec +. Output.sec_of_ns st.Answer.exec_ns;
    acc_io := !acc_io + st.Answer.io_reads + st.Answer.io_writes;
    if st.Answer.probe_hits > 0 then incr acc_hits;
    acc_partials := !acc_partials + st.Answer.partial_count;
    acc_results := !acc_results + st.Answer.total_count;
    match st.Answer.first_partial_ns with
    | Some ns ->
        acc_first := !acc_first +. Output.sec_of_ns ns;
        incr n_first
    | None -> ()
  done;
  ignore compiled;
  let m = float_of_int measure in
  {
    overhead_s = !acc_overhead /. m;
    exec_s = !acc_exec /. m;
    io = float_of_int !acc_io /. m;
    hit = float_of_int !acc_hits /. m;
    partials = float_of_int !acc_partials /. m;
    results = float_of_int !acc_results /. m;
    first_partial_s = (if !n_first = 0 then None else Some (!acc_first /. float_of_int !n_first));
  }

(* --- Table 1 --- *)

let table1 cfg =
  let s = base_scale cfg in
  Output.header ~id:"Table 1" ~title:"test data set"
    ~paper:"customer 0.15M*s / 23s MB, orders 1.5M*s / 114s MB, lineitem 6M*s / 755s MB";
  Output.row "%-10s %-14s %-12s (paper formula at s=1)@." "relation" "tuples" "MB";
  List.iter
    (fun r ->
      Output.row "%-10s %-14d %-12.1f@." r.Tpcr.relation r.Tpcr.tuples r.Tpcr.nominal_mb)
    (Tpcr.table1 ~scale:1.0 ());
  Fmt.pr "@.generated at this run's scale s=%.3f:@." s;
  let env = build_env ~seed:cfg.seed s in
  Output.row "%-10s %-14s %-12s@." "relation" "tuples" "MB (measured)";
  List.iter
    (fun r ->
      Output.row "%-10s %-14d %-12.2f@." r.Tpcr.relation r.Tpcr.tuples
        (match r.Tpcr.actual_bytes with
        | Some b -> float_of_int b /. 1e6
        | None -> 0.0))
    (Tpcr.table1 ~catalog:env.catalog ~scale:s ());
  Fmt.pr "selection domains: %d orderdates, %d suppliers, %d nations@."
    env.params.Tpcr.n_dates env.params.Tpcr.n_suppliers env.params.Tpcr.n_nations

(* --- Figure 8: overhead vs F (h = 4, s fixed) --- *)

let fig8 cfg =
  let env = build_env ~seed:cfg.seed (base_scale cfg) in
  Output.header ~id:"Figure 8" ~title:"PMV overhead vs tuples-per-bcp F (h=4)"
    ~paper:"overhead grows with F; T2 above T1; magnitude ~1e-5..5e-5 s";
  Output.row "%-4s %-15s %-15s %-8s %-8s %-12s %-12s@." "F" "T1 ovh(s)" "T2 ovh(s)"
    "T1 res" "T2 res" "T1 ns/res" "T2 ns/res";
  List.iter
    (fun f_max ->
      let r1 =
        run_shape env T1 ~e:2 ~f:2 ~g:1 ~f_max ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:(cfg.seed + f_max)
      in
      let r2 =
        run_shape env T2 ~e:2 ~f:2 ~g:1 ~f_max ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:(cfg.seed + 50 + f_max)
      in
      let per_res r = 1e9 *. r.overhead_s /. Float.max 1.0 r.results in
      Output.row "%-4d %-15.7f %-15.7f %-8.1f %-8.1f %-12.0f %-12.0f@." f_max r1.overhead_s
        r2.overhead_s r1.results r2.results (per_res r1) (per_res r2))
    [ 1; 2; 3; 4; 5 ]

(* --- Figure 9: overhead vs combination factor h (F = 3) --- *)

(* h decompositions into (e, f) for T1 and (e, f, g) for T2 *)
let t1_shapes = [ (1, 1); (2, 1); (3, 1); (2, 2); (5, 1); (3, 2); (7, 1); (4, 2); (3, 3); (5, 2) ]
let t2_shapes =
  [
    (1, 1, 1); (2, 1, 1); (3, 1, 1); (2, 2, 1); (5, 1, 1);
    (3, 2, 1); (7, 1, 1); (2, 2, 2); (3, 3, 1); (5, 2, 1);
  ]

let fig9 cfg =
  let env = build_env ~seed:cfg.seed (base_scale cfg) in
  Output.header ~id:"Figure 9" ~title:"PMV overhead vs combination factor h (F=3)"
    ~paper:"overhead grows with h; T2 above T1";
  Output.row "%-4s %-16s %-16s@." "h" "T1 overhead(s)" "T2 overhead(s)";
  List.iter2
    (fun (e1, f1) (e2, f2, g2) ->
      let h = e1 * f1 in
      let r1 =
        run_shape env T1 ~e:e1 ~f:f1 ~g:1 ~f_max:3 ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:(cfg.seed + h)
      in
      let r2 =
        run_shape env T2 ~e:e2 ~f:f2 ~g:g2 ~f_max:3 ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:(cfg.seed + 100 + h)
      in
      Output.row "%-4d %-16.7f %-16.7f@." h r1.overhead_s r2.overhead_s)
    t1_shapes t2_shapes

(* --- interval-form ablation: overhead vs query span --- *)

(* T1 with an interval-form orderdate condition over an equal-width
   grid of basic intervals (Section 3.1's discretisation). The paper's
   engine experiments use equality-form conditions only; this ablation
   exercises the O1 interval decomposition on the engine: a query
   spanning [span] basic intervals generates h = span condition parts
   (partially-covered edge intervals exercise the non-exact cp checks). *)
let ablation_interval cfg =
  let env = build_env ~seed:cfg.seed (base_scale cfg) in
  let bins = max 4 (env.params.Tpcr.n_dates / 8) in
  let grid = Minirel_query.Discretize.equal_width ~lo:1 ~hi:(env.params.Tpcr.n_dates + 1) ~bins in
  let spec =
    {
      Querygen.t1_spec with
      Template.name = "t1_interval";
      selections =
        [|
          Template.Range_sel (Template.attr_ref ~rel:0 ~attr:"orderdate", grid);
          Template.Eq_sel (Template.attr_ref ~rel:1 ~attr:"suppkey");
        |];
    }
  in
  let compiled = Template.compile env.catalog spec in
  let view = View.create ~capacity:(pmv_capacity cfg) ~f_max:3 ~name:"t1_iv" compiled in
  Output.header ~id:"Ablation Interval"
    ~title:"PMV overhead vs interval span (interval-form orderdate, F=3)"
    ~paper:
      "(supporting §3.1/O1) overhead grows with the number of basic intervals the query \
       spans; hits persist across differently-shaped overlapping queries";
  let rng = SM.create ~seed:(cfg.seed + 3) in
  let width = (env.params.Tpcr.n_dates + bins - 1) / bins in
  Output.row "grid: %d basic intervals of width ~%d days@." (Minirel_query.Discretize.n_intervals grid) width;
  Output.row "%-6s %-8s %-14s %-10s %-10s@." "span" "h" "overhead(s)" "hit" "partials/q";
  List.iter
    (fun span ->
      let acc_ovh = ref 0.0 and acc_h = ref 0 and hits = ref 0 and partials = ref 0 in
      let n_q = n_measure cfg in
      for _ = 1 to n_q do
        let start = 1 + SM.int rng ~bound:(max 1 (env.params.Tpcr.n_dates - (span * width))) in
        let supp = 1 + Zipf.sample env.supp_zipf rng in
        let inst =
          Instance.make compiled
            [|
              Instance.Dintervals
                [
                  Minirel_query.Interval.half_open ~lo:(Value.Int start)
                    ~hi:(Value.Int (start + (span * width)));
                ];
              Instance.Dvalues [ Value.Int supp ];
            |]
        in
        let st = Answer.answer ~view env.catalog inst ~on_tuple:(fun _ _ -> ()) in
        acc_ovh := !acc_ovh +. Output.sec_of_ns st.Answer.overhead_ns;
        acc_h := !acc_h + st.Answer.h;
        if st.Answer.probe_hits > 0 then incr hits;
        partials := !partials + st.Answer.partial_count
      done;
      let m = float_of_int n_q in
      Output.row "%-6d %-8.1f %-14.7f %-10.2f %-10.2f@." span
        (float_of_int !acc_h /. m)
        (!acc_ovh /. m)
        (float_of_int !hits /. m)
        (float_of_int !partials /. m))
    [ 1; 2; 4; 6; 8 ]

(* --- Figure 10: execution time vs overhead across database scale --- *)

let fig10 cfg =
  let base = base_scale cfg in
  Output.header ~id:"Figure 10" ~title:"query execution time vs PMV overhead across scale s"
    ~paper:
      "execution time grows with s and dwarfs the (roughly flat) overhead by >= 5 orders \
       of magnitude (modeled column prices each logical I/O at 5 ms of 2005-era disk)";
  Output.row "%-8s %-13s %-10s %-13s %-13s %-10s %-13s %-13s %-10s@." "s" "exec T1(s)"
    "io T1" "model T1(s)" "pmv T1(s)" "io T2" "model T2(s)" "pmv T2(s)" "ratio T1";
  List.iter
    (fun mult ->
      let s = base *. mult in
      let env = build_env ~seed:cfg.seed s in
      let r1 =
        run_shape env T1 ~e:2 ~f:2 ~g:1 ~f_max:3 ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:cfg.seed
      in
      let r2 =
        run_shape env T2 ~e:2 ~f:2 ~g:1 ~f_max:3 ~capacity:(pmv_capacity cfg)
          ~warm:(n_warm cfg) ~measure:(n_measure cfg) ~seed:(cfg.seed + 1)
      in
      Output.row "%-8.3f %-13.6f %-10.3f %-13.4f %-13.7f %-10.3f %-13.4f %-13.7f %-10.0f@." s
        r1.exec_s r1.io (modeled_exec_s r1) r1.overhead_s r2.io (modeled_exec_s r2)
        r2.overhead_s
        (modeled_exec_s r1 /. Float.max 1e-9 r1.overhead_s))
    [ 0.5; 1.0; 1.5; 2.0 ]
