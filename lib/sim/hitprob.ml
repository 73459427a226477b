(* The Section 4.1 simulation study, faithfully:

   - a read-only database and a universe of [universe] basic condition
     parts (the paper: 1M);
   - each query's Cselect is broken into [h] bcps, drawn iid from a
     Zipfian with parameter alpha;
   - every bcp has more than F result tuples, so every resident entry is
     full and any residency counts;
   - a query is a *hit* if any of its h bcps is resident when it
     arrives ("partial hit", unlike full-hit caching);
   - CLOCK manages L = 1.02 x N entries; 2Q manages Am = N (CLOCK) plus
     a ghost FIFO A1 = N/2, both under the same storage budget (a bcp
     costs 4% of its F tuples);
   - 1M warm-up queries, then the hit probability over the next 1M.

   Default sizes are scaled down for the in-process sweep; `--full`
   in the bench harness restores the paper's numbers. *)

module Policy = Minirel_cache.Policy
module Policies = Minirel_cache.Policies

type config = {
  universe : int;  (* number of distinct bcps *)
  n : int;  (* the paper's N: 2Q Am capacity; CLOCK gets 1.02N *)
  alpha : float;
  h : int;  (* bcps per query *)
  policy : Policies.kind;
  warmup : int;  (* queries before measurement *)
  measure : int;  (* measured queries *)
  seed : int;
}

let paper_default =
  {
    universe = 1_000_000;
    n = 20_000;
    alpha = 1.07;
    h = 2;
    policy = Policies.Clock;
    warmup = 1_000_000;
    measure = 1_000_000;
    seed = 7;
  }

let scaled_default =
  { paper_default with universe = 100_000; n = 2_000; warmup = 200_000; measure = 200_000 }

type result = {
  config : config;
  hit_prob : float;
  avg_hit_bcps : float;  (* mean resident bcps per query (of its h) *)
  resident : int;  (* entries resident at the end *)
  capacity : int;
  top_ranks_for_90pct : int;  (* how many hottest bcps hold 90% of mass *)
}

let capacity_of config =
  match config.policy with
  | Policies.Two_q -> config.n
  | Policies.Clock | Policies.Lru | Policies.Fifo ->
      max 1 (int_of_float (1.02 *. float_of_int config.n))

(* One query: draw h bcps, count how many are resident (the partial-hit
   condition needs >= 1), then process the references (admitting on fill
   where the policy allows, since in this workload every bcp always has
   tuples to cache). Returns the resident count. *)
let step policy zipf rng h =
  let resident = ref 0 in
  for _ = 1 to h do
    let bcp = Minirel_workload.Zipf.sample zipf rng in
    if Policy.mem policy bcp then incr resident;
    match Policy.reference policy bcp with
    | `Resident | `Admitted -> ()
    | `Rejected -> if Policy.admit_on_fill policy then Policy.admit policy bcp
  done;
  !resident

(* Pattern-drift variant: after the warm-up, one window of [every]
   queries is measured as the baseline, then the rank -> bcp mapping
   shifts by [drift] (yesterday's hot bcps go cold) and [windows]
   consecutive windows are measured. The expected picture — a dip right
   after the shift that recovers as the PMV re-learns the pattern — is
   the adaptation story of Section 3.2, measured. *)
let run_drift config ~drift ~every ~windows =
  if config.h < 1 then invalid_arg "Hitprob.run_drift: h must be >= 1";
  if every <= 0 || windows <= 0 || drift < 0 then invalid_arg "Hitprob.run_drift";
  let zipf = Minirel_workload.Zipf.create ~n:config.universe ~alpha:config.alpha in
  let rng = Minirel_prng.Split_mix.create ~seed:config.seed in
  let capacity = capacity_of config in
  let policy = Policies.make config.policy ~capacity in
  let offset = ref 0 in
  let step_shifted () =
    let resident = ref 0 in
    for _ = 1 to config.h do
      let bcp = (!offset + Minirel_workload.Zipf.sample zipf rng) mod config.universe in
      if Policy.mem policy bcp then incr resident;
      match Policy.reference policy bcp with
      | `Resident | `Admitted -> ()
      | `Rejected -> if Policy.admit_on_fill policy then Policy.admit policy bcp
    done;
    !resident > 0
  in
  for _ = 1 to config.warmup do
    ignore (step_shifted ())
  done;
  let window () =
    let hits = ref 0 in
    for _ = 1 to every do
      if step_shifted () then incr hits
    done;
    float_of_int !hits /. float_of_int every
  in
  let baseline = window () in
  offset := drift;
  (baseline, List.init windows (fun _ -> window ()))

let run config =
  if config.h < 1 then invalid_arg "Hitprob.run: h must be >= 1";
  let zipf = Minirel_workload.Zipf.create ~n:config.universe ~alpha:config.alpha in
  let rng = Minirel_prng.Split_mix.create ~seed:config.seed in
  let capacity = capacity_of config in
  let policy = Policies.make config.policy ~capacity in
  for _ = 1 to config.warmup do
    ignore (step policy zipf rng config.h)
  done;
  let hits = ref 0 and hit_bcps = ref 0 in
  for _ = 1 to config.measure do
    let r = step policy zipf rng config.h in
    if r > 0 then incr hits;
    hit_bcps := !hit_bcps + r
  done;
  {
    config;
    hit_prob = float_of_int !hits /. float_of_int config.measure;
    avg_hit_bcps = float_of_int !hit_bcps /. float_of_int config.measure;
    resident = Policy.size policy;
    capacity;
    top_ranks_for_90pct = Minirel_workload.Zipf.ranks_holding zipf ~mass:0.9;
  }
