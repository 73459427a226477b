(* pmvctl: a small demonstration CLI over the library.

   Subcommands:
     demo     generate a TPC-R-shaped database, attach a PMV to template
              T1 and stream a query workload, printing periodic stats
     query    answer a single T1 query (dates/suppliers from the CLI),
              showing partial results arriving before execution results
     simulate run one hit-probability simulation cell
     trace    print the stitched span tree of one traced query
     flight   dump the flight recorder after a (faulted) workload

   Examples:
     pmvctl demo --scale 0.02 --queries 500 --policy 2q
     pmvctl query --dates 3,7 --suppliers 2 --scale 0.01
     pmvctl simulate --alpha 1.07 --h 2 --n 2000
     pmvctl trace --shards 4 --domains 4 --probe-path epoch
     pmvctl flight --fault maintain.apply --queries 50
*)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Template = Minirel_query.Template
module Instance = Minirel_query.Instance
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Zipf = Minirel_workload.Zipf
module SM = Minirel_prng.Split_mix
module Shell = Minirel_shell.Shell
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Pool = Minirel_parallel.Pool
module Span = Minirel_telemetry.Span
module Tracer = Minirel_telemetry.Tracer
module Flight = Minirel_telemetry.Flight
module Fault = Minirel_fault.Fault

(* Run [f] with a Domain pool of [domains] workers (None when 1 —
   everything stays sequential), shutting the pool down on the way
   out. The scheduler counters register against the default registry
   so `pmvctl metrics`-style snapshots show pool.sched.* alongside the
   engine sources. *)
let with_pool ~domains f =
  if domains >= 2 then begin
    let pool = Pool.create ~domains in
    Pool.register_telemetry pool Minirel_telemetry.Registry.default;
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))
  end
  else f None

let build ~scale ~seed =
  let pool = Buffer_pool.create ~capacity:4_000 () in
  let catalog = Catalog.create pool in
  let params = Tpcr.params_for_scale ~seed scale in
  let counts = Tpcr.generate catalog params in
  Fmt.pr "generated: %d customers, %d orders, %d lineitems (dates 1..%d, suppliers 1..%d)@."
    counts.Tpcr.customers counts.Tpcr.orders counts.Tpcr.lineitems params.Tpcr.n_dates
    params.Tpcr.n_suppliers;
  (catalog, params, Template.compile catalog Querygen.t1_spec)

(* Hash-partition the TPC-R join relations by their join key (orders
   and lineitem by orderkey, so T1 joins run shard-locally), replicate
   the customer dimension, and split [catalog] across [shards]
   engines. *)
let shard_tpcr ~shards catalog =
  let router = Router.create ~shards () in
  List.iter
    (fun rel -> Router.declare router (Catalog.schema catalog rel) ~part:(`Hash "orderkey"))
    [ "orders"; "lineitem" ];
  Router.declare router (Catalog.schema catalog "customer") ~part:`Replicated;
  Router.load_from router catalog;
  Fmt.pr "sharded: %d engines, orders/lineitem hash-partitioned by orderkey@." shards;
  router

let demo scale seed queries policy f_max capacity =
  let catalog, params, t1 = build ~scale ~seed in
  let engine = Engine.create ~catalog () in
  let view = Pmv.Manager.create_view ~policy ~capacity ~f_max (Engine.manager engine) t1 in
  let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
  let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
  let rng = SM.create ~seed:(seed + 1) in
  Fmt.pr "@.%-8s %-10s %-10s %-10s %-12s@." "queries" "hit ratio" "bcps" "tuples" "partials";
  for i = 1 to queries do
    let q = Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:2 ~f:2 rng in
    ignore (Engine.answer engine q ~on_tuple:(fun _ _ -> ()));
    if i mod (max 1 (queries / 10)) = 0 then
      Fmt.pr "%-8d %-10.3f %-10d %-10d %-12d@." i (Pmv.View.hit_ratio view)
        (Pmv.View.n_entries view) (Pmv.View.n_tuples view)
        (Pmv.View.stats view).Pmv.View.partial_tuples
  done;
  Fmt.pr "@.PMV footprint: ~%d bytes (policy %s, F=%d, capacity %d)@."
    (Pmv.View.size_bytes view)
    (Minirel_cache.Policies.to_string policy)
    f_max capacity

let parse_ints s =
  String.split_on_char ',' s
  |> List.filter_map (fun x ->
         match int_of_string_opt (String.trim x) with
         | Some v -> Some (Value.Int v)
         | None -> None)

let query scale seed dates suppliers =
  let catalog, _params, t1 = build ~scale ~seed in
  let engine = Engine.create ~catalog () in
  ignore (Engine.ensure_view ~capacity:1_000 ~f_max:3 engine t1);
  let dates = parse_ints dates and suppliers = parse_ints suppliers in
  if dates = [] || suppliers = [] then begin
    Fmt.epr "need at least one date and one supplier@.";
    exit 2
  end;
  let inst = Instance.make t1 [| Instance.Dvalues dates; Instance.Dvalues suppliers |] in
  let show label =
    Fmt.pr "@.-- %s@." label;
    let st, _ =
      Engine.answer engine inst ~on_tuple:(fun phase t ->
          let tag = match phase with Pmv.Answer.Partial -> "partial" | _ -> "exec" in
          Fmt.pr "  [%s] %a@." tag Tuple.pp (Template.visible_of_result t1 t))
    in
    Fmt.pr "  %d results (%d before execution); overhead %.1f µs@." st.Pmv.Answer.total_count
      st.Pmv.Answer.partial_count
      (Int64.to_float st.Pmv.Answer.overhead_ns /. 1e3)
  in
  show "first run (cold PMV)";
  show "second run (hot results come back instantly)"

let simulate alpha h n policy =
  let cfg = { Pmv_sim.Hitprob.scaled_default with alpha; h; n; policy } in
  let r = Pmv_sim.Hitprob.run cfg in
  Fmt.pr "universe=%d N=%d alpha=%.2f h=%d policy=%s -> hit probability %.4f@."
    cfg.Pmv_sim.Hitprob.universe n alpha h
    (Minirel_cache.Policies.to_string policy)
    r.Pmv_sim.Hitprob.hit_prob

(* Drive a short T1 workload through the full stack — one engine, or
   [shards] hash-partitioned engines with merged streams — then dump
   the telemetry in the requested format. Sharded prom output labels
   every series with its shard; text and json report the merged view
   (counters/gauges summed, histogram summaries merged). *)
let metrics scale seed queries format shards domains probe_path =
  let catalog, params, t1 = build ~scale ~seed in
  let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
  let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
  let rng = SM.create ~seed:(seed + 1) in
  let gen () = Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:2 ~f:2 rng in
  with_pool ~domains @@ fun par ->
  if shards <= 1 then begin
    (* the engine shares Registry.default, where with_pool registered
       pool.sched — the snapshot carries the scheduler counters *)
    let engine = Engine.create ~catalog () in
    Engine.set_parallel engine par;
    Engine.set_probe_path engine probe_path;
    ignore (Engine.ensure_view ~capacity:2_000 ~f_max:3 engine t1);
    for _ = 1 to queries do
      ignore (Engine.answer engine (gen ()) ~on_tuple:(fun _ _ -> ()))
    done;
    let snapshot = Engine.snapshot engine in
    match format with
    | "prom" -> print_string (Minirel_telemetry.Export.prometheus_string snapshot)
    | "json" -> print_endline (Minirel_telemetry.Export.json_string snapshot)
    | _ -> Fmt.pr "%a@." Minirel_telemetry.Registry.pp_snapshot snapshot
  end
  else begin
    let router = shard_tpcr ~shards catalog in
    Router.set_probe_path router probe_path;
    Router.set_parallel router par;
    (* shards have scoped registries; put pool.sched on shard 0 so the
       merged snapshot (and prom export) carries it *)
    Option.iter
      (fun p -> Pool.register_telemetry p (Engine.registry (Router.shard router 0)))
      par;
    ignore (Router.create_view ~capacity:2_000 ~f_max:3 router t1);
    for _ = 1 to queries do
      ignore (Router.answer router (gen ()) ~on_tuple:(fun _ _ -> ()))
    done;
    match format with
    | "prom" -> print_string (Router.prometheus_string router)
    | "json" ->
        print_endline (Minirel_telemetry.Export.json_string (Router.snapshot_merged router))
    | _ ->
        Fmt.pr "merged over %d shards@.%a@." shards Minirel_telemetry.Registry.pp_snapshot
          (Router.snapshot_merged router)
  end

(* --trace-sample N [--trace-seed S]: 1-in-N stratified span sampling on
   [engine]'s tracer, reproducible from the seed — the same seed always
   selects the same ticks. N = 1 traces every query. *)
let apply_trace_sampling engine sample tseed =
  match sample with
  | None -> ()
  | Some every ->
      Tracer.set_sampling
        ?seed:(Option.map Int64.of_int tseed)
        (Engine.tracer engine) ~every

(* Answer a seeded T1 workload and print the final query's stitched
   span tree: one tree per query even across the sharded parallel
   fan-out — per-shard subtrees annotated with shard/domain/worker,
   probe-path attribution on every answer span. *)
let trace scale seed queries shards domains probe_path sample tseed =
  let catalog, params, t1 = build ~scale ~seed in
  let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
  let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
  let rng = SM.create ~seed:(seed + 1) in
  let gen () = Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:2 ~f:2 rng in
  with_pool ~domains @@ fun par ->
  (* [e] owns the tracer the root span opens on (shard 0 when sharded) *)
  let e, answer =
    if shards <= 1 then begin
      let engine = Engine.create ~catalog () in
      Engine.set_parallel engine par;
      Engine.set_probe_path engine probe_path;
      ignore (Engine.ensure_view ~capacity:2_000 ~f_max:3 engine t1);
      (engine, fun ?trace q ~on_tuple -> Engine.answer ?trace engine q ~on_tuple)
    end
    else begin
      let router = shard_tpcr ~shards catalog in
      Router.set_parallel router par;
      Router.set_probe_path router probe_path;
      ignore (Router.create_view ~capacity:2_000 ~f_max:3 router t1);
      (Router.shard router 0, fun ?trace q ~on_tuple -> Router.answer ?trace router q ~on_tuple)
    end
  in
  apply_trace_sampling e sample tseed;
  for _ = 1 to max 0 (queries - 1) do
    ignore (answer (gen ()) ~on_tuple:(fun _ _ -> ()))
  done;
  Engine.force_next_trace e;
  let tr = Engine.trace_start e "select:t1" in
  let n = ref 0 in
  let stats, _ = answer ?trace:tr (gen ()) ~on_tuple:(fun _ _ -> incr n) in
  Option.iter (Engine.trace_finish e) tr;
  Fmt.pr "@.%d tuples (%d via O2), overhead %.1f µs, exec %.1f µs@." !n
    stats.Pmv.Answer.partial_count
    (Int64.to_float stats.Pmv.Answer.overhead_ns /. 1e3)
    (Int64.to_float stats.Pmv.Answer.exec_ns /. 1e3);
  match Engine.last_trace e with
  | Some tr -> Fmt.pr "@.%a" Span.pp_trace tr
  | None -> Fmt.pr "telemetry disabled — no trace recorded@."

(* Drive queries interleaved with lineitem inserts (so maintenance,
   publishes and — with --fault — failpoint hits land in the recorder),
   then dump the flight recorder: a merged, globally-ordered event log
   whose digest depends only on what happened, not when. *)
let flight scale seed queries shards domains probe_path fault_site =
  let catalog, params, t1 = build ~scale ~seed in
  let dz = Zipf.create ~n:params.Tpcr.n_dates ~alpha:1.07 in
  let sz = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha:1.07 in
  let rng = SM.create ~seed:(seed + 1) in
  let gen () = Querygen.gen_t1 t1 ~dates_zipf:dz ~supp_zipf:sz ~e:2 ~f:2 rng in
  let lineitem i =
    [|
      Value.Int (1_000_000 + i);
      Value.Int (1 + (i mod params.Tpcr.n_suppliers));
      Value.Int 1;
      Value.Int (1 + (i mod 50));
      Value.Float 100.0;
      Value.Str "";
    |]
  in
  with_pool ~domains @@ fun par ->
  Flight.reset ();
  let arm reg =
    match fault_site with
    | None -> ()
    | Some site ->
        Fault.enable_in ~seed reg;
        Fault.arm_in reg site Fault.Once
  in
  let answer, run_dml =
    if shards <= 1 then begin
      let engine = Engine.create ~catalog () in
      Engine.set_parallel engine par;
      Engine.set_probe_path engine probe_path;
      ignore (Engine.ensure_view ~capacity:2_000 ~f_max:3 engine t1);
      arm (Engine.fault engine);
      ( (fun q ~on_tuple -> ignore (Engine.answer engine q ~on_tuple)),
        fun changes -> ignore (Engine.run engine changes) )
    end
    else begin
      let router = shard_tpcr ~shards catalog in
      Router.set_parallel router par;
      Router.set_probe_path router probe_path;
      ignore (Router.create_view ~capacity:2_000 ~f_max:3 router t1);
      List.iter (fun e -> arm (Engine.fault e)) (Router.shards router);
      ( (fun q ~on_tuple -> ignore (Router.answer router q ~on_tuple)),
        fun changes -> ignore (Router.run router changes) )
    end
  in
  let faults = ref 0 in
  for i = 1 to queries do
    answer (gen ()) ~on_tuple:(fun _ _ -> ());
    if i mod 5 = 0 then
      (* an armed maintain.apply raises here: the view missed the step
         (stale drift, the torture driver's domain) — the recorder keeps
         the Fault_hit and the workload carries on *)
      try run_dml [ Minirel_txn.Txn.Insert { rel = "lineitem"; tuple = lineitem i } ]
      with Fault.Injected _ -> incr faults
  done;
  if !faults > 0 then Fmt.pr "%d injected fault(s) hit during DML@." !faults;
  Flight.record Flight.Dump_trigger ~a:(Flight.intern "pmvctl.flight");
  let events = Flight.dump () in
  Fmt.pr "%a@." Flight.pp_dump events

(* Run SQL statements against generated TPC-R data through the shell,
   one PMV per template (per shard when sharded). Each statement runs
   twice to show the warm-cache effect. *)
let sql scale seed shards domains probe_path statements =
  if statements = [] then begin
    Fmt.epr "pass one or more SQL statements as positional arguments@.";
    exit 2
  end;
  let catalog, _params, _t1 = build ~scale ~seed in
  with_pool ~domains @@ fun par ->
  let shell =
    if shards <= 1 then begin
      let shell = Shell.create catalog in
      Engine.set_parallel (Shell.engine shell) par;
      shell
    end
    else begin
      let router = shard_tpcr ~shards catalog in
      Router.set_parallel router par;
      Shell.of_router router
    end
  in
  Shell.set_probe_path shell probe_path;
  List.iter
    (fun stmt ->
      Fmt.pr "@.sql> %s@." stmt;
      try
        Fmt.pr "%a@." Shell.pp_result (Shell.exec shell stmt);
        Fmt.pr "  (again, warm)@.";
        Fmt.pr "%a@." Shell.pp_result (Shell.exec shell stmt)
      with
      | Minirel_sql.Lexer.Error e
      | Minirel_sql.Parser.Error e
      | Minirel_sql.Binder.Error e
      | Shell.Error e ->
          Fmt.epr "  error: %s@." e
      | Invalid_argument e -> Fmt.epr "  error: %s@." e)
    statements

(* Interactive loop: full SQL statements (SELECT with GROUP BY / ORDER
   BY / LIMIT, CREATE TABLE/INDEX, INSERT, DELETE) from stdin via the
   shell, one PMV per template, with dot-commands for introspection. *)
let repl scale seed fresh persist shards domains probe_path =
  if shards > 1 && persist <> None then begin
    Fmt.epr "--persist is not supported with --shards@.";
    exit 2
  end;
  with_pool ~domains @@ fun par ->
  let of_router router =
    Router.set_parallel router par;
    Shell.of_router router
  in
  (* with --persist BASE, the catalog survives across sessions as
     BASE.snapshot + BASE.wal: load both on entry, append the wal while
     running, and fold the wal into a fresh snapshot on exit *)
  let shell =
    match persist with
    | Some base when Sys.file_exists (base ^ ".snapshot") ->
        let pool = Buffer_pool.create ~capacity:8_000 () in
        let catalog = Minirel_index.Snapshot.load ~pool ~filename:(base ^ ".snapshot") in
        let replayed =
          if Sys.file_exists (base ^ ".wal") then
            Minirel_txn.Wal.replay catalog ~filename:(base ^ ".wal")
          else 0
        in
        Fmt.pr "restored %s.snapshot (+%d logged changes)@." base replayed;
        Shell.create catalog
    | Some _ | None ->
        if fresh || persist <> None then
          if shards > 1 then
            (* empty sharded database: tables created in the repl
               replicate (declare partitioned relations through the
               library API) *)
            of_router (Router.create ~shards ())
          else Shell.create (Catalog.create (Buffer_pool.create ~capacity:4_000 ()))
        else begin
          let catalog, _params, _t1 = build ~scale ~seed in
          if shards > 1 then of_router (shard_tpcr ~shards catalog)
          else Shell.create catalog
        end
  in
  if shards <= 1 then Engine.set_parallel (Shell.engine shell) par;
  Shell.set_probe_path shell probe_path;
  let finish =
    match persist with
    | None -> fun () -> ()
    | Some base ->
        let wal = Minirel_txn.Wal.open_log ~filename:(base ^ ".wal") () in
        Minirel_txn.Wal.attach wal (Shell.txn_mgr shell);
        fun () ->
          Minirel_txn.Wal.close wal;
          Minirel_index.Snapshot.save (Shell.catalog shell) ~filename:(base ^ ".snapshot");
          (try Sys.remove (base ^ ".wal") with Sys_error _ -> ());
          Fmt.pr "saved %s.snapshot@." base
  in
  Fmt.pr
    "SQL statements (joins unparenthesised, parameterised selections in parens),@.also: \
     create table/index, insert into ... values, update ... set, delete from, select \
     distinct, group by, order by, limit, explain, trace, metrics [reset].@.dot-commands: \
     .views — PMV report   .templates — parsed templates   .metrics — telemetry   .quit@.";
  let rec loop () =
    Fmt.pr "pmv> %!";
    match input_line stdin with
    | exception End_of_file -> finish ()
    | ".quit" | ".exit" -> finish ()
    | ".views" ->
        Fmt.pr "%a@." Pmv.Manager.pp_report (Shell.manager shell);
        loop ()
    | ".templates" ->
        Fmt.pr "%d templates parsed this session@."
          (Minirel_sql.Session.n_templates (Shell.session shell));
        loop ()
    | ".metrics" ->
        Fmt.pr "%a@." Shell.pp_result (Shell.exec shell "metrics");
        loop ()
    | "" -> loop ()
    | line ->
        (try Fmt.pr "%a@." Shell.pp_result (Shell.exec shell line) with
        | Minirel_sql.Lexer.Error e
        | Minirel_sql.Parser.Error e
        | Minirel_sql.Binder.Error e
        | Shell.Error e ->
            Fmt.pr "error: %s@." e
        | Invalid_argument e | Failure e -> Fmt.pr "error: %s@." e
        | Not_found -> Fmt.pr "error: unknown relation@.");
        loop ()
  in
  loop ()

(* Replay one deterministic torture campaign (fault injection + oracle
   checking); the same seed always reproduces the same event digest. *)
let torture scale seed events check_every shards domains probe_path verbose =
  let module Torture = Minirel_check.Torture in
  let cfg =
    {
      (Torture.default_cfg ~seed) with
      Torture.events;
      scale;
      check_every;
      shards;
      domains;
      probe_path;
      log = (if verbose then Some (Fmt.pr "  %s@.") else None);
    }
  in
  Fmt.pr "torture: seed %d, %d events, scale %g%s%s%s%s@." seed events scale
    (if shards > 1 then Fmt.str ", %d shards" shards else "")
    (if shards > 1 && domains > 1 then Fmt.str ", %d domains" domains else "")
    (if probe_path = Pmv.Answer.Epoch then ", epoch probes" else "")
    (if verbose then "" else " (use --verbose for the event trace)");
  let o = if shards > 1 then Torture.run_sharded cfg else Torture.run cfg in
  Fmt.pr "%a@." Torture.pp_outcome o;
  if not (Torture.ok o) then begin
    Fmt.epr
      "reproduce with: pmvctl torture --seed %d --events %d --scale %g --shards %d \
       --domains %d --verbose@."
      seed events scale shards domains;
    exit 1
  end

open Cmdliner

let scale_arg = Arg.(value & opt float 0.01 & info [ "scale" ] ~docv:"S" ~doc:"TPC-R scale.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Hash-partition the database across N engine shards (1 = single engine).")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run with a pool of N worker domains: sharded queries fan out in parallel and \
           O3 scans/joins run morsel-parallel (1 = sequential).")

(* --probe-path=locked|epoch, parsed through Answer.probe_path_of_string
   so the CLI and the library agree on the spelling. *)
let probe_path_arg =
  let path = Arg.enum [ ("locked", Pmv.Answer.Locked); ("epoch", Pmv.Answer.Epoch) ] in
  Arg.(
    value
    & opt path Pmv.Answer.Locked
    & info [ "probe-path" ] ~docv:"PATH"
        ~doc:
          "Query read path: $(b,locked) answers under the Section 3.6 S/X protocol, \
           $(b,epoch) takes no lock and serves complete cached answers through the \
           epoch-versioned probe fast path.")

(* --policy accepts exactly the names of Policies.all; anything else is a
   usage error listing the valid names. *)
let policy_arg =
  let module P = Minirel_cache.Policies in
  let policy = Arg.enum (List.map (fun p -> (P.to_string p, p)) P.all) in
  Arg.(value & opt policy P.Clock & info [ "policy" ] ~docv:"P" ~doc:"Replacement policy.")

let demo_cmd =
  let queries = Arg.(value & opt int 500 & info [ "queries" ] ~docv:"N") in
  let f_max = Arg.(value & opt int 3 & info [ "f" ] ~docv:"F") in
  let capacity = Arg.(value & opt int 2_000 & info [ "capacity" ] ~docv:"L") in
  Cmd.v
    (Cmd.info "demo" ~doc:"Stream a Zipfian T1 workload through a PMV")
    Term.(const demo $ scale_arg $ seed_arg $ queries $ policy_arg $ f_max $ capacity)

let query_cmd =
  let dates = Arg.(value & opt string "1,2" & info [ "dates" ] ~docv:"D1,D2,...") in
  let suppliers = Arg.(value & opt string "1" & info [ "suppliers" ] ~docv:"S1,S2,...") in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer one T1 query twice, cold then hot")
    Term.(const query $ scale_arg $ seed_arg $ dates $ suppliers)

let simulate_cmd =
  let alpha = Arg.(value & opt float 1.07 & info [ "alpha" ] ~docv:"A") in
  let h = Arg.(value & opt int 2 & info [ "h" ] ~docv:"H") in
  let n = Arg.(value & opt int 2_000 & info [ "n" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"One hit-probability simulation cell (Section 4.1)")
    Term.(const simulate $ alpha $ h $ n $ policy_arg)

let sql_cmd =
  let statements =
    Arg.(value & pos_all string [] & info [] ~docv:"SQL" ~doc:"SQL statements to run.")
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Run SQL statements over TPC-R data, one PMV per template (e.g. \"select \
          o.orderkey, l.quantity from orders o, lineitem l where o.orderkey = l.orderkey \
          and (o.orderdate = 3) and (l.suppkey = 2)\")")
    Term.(
      const sql $ scale_arg $ seed_arg $ shards_arg $ domains_arg $ probe_path_arg
      $ statements)

let trace_sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Trace 1 in N queries (stratified: exactly one per window of N, which query \
           being a pure function of the seed). 1 traces every query. Also settable via \
           \\$(b,PMV_TRACE_SAMPLE).")

let trace_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-seed" ] ~docv:"S"
        ~doc:
          "Seed of the sampling stream: the same seed reproduces the same sampled span \
           set. Also settable via \\$(b,PMV_TRACE_SEED).")

let trace_cmd =
  let queries = Arg.(value & opt int 10 & info [ "queries" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Answer a short T1 workload and print the last query's stitched span tree — one \
          tree per query even across the sharded parallel fan-out, with per-shard \
          subtrees annotated shard/domain/worker and probe-path attribution")
    Term.(
      const trace $ scale_arg $ seed_arg $ queries $ shards_arg $ domains_arg
      $ probe_path_arg $ trace_sample_arg $ trace_seed_arg)

let flight_cmd =
  let queries = Arg.(value & opt int 50 & info [ "queries" ] ~docv:"N") in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SITE"
          ~doc:
            "Arm the failpoint SITE (e.g. $(b,maintain.apply), $(b,lockmgr.acquire)) to \
             fire once, so the hit and its fallout land in the recorder.")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Drive a query+DML workload (optionally with a forced fault) and dump the \
          flight recorder: a merged, time-ordered low-level event log with a \
          reproducible digest")
    Term.(
      const flight $ scale_arg $ seed_arg $ queries $ shards_arg $ domains_arg
      $ probe_path_arg $ fault)

let metrics_cmd =
  let queries = Arg.(value & opt int 200 & info [ "queries" ] ~docv:"N") in
  let format =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, prom, or json.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a short T1 workload and dump the telemetry snapshot")
    Term.(
      const metrics $ scale_arg $ seed_arg $ queries $ format $ shards_arg
      $ domains_arg $ probe_path_arg)

let repl_cmd =
  let fresh =
    Arg.(value & flag & info [ "fresh" ] ~doc:"Start with an empty catalog (use CREATE TABLE).")
  in
  let persist =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"BASE"
          ~doc:"Persist the catalog across sessions as BASE.snapshot + BASE.wal.")
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive SQL over TPC-R data with per-template PMVs")
    Term.(
      const repl $ scale_arg $ seed_arg $ fresh $ persist $ shards_arg $ domains_arg
      $ probe_path_arg)

let torture_cmd =
  let events = Arg.(value & opt int 400 & info [ "events" ] ~docv:"N" ~doc:"Workload events.") in
  let check_every =
    Arg.(value & opt int 40 & info [ "check-every" ] ~docv:"K" ~doc:"Deep-check cadence.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the event trace.") in
  let scale =
    Arg.(value & opt float 0.002 & info [ "scale" ] ~docv:"S" ~doc:"TPC-R scale.")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Replay a seeded fault-injection campaign (WAL crashes + recovery, lock \
          conflicts, I/O errors, deferred/lost maintenance) with every query \
          oracle-checked; exits non-zero on any consistency violation")
    Term.(
      const torture $ scale $ seed_arg $ events $ check_every $ shards_arg $ domains_arg
      $ probe_path_arg $ verbose)

let () =
  let doc = "partial materialized views demonstration tool" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pmvctl" ~doc)
          [
            demo_cmd;
            query_cmd;
            simulate_cmd;
            sql_cmd;
            metrics_cmd;
            trace_cmd;
            flight_cmd;
            repl_cmd;
            torture_cmd;
          ]))
