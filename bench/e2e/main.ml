(* End-to-end benchmark: five seeded workloads, each measured from the
   outside of the PMV system, with per-layer attribution from a second,
   traced run. See README.md in this directory.

   Usage:
     main.exe one --workload W [--seed N] [--seconds S] [--trace 0|1]
                                   one workload in this process; prints
                                   the result as the last stdout line
     main.exe run [--seed N] [--out DIR]
                                   every workload in a fresh process,
                                   untraced then traced, cross-checked
     main.exe compare A B          verdicts between two result sets
     main.exe quick                the smoke test `dune runtest` runs *)

module W = Workload
module Pool = Minirel_parallel.Pool

let word_bytes = Sys.word_size / 8

(* Every byte the system under test holds, caches and data alike;
   differences of it isolate what the warm-up added. *)
let live_bytes (sut : Sut.t) = Obj.reachable_words (Obj.repr sut.Sut.backend) * word_bytes

let with_pool (w : W.t) f =
  match w.W.target with
  | W.Engine -> f None
  | W.Router ->
      let pool = Pool.create ~domains:(Sut.pool_workers ()) in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))

(* Set up [setups] times (data generation, load, DDL, warm-up), time
   each, keep the last; then the timed phase, the counters around it,
   and the oracle. *)
let execute (w : W.t) ~seed ~seconds ~traced ~setups ~pool ~trace_file =
  let tpls = W.compile_templates () in
  let warm, stream = W.streams w ~seed ~tpls in
  let setup () =
    Gc.full_major ();
    let t0 = Sut.now_ns () in
    let sut = Sut.create w ~tpls ~pool ~traced in
    let t1 = Sut.now_ns () in
    let live0 = live_bytes sut in
    let t2 = Sut.now_ns () in
    ignore (Measure.run sut warm ~stop:(Measure.Ops (Array.length warm)) ());
    let t3 = Sut.now_ns () in
    (sut, float_of_int (t1 - t0 + (t3 - t2)) /. 1e9, live0)
  in
  let rec setups_loop k times =
    let sut, s, live0 = setup () in
    if k <= 1 then (sut, List.rev (s :: times), live0)
    else begin
      Sut.shutdown sut;
      setups_loop (k - 1) (s :: times)
    end
  in
  let sut, setup_runs_s, live0 = setups_loop setups [] in
  (* Both memory metrics close the set-up, a fixed amount of work: the
     timed phase's allocation grows with throughput, and OCaml 5.1's
     top heap with it. *)
  let heap_peak_bytes = (Gc.quick_stat ()).Gc.top_heap_words * word_bytes in
  let cache_live_bytes = live_bytes sut - live0 in
  let before = if traced then Some (Layers.snapshot sut pool) else None in
  let start = Sut.now_ns () in
  let spans =
    if traced then Some (Spans.create ~stream_len:(Array.length stream) ~origin:start) else None
  in
  let stop =
    match seconds with
    | Some s -> Measure.Deadline (start + (s * 1_000_000_000))
    | None -> Measure.Ops (Array.length stream)
  in
  let m = Measure.run sut stream ~stop ?spans () in
  let layers = Option.map (fun b -> (b, Layers.snapshot sut pool)) before in
  let resident_bytes = Layers.resident_bytes sut in
  let probe_store_bytes = Layers.probe_store_bytes sut in
  let span_cost_ns = if traced then Spans.calibrate () else 0.0 in
  let oracle = Oracle.run sut ~seed in
  (match (spans, trace_file) with
  | Some sp, Some file -> Spans.write_chrome sp ~file ~workload:w.W.name
  | _ -> ());
  Sut.shutdown sut;
  {
    Report.w;
    seed;
    traced;
    stop;
    setup_runs_s;
    cache_live_bytes;
    heap_peak_bytes;
    m;
    summary = Measure.summarize m;
    layers;
    resident_bytes;
    probe_store_bytes;
    span_cost_ns;
    spans_recorded = (match spans with Some sp -> sp.Spans.recorded | None -> 0);
    oracle;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* [<out>/<workload>-s<seed>[-traced]-r<k>], k the first free index. *)
let fresh_base ~out ~(w : W.t) ~seed ~traced =
  mkdir_p out;
  let stem = Printf.sprintf "%s-s%d%s-r" w.W.name seed (if traced then "-traced" else "") in
  let rec go k =
    let base = Filename.concat out (stem ^ string_of_int k) in
    if Sys.file_exists (base ^ ".json") then go (k + 1) else base
  in
  go 1

(* setup_s is the median of this many set-ups. *)
let setups = 3

let one w seed seconds traced out result =
  let base =
    match result with
    | Some file -> Filename.remove_extension file
    | None -> fresh_base ~out ~w ~seed ~traced
  in
  mkdir_p (Filename.dirname base);
  let r =
    with_pool w (fun pool ->
        execute w ~seed ~seconds ~traced ~setups ~pool
          ~trace_file:(if traced then Some (base ^ ".trace.json") else None))
  in
  Json.write_file (base ^ ".json") (Report.result_json r);
  Report.print_human Fmt.stderr r;
  print_endline (Report.result_line r);
  0

(* --- run: every workload, fresh processes, cross-checked ---------------- *)

let spawn args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let num j k = Option.bind (Json.member k j) Json.to_num |> Option.value ~default:nan

let run_all seed out =
  mkdir_p out;
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let results =
    List.map
      (fun (w : W.t) ->
        let get traced =
          let base = fresh_base ~out ~w ~seed ~traced in
          let ok =
            spawn
              [ "one"; "--workload"; w.W.name; "--seed"; string_of_int seed; "--trace";
                (if traced then "1" else "0"); "--result"; base ^ ".json" ]
          in
          if ok then Some (Json.read_file (base ^ ".json"))
          else begin
            problem "%s: the %s run failed" w.W.name (if traced then "traced" else "untraced");
            None
          end
        in
        let plain = get false in
        let traced = get true in
        (w, plain, traced))
      W.all
  in
  let field j k = Option.value (Json.member k j) ~default:Json.Null in
  List.iter
    (fun ((w : W.t), plain, traced) ->
      match (plain, traced) with
      | Some p, Some t ->
          List.iter
            (fun (label, j) ->
              if field j "correct" <> Json.Bool true then
                problem "%s (%s): incorrect" w.W.name label)
            [ ("untraced", p); ("traced", t) ];
          List.iter
            (fun k ->
              if field p k <> field t k then
                problem "%s: %s differs between the untraced and traced runs" w.W.name k)
            [ "checksum"; "rows"; "ops" ];
          let e2e = field p "metrics" in
          Fmt.pr "@.%s (%s)@." w.W.name w.W.why;
          List.iter
            (fun (e : Report.e2e) ->
              Fmt.pr "  %-22s %14.4f %s@." e.Report.name
                (num (field e2e e.Report.name) "value")
                e.Report.unit)
            Report.end_to_end;
          let rate j = num (field (field j "metrics") "ops_per_s") "value" in
          Fmt.pr "  tracing costs %.1f%% of throughput (traced vs untraced run)@."
            (100.0 *. (1.0 -. (rate t /. rate p)))
      | _ -> ())
    results;
  let checksum name =
    List.find_map
      (fun ((w : W.t), p, _) ->
        if w.W.name = name then Option.map (fun p -> field p "checksum") p else None)
      results
  in
  List.iter
    (fun (a, b) ->
      match (checksum a, checksum b) with
      | Some x, Some y when x <> y -> problem "%s and %s disagree on the result checksum" a b
      | _ -> ())
    [ ("hot_probe", "hot_probe_engine"); ("churn_router4", "churn_engine") ];
  match List.rev !problems with
  | [] ->
      Fmt.pr "@.all workloads correct; results in %s@." out;
      0
  | ps ->
      List.iter (Fmt.pr "FAIL %s@.") ps;
      1

(* --- quick: the smoke test ---------------------------------------------- *)

let quick benchmark =
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let j = Json.read_file benchmark in
  let list k = Json.to_list (Option.value (Json.member k j) ~default:(Json.Arr [])) in
  let str o k = Option.bind (Json.member k o) Json.to_str |> Option.value ~default:"" in
  let expect_names label defined listed =
    if defined <> listed then
      problem "%s metrics in %s do not match the program's: [%s] vs [%s]" label benchmark
        (String.concat "; " (List.map (fun (n, u) -> n ^ " " ^ u) listed))
        (String.concat "; " (List.map (fun (n, u) -> n ^ " " ^ u) defined))
  in
  expect_names "end_to_end"
    (List.map (fun (e : Report.e2e) -> (e.Report.name, e.Report.unit)) Report.end_to_end)
    (List.map (fun o -> (str o "name", str o "unit")) (list "end_to_end"));
  List.iter
    (fun (e : Report.e2e) ->
      match List.find_opt (fun o -> str o "name" = e.Report.name) (list "end_to_end") with
      | Some o ->
          if
            str o "better" <> Report.better_to_string e.Report.better
            || num o "bound" <> e.Report.bound
          then problem "%s: direction or bound differs from %s" e.Report.name benchmark
      | None -> ())
    Report.end_to_end;
  expect_names "per_layer" Report.per_layer_units
    (List.map (fun o -> (str o "name", str o "unit")) (list "per_layer"));
  if List.map (fun o -> str o "name") (list "workloads") <> List.map (fun w -> w.W.name) W.all then
    problem "workloads in %s do not match the program's" benchmark;
  let checksums =
    List.map
      (fun w ->
        let w = W.quick w in
        let go traced =
          with_pool w (fun pool ->
              execute w ~seed:42 ~seconds:None ~traced ~setups:1 ~pool ~trace_file:None)
        in
        let a = go false and b = go true in
        List.iter
          (fun (r : Report.run) ->
            if not (Report.correct r) then
              problem "%s%s: %d failed: %s" w.W.name (if r.Report.traced then " traced" else "")
                (Report.failed r) (String.concat "; " r.Report.oracle.Oracle.failures);
            match Json.parse (Report.result_line r) with
            | Json.Obj kvs ->
                if List.map fst kvs <> [ "correct"; "attempted"; "failed"; "metrics" ] then
                  problem "%s: malformed result line" w.W.name
            | _ -> problem "%s: malformed result line" w.W.name)
          [ a; b ];
        let same f = f a.Report.m = f b.Report.m in
        if
          not
            (same (fun m -> m.Measure.checksum)
            && same (fun m -> m.Measure.rows)
            && same (fun m -> m.Measure.ops))
        then problem "%s: untraced and traced runs of one seed disagree" w.W.name;
        Fmt.pr "%-17s %6d ops  checksum %d  oracle checked %d@." w.W.name a.Report.m.Measure.ops
          a.Report.m.Measure.checksum a.Report.oracle.Oracle.checked;
        (w.W.name, a.Report.m.Measure.checksum))
      W.all
  in
  List.iter
    (fun (x, y) ->
      if List.assoc x checksums <> List.assoc y checksums then
        problem "%s and %s disagree on the result checksum" x y)
    [ ("hot_probe", "hot_probe_engine"); ("churn_router4", "churn_engine") ];
  match List.rev !problems with
  | [] -> 0
  | ps ->
      List.iter (Fmt.epr "FAIL %s@.") ps;
      1

(* --- command line ------------------------------------------------------- *)

open Cmdliner

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Seed of the op streams; the data is fixed.")

let out =
  Arg.(value & opt string (Filename.concat "_build" "e2e") & info [ "out" ] ~docv:"DIR"
         ~doc:"Directory for result files and traces.")

let benchmark =
  Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE"
         ~doc:"The benchmark definition: metric names, units and bounds.")

let one_cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun w -> (w.W.name, w)) W.all))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seconds =
    Arg.(value & opt (some int) None & info [ "seconds" ] ~docv:"S"
           ~doc:"Time the stream for S seconds, wrapping around it; default: run it once.")
  in
  let traced =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: the traced run, which reports the per-layer metrics.")
  in
  let result =
    Arg.(value & opt (some string) None & info [ "result" ] ~docv:"FILE" ~doc:"Result file path.")
  in
  Cmd.v (Cmd.info "one" ~doc:"Run one workload and print its result as the last line.")
    Term.(const one $ workload $ seed $ seconds $ traced $ out $ result)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run every workload, untraced then traced, each in a fresh process.")
    Term.(const run_all $ seed $ out)

let compare_cmd =
  let dir n = Arg.(required & pos n (some dir) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two result sets metric by metric.")
    Term.(const Compare.run $ benchmark $ dir 0 $ dir 1)

let quick_cmd =
  Cmd.v (Cmd.info "quick" ~doc:"Smoke test: every workload at 1/100 size, checked.")
    Term.(const quick $ benchmark)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "e2e" ~doc:"End-to-end PMV benchmark")
          [ one_cmd; run_cmd; compare_cmd; quick_cmd ]))
