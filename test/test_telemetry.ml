(* The telemetry subsystem: log-bucketed histograms, the metrics
   registry (get-or-create, source registration, reset semantics), span
   trees, the shell's METRICS statement over a real T1/T2 mix, and exact
   counts when several domains record at once. *)

open Minirel_telemetry
module Shell = Minirel_shell.Shell

let check = Alcotest.check

(* substring containment, for asserting over rendered reports *)
let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- histograms --- *)

let test_bucket_boundaries () =
  check Alcotest.int "0 -> bucket 0" 0 (Histogram.bucket_of_ns 0L);
  check Alcotest.int "1 -> bucket 0" 0 (Histogram.bucket_of_ns 1L);
  check Alcotest.int "negative -> bucket 0" 0 (Histogram.bucket_of_ns (-5L));
  (* each power of two opens its own bucket; the predecessor closes it *)
  for i = 1 to 40 do
    let lo = Int64.shift_left 1L i in
    check Alcotest.int (Fmt.str "2^%d" i) i (Histogram.bucket_of_ns lo);
    check Alcotest.int (Fmt.str "2^%d - 1" i) (i - 1)
      (Histogram.bucket_of_ns (Int64.sub lo 1L));
    check Alcotest.bool
      (Fmt.str "upper bound of bucket %d" (i - 1))
      true
      (Histogram.bucket_upper_ns (i - 1) = Int64.sub lo 1L)
  done;
  check Alcotest.int "max_int lands in the last bucket" (Histogram.n_buckets - 1)
    (Histogram.bucket_of_ns Int64.max_int)

(* reference quantile: the bucket upper bound of the rank-ceil(p*n)
   sample in a plain sort *)
let reference_quantile samples p =
  let sorted = List.sort Int64.compare (List.map (Int64.max 0L) samples) in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  let v = List.nth sorted (min (n - 1) (rank - 1)) in
  Histogram.bucket_upper_ns (Histogram.bucket_of_ns v)

let test_quantiles_vs_sort () =
  let samples = [ 3L; 17L; 1_000L; 1_024L; 1_025L; 90_000L; 5L; 64L; 63L; 2L ] in
  let h = Histogram.create () in
  List.iter (Histogram.record h) samples;
  check Alcotest.int "count" (List.length samples) (Histogram.count h);
  List.iter
    (fun p ->
      check
        (Alcotest.testable (fun ppf -> Fmt.pf ppf "%Ld") Int64.equal)
        (Fmt.str "p%.0f" (p *. 100.0))
        (reference_quantile samples p) (Histogram.quantile h p))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ];
  Histogram.reset h;
  check Alcotest.int "reset empties" 0 (Histogram.count h);
  check Alcotest.bool "reset zeroes quantiles" true (Histogram.quantile h 0.5 = 0L)

let prop_quantile_matches_reference =
  QCheck2.Test.make ~name:"histogram quantile = reference sort at bucket granularity"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (map Int64.of_int (int_range 0 10_000_000)))
        (map (fun i -> float_of_int i /. 100.0) (int_range 1 100)))
    (fun (samples, p) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      Histogram.quantile h p = reference_quantile samples p)

(* --- registry --- *)

let test_registry_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "a.count" in
  Registry.incr c;
  Registry.add c 4;
  check Alcotest.int "counter accumulates" 5 (Registry.counter_value c);
  (* get-or-create: same name, same cell *)
  Registry.incr (Registry.counter r "a.count");
  check Alcotest.int "same handle" 6 (Registry.counter_value c);
  let h = Registry.histogram r "a.lat_ns" in
  Histogram.record h 100L;
  (* cross-kind name collisions are bugs, loudly *)
  (try
     ignore (Registry.histogram r "a.count");
     Alcotest.fail "histogram under a counter name must raise"
   with Invalid_argument _ -> ());
  (try
     ignore (Registry.counter r "a.lat_ns");
     Alcotest.fail "counter under a histogram name must raise"
   with Invalid_argument _ -> ());
  Registry.register_gauge r "a.level" (fun () -> 3.5);
  let snap = Registry.snapshot r in
  (match Registry.find snap "a.level" with
  | Some (Registry.Gauge g) -> check (Alcotest.float 0.0) "gauge read" 3.5 g
  | _ -> Alcotest.fail "gauge missing");
  match Registry.find snap "a.lat_ns" with
  | Some (Registry.Histogram s) -> check Alcotest.int "histogram in snapshot" 1 s.Histogram.count
  | _ -> Alcotest.fail "histogram missing"

let test_registry_sources_and_reset () =
  let r = Registry.create () in
  let c = Registry.counter r "own.count" in
  Registry.incr c;
  let backing = ref 7 in
  Registry.register_source r ~name:"src"
    ~reset:(fun () -> backing := 0)
    (fun () -> [ ("v", Registry.Counter !backing) ]);
  (* replace-on-collision: the latest instance wins, no duplicates *)
  let backing2 = ref 40 in
  Registry.register_source r ~name:"src"
    ~reset:(fun () -> backing2 := 0)
    (fun () -> [ ("v", Registry.Counter !backing2) ]);
  check (Alcotest.list Alcotest.string) "one source" [ "src" ] (Registry.source_names r);
  (match Registry.find (Registry.snapshot r) "src.v" with
  | Some (Registry.Counter 40) -> ()
  | _ -> Alcotest.fail "replacement source must serve the snapshot");
  Registry.reset r;
  check Alcotest.int "reset zeroes own counters" 0 (Registry.counter_value c);
  check Alcotest.int "reset reaches replacement source" 0 !backing2;
  check Alcotest.int "reset skips the replaced source" 7 !backing;
  (* registrations survive reset *)
  check (Alcotest.list Alcotest.string) "source still there" [ "src" ]
    (Registry.source_names r);
  Registry.unregister_source r ~name:"src";
  check (Alcotest.list Alcotest.string) "unregistered" [] (Registry.source_names r)

(* --- spans --- *)

let test_span_tree () =
  let tr = Span.start "root" in
  Span.enter tr "a";
  Span.enter tr "a1";
  Span.kv tr "k" "v";
  Span.leave tr;
  Span.leave tr;
  Span.enter tr "b";
  Span.leave tr;
  Span.leaf tr "pre-timed" 1_000L;
  Span.finish tr;
  let root = Span.root tr in
  check (Alcotest.list Alcotest.string) "children in order" [ "a"; "b"; "pre-timed" ]
    (List.map (fun (s : Span.t) -> s.Span.name) (Span.children root));
  let a = List.hd (Span.children root) in
  check (Alcotest.list Alcotest.string) "nesting" [ "a1" ]
    (List.map (fun (s : Span.t) -> s.Span.name) (Span.children a));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "kv lands on the open span" [ ("k", "v") ]
    (List.hd (Span.children a)).Span.kvs;
  (* exclusive = inclusive - sum of children, for every node *)
  let rec walk s =
    let child_sum =
      List.fold_left (fun acc c -> Int64.add acc (Span.inclusive_ns c)) 0L (Span.children s)
    in
    check Alcotest.bool
      (Fmt.str "exclusive arithmetic at %s" s.Span.name)
      true
      (Span.exclusive_ns s = Int64.max 0L (Int64.sub (Span.inclusive_ns s) child_sum));
    List.iter walk (Span.children s)
  in
  walk root;
  (* a second finish is a no-op *)
  let stop = root.Span.stop_ns in
  Span.finish tr;
  check Alcotest.bool "finish idempotent" true (root.Span.stop_ns = stop)

let prop_span_durations =
  QCheck2.Test.make
    ~name:"span durations non-negative, children sum <= parent inclusive" ~count:150
    (* a random walk of enter/leave ops plus some busy work per step *)
    QCheck2.Gen.(list_size (int_range 0 60) (pair bool (int_range 0 30)))
    (fun ops ->
      let tr = Span.start "root" in
      let depth = ref 0 in
      List.iter
        (fun (enter, spin) ->
          ignore (Sys.opaque_identity (Array.init (spin * 8) (fun i -> i * i)));
          if enter then begin
            Span.enter tr (Fmt.str "s%d" !depth);
            incr depth
          end
          else if !depth > 0 then begin
            Span.leave tr;
            decr depth
          end)
        ops;
      Span.finish tr;
      let ok = ref true in
      let rec walk s =
        let incl = Span.inclusive_ns s in
        let excl = Span.exclusive_ns s in
        let child_sum =
          List.fold_left
            (fun acc c -> Int64.add acc (Span.inclusive_ns c))
            0L (Span.children s)
        in
        if incl < 0L || excl < 0L || Int64.compare child_sum incl > 0 then ok := false;
        List.iter walk (Span.children s)
      in
      walk (Span.root tr);
      !ok)

let test_tracer_sampling () =
  let tr = Tracer.create ~sample_every:4 ~keep:2 () in
  let recorded = ref 0 in
  for _ = 1 to 16 do
    match Tracer.start tr "q" with
    | Some t ->
        incr recorded;
        Tracer.finish tr t
    | None -> ()
  done;
  check Alcotest.int "1-in-4 sampling" 4 !recorded;
  check Alcotest.int "ring keeps at most 2" 2 (List.length (Tracer.recent tr));
  Tracer.force_next tr;
  (match Tracer.start tr "forced" with
  | Some t -> Tracer.finish tr t
  | None -> Alcotest.fail "force_next must bypass sampling");
  match Tracer.last tr with
  | Some t -> check Alcotest.string "forced trace retained" "forced" (Span.root t).Span.name
  | None -> Alcotest.fail "no last trace"

(* --- the whole engine through the shell --- *)

let build_shell () =
  let shell = Shell.create (Helpers.fresh_catalog ()) in
  let run sql =
    match Shell.exec shell sql with
    | r -> r
    | exception e -> Alcotest.failf "statement failed: %s (%s)" sql (Printexc.to_string e)
  in
  ignore (run "create table items (ik int, category int, price float, label string)");
  ignore (run "create table stock (ik int, store int, qty int)");
  ignore (run "create index items_ik on items (ik)");
  ignore (run "create index items_category on items (category)");
  ignore (run "create index stock_ik on stock (ik)");
  ignore (run "create index stock_store on stock (store)");
  for ik = 1 to 40 do
    ignore
      (run
         (Fmt.str "insert into items values (%d, %d, %d.5, 'item %d')" ik (ik mod 5)
            (ik * 10) ik));
    ignore (run (Fmt.str "insert into stock values (%d, %d, %d)" ik (ik mod 4) (ik mod 7)))
  done;
  (shell, run)

let counter_of snap name =
  match Registry.find snap name with
  | Some (Registry.Counter n) -> n
  | _ -> Alcotest.failf "counter %s missing from snapshot" name

let test_shell_metrics () =
  Telemetry.reset ();
  let _shell, run = build_shell () in
  (* a T1/T2-shaped mix, twice each so the second round probes hot *)
  let q1 = "select i.label, s.qty from items i, stock s where i.ik = s.ik and (i.category = 2) and (s.store = 1)" in
  let q2 = "select i.label from items i where (i.category = 1)" in
  List.iter (fun q -> ignore (run q)) [ q1; q2; q1; q2; q1 ];
  let snap = Telemetry.snapshot () in
  check Alcotest.bool "answer.queries counted" true (counter_of snap "answer.queries" >= 5);
  check Alcotest.bool "O2 probes hit" true (counter_of snap "answer.probe_hits" > 0);
  check Alcotest.bool "partials served" true (counter_of snap "answer.partial_tuples" > 0);
  check Alcotest.bool "locks taken" true (counter_of snap "lockmgr.acquires" > 0);
  (match Registry.find snap "answer.ttft_ns" with
  | Some (Registry.Histogram s) ->
      check Alcotest.bool "ttft sampled" true (s.Histogram.count >= 1)
  | _ -> Alcotest.fail "answer.ttft_ns missing");
  (* METRICS renders the same snapshot *)
  (match run "metrics" with
  | Shell.Metrics text ->
      check Alcotest.bool "METRICS shows probe hits" true
        (contains ~affix:"answer.probe_hits" text)
  | _ -> Alcotest.fail "METRICS result expected");
  (* METRICS RESET zeroes counters but keeps every registration *)
  let sources_before = Registry.source_names Registry.default in
  (match run "metrics reset" with Shell.Metrics _ -> () | _ -> Alcotest.fail "reset result");
  let snap = Telemetry.snapshot () in
  check Alcotest.int "counters zeroed" 0 (counter_of snap "answer.queries");
  check Alcotest.int "source counters zeroed" 0 (counter_of snap "lockmgr.acquires");
  check (Alcotest.list Alcotest.string) "registrations survive" sources_before
    (Registry.source_names Registry.default);
  (* and the engine keeps counting after the reset *)
  ignore (run q1);
  check Alcotest.int "counting resumes" 1
    (counter_of (Telemetry.snapshot ()) "answer.queries")

let test_trace_spans () =
  Telemetry.reset ();
  let _shell, run = build_shell () in
  let q = "select i.label, s.qty from items i, stock s where i.ik = s.ik and (i.category = 3) and (s.store = 2)" in
  ignore (run q);
  match run ("trace " ^ q) with
  | Shell.Traced text ->
      List.iter
        (fun affix ->
          check Alcotest.bool (Fmt.str "trace mentions %s" affix) true
            (contains ~affix text))
        [ "answer:"; "o1.decompose"; "o2.probe"; "o3.execute"; "lock.acquire" ]
  | _ -> Alcotest.fail "Traced result expected"

let test_disabled_mode () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled true) @@ fun () ->
  let _shell, run = build_shell () in
  ignore (run "select i.label from items i where (i.category = 1)");
  let snap = Telemetry.snapshot () in
  check Alcotest.int "no queries recorded while disabled" 0
    (counter_of snap "answer.queries");
  check Alcotest.bool "no trace recorded while disabled" true
    (Telemetry.last_trace () = None)

(* --- domain safety: concurrent clients share counters and histograms --- *)

let test_contention () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hammered" in
  let h = Registry.histogram reg "latency" in
  let per_domain = 20_000 in
  List.init 4 (fun k ->
      Domain.spawn (fun () ->
          for i = 1 to per_domain do
            Registry.incr c;
            if i mod 100 = 0 then Registry.add c 2;
            Histogram.record h (Int64.of_int ((k * per_domain) + i));
            if i mod 1_000 = 0 then ignore (Histogram.quantile h 0.5)
          done))
  |> List.iter Domain.join;
  check Alcotest.int "counter exact" (4 * (per_domain + (per_domain / 100 * 2)))
    (Registry.counter_value c);
  check Alcotest.int "histogram count exact" (4 * per_domain) (Histogram.count h)

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "histogram quantiles vs reference sort" `Quick test_quantiles_vs_sort;
    QCheck_alcotest.to_alcotest prop_quantile_matches_reference;
    Alcotest.test_case "registry get-or-create + collisions" `Quick test_registry_basics;
    Alcotest.test_case "registry sources + reset semantics" `Quick
      test_registry_sources_and_reset;
    Alcotest.test_case "span tree nesting + exclusive times" `Quick test_span_tree;
    QCheck_alcotest.to_alcotest prop_span_durations;
    Alcotest.test_case "tracer sampling + force + ring" `Quick test_tracer_sampling;
    Alcotest.test_case "shell METRICS + METRICS RESET" `Quick test_shell_metrics;
    Alcotest.test_case "TRACE prints the span tree" `Quick test_trace_spans;
    Alcotest.test_case "disabled mode records nothing" `Quick test_disabled_mode;
    Alcotest.test_case "telemetry exact under contention" `Quick test_contention;
  ]
