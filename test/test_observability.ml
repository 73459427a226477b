(* End-to-end observability: the cross-shard span tree, the
   hires histogram error/merge contracts behind the SLO watchdog, the
   flight recorder's ordering and digest guarantees, breach capture
   with automatic snapshots, and reproducible stratified sampling. *)

open Minirel_storage
open Minirel_telemetry
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Check = Minirel_check.Check
module Template = Minirel_query.Template

let check = Alcotest.check

(* 4 shards over the r/s fixture, co-partitioned on the join key (the
   test_shard fixture, rebuilt here so this suite stands alone). *)
let make_router ~shards =
  let reference = Helpers.fresh_catalog () in
  Helpers.build_rs reference;
  let router = Router.create ~shards () in
  Router.declare router Helpers.r_schema ~part:(`Hash "c");
  Router.declare router Helpers.s_schema ~part:(`Hash "d");
  Router.load_from router reference;
  let compiled = Template.compile reference Helpers.eqt_spec in
  ignore (Router.create_view ~capacity:64 router compiled);
  (reference, router, compiled)

let inst c ~fs ~gs =
  let dvs l =
    Minirel_query.Instance.Dvalues (List.map (fun i -> Value.Int i) (List.sort_uniq compare l))
  in
  Minirel_query.Instance.make c [| dvs fs; dvs gs |]

let collect router ?trace q =
  let out = ref [] in
  ignore (Router.answer ?trace router q ~on_tuple:(fun _ t -> out := t :: !out));
  List.sort Tuple.compare !out

(* --- one span tree per query, one subtree per shard ------------------ *)

let test_stitched_tree_4_shards () =
  let reference, router, compiled = make_router ~shards:4 in
  let tname = compiled.Template.spec.Template.name in
  Fun.protect ~finally:(fun () -> Router.shutdown router) @@ fun () ->
  (* f/g constraints leave the partition key unconstrained: all four
     shards are targeted *)
  let q = inst compiled ~fs:[ 0; 1; 2; 3 ] ~gs:[ 0; 1; 2; 3 ] in
  let trace = Span.start ("select:" ^ tname) in
  let traced = collect router ~trace q in
  Span.finish trace;
  (* tuple-identical to the untraced run and to ground truth *)
  let untraced = collect router q in
  let truth = List.sort Tuple.compare (Check.ground_truth reference q) in
  check Alcotest.bool "result not empty" true (truth <> []);
  check Alcotest.bool "traced == untraced" true (List.equal Tuple.equal traced untraced);
  check Alcotest.bool "traced == ground truth" true (List.equal Tuple.equal traced truth);
  (* one tree: the root carries the probe path, and exactly one child
     per shard, in shard order *)
  let root = Span.root trace in
  check Alcotest.string "root name" ("select:" ^ tname) root.Span.name;
  check (Alcotest.option Alcotest.string) "root records probe path" (Some "locked")
    (Span.find_kv root "probe_path");
  let shard_spans =
    List.filter
      (fun (s : Span.t) -> String.length s.Span.name > 5 && String.sub s.Span.name 0 5 = "shard")
      (Span.children root)
  in
  check (Alcotest.list Alcotest.string) "one subtree per shard, shard order"
    [ "shard0"; "shard1"; "shard2"; "shard3" ]
    (List.map (fun (s : Span.t) -> s.Span.name) shard_spans);
  List.iteri
    (fun i (s : Span.t) ->
      (* leaf attribution: shard id and the probe path the engine
         actually took *)
      check (Alcotest.option Alcotest.string)
        (Fmt.str "shard%d labels itself" i)
        (Some (string_of_int i)) (Span.find_kv s "shard");
      match Span.find s ("answer:" ^ tname) with
      | None -> Alcotest.failf "shard%d subtree lost the answer span" i
      | Some a ->
          check (Alcotest.option Alcotest.string)
            (Fmt.str "shard%d answer path" i)
            (Some "locked") (Span.find_kv a "path"))
    shard_spans

let test_router_cache_trace_branches () =
  let _, router, compiled = make_router ~shards:2 in
  Fun.protect ~finally:(fun () -> Router.shutdown router) @@ fun () ->
  Router.set_probe_path router Pmv.Answer.Epoch;
  let q = inst compiled ~fs:[ 1 ] ~gs:[ 1 ] in
  (* cold: the router probe misses and the query fans out *)
  let cold = Span.start "select:cold" in
  ignore (collect router ~trace:cold q);
  Span.finish cold;
  let cold_root = Span.root cold in
  (match Span.find cold_root "router.probe" with
  | None -> Alcotest.fail "cold query lost the router.probe span"
  | Some p ->
      check (Alcotest.option Alcotest.string) "cold probe path" (Some "router_fallback")
        (Span.find_kv p "path"));
  check Alcotest.bool "cold query records the fan-out" true
    (Span.find cold_root "router.fallback" <> None);
  (* warm repeat: served from the router's probe cache, no fan-out *)
  let warm = Span.start "select:warm" in
  ignore (collect router ~trace:warm q);
  Span.finish warm;
  let warm_root = Span.root warm in
  (match Span.find warm_root "router.probe" with
  | None -> Alcotest.fail "warm query lost the router.probe span"
  | Some p ->
      check (Alcotest.option Alcotest.string) "warm probe path" (Some "router_cache")
        (Span.find_kv p "path");
      check Alcotest.bool "probe counts recorded" true
        (Span.find_kv p "probes" <> None && Span.find_kv p "probe_hits" <> None));
  check Alcotest.bool "warm query did not fan out" true
    (Span.find warm_root "router.fallback" = None)

(* --- hires histogram: the quantile error bound the SLO quotes ------- *)

(* exact order statistic: rank ceil(p * n) in a plain sort *)
let exact_quantile samples p =
  let sorted = List.sort Int64.compare samples in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.nth sorted (min (n - 1) (rank - 1))

let prop_hires_quantile_bound =
  QCheck2.Test.make
    ~name:"hires quantile within 1/32 of the exact order statistic" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 300) (map Int64.of_int (int_range 1 1_000_000_000)))
        (map (fun i -> float_of_int i /. 1000.0) (int_range 1 1000)))
    (fun (samples, p) ->
      let h = Hires.create () in
      List.iter (Hires.record h) samples;
      let q = Hires.quantile h p in
      let v = exact_quantile samples p in
      (* the readout is the upper bound of the sample's subbucket:
         never below the exact value, and above it by at most one
         subbucket width — max(1, v/32) *)
      Int64.compare q v >= 0
      && Int64.compare (Int64.sub q v) (Int64.max 1L (Int64.div v 32L)) <= 0)

let prop_hires_merge_exact =
  QCheck2.Test.make ~name:"hires merge_into == histogram of concatenated streams"
    ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200) (map Int64.of_int (int_range 0 100_000_000)))
        (list_size (int_range 0 200) (map Int64.of_int (int_range 0 100_000_000))))
    (fun (s1, s2) ->
      let h1 = Hires.create () and h2 = Hires.create () and all = Hires.create () in
      List.iter (Hires.record h1) s1;
      List.iter (Hires.record h2) s2;
      List.iter (Hires.record all) (s1 @ s2);
      Hires.merge_into ~dst:h1 h2;
      Hires.count h1 = Hires.count all
      && Int64.equal (Hires.sum_ns h1) (Hires.sum_ns all)
      && List.for_all
           (fun p -> Int64.equal (Hires.quantile h1 p) (Hires.quantile all p))
           [ 0.5; 0.9; 0.95; 0.99; 0.999; 1.0 ])

(* --- snapshot merging: the sharded METRICS/Prometheus path ---------- *)

(* Per-shard snapshots of the same registries: a name always carries
   one kind (Registry.snapshot guarantees it), which is the domain on
   which merging is associative — the cross-kind clash fallback
   (keep-latest) deliberately is not. Integer-valued gauges keep float
   addition exact, so structural equality is the right check. *)
let gen_snapshot =
  QCheck2.Gen.(
    let entry =
      oneof
        [
          map2
            (fun name n -> (name, Registry.Counter n))
            (oneofl [ "a.count"; "b.count" ])
            (int_range 0 1000);
          map2
            (fun name n -> (name, Registry.Gauge (float_of_int n)))
            (oneofl [ "c.gauge"; "f.gauge" ])
            (int_range 0 1000);
          map2
            (fun name (c, q) ->
              let q = Int64.of_int q in
              ( name,
                Registry.Histogram
                  {
                    Histogram.count = c;
                    sum = Int64.mul (Int64.of_int c) q;
                    min = q;
                    max = q;
                    p50 = q;
                    p95 = q;
                    p99 = q;
                    p999 = q;
                  } ))
            (oneofl [ "d.lat_ns"; "e.lat_ns" ])
            (pair (int_range 1 100) (int_range 1 1_000_000));
        ]
    in
    list_size (int_range 0 6) entry)

let prop_merge_snapshots_associative =
  QCheck2.Test.make ~name:"Export.merge_snapshots is associative" ~count:200
    QCheck2.Gen.(triple gen_snapshot gen_snapshot gen_snapshot)
    (fun (s1, s2, s3) ->
      let m = Export.merge_snapshots in
      let flat = m [ s1; s2; s3 ] in
      flat = m [ m [ s1; s2 ]; s3 ] && flat = m [ s1; m [ s2; s3 ] ])

(* --- flight recorder: ordering, digest, wrap ------------------------ *)

let with_flight f =
  let was = Flight.is_enabled () in
  Flight.set_enabled true;
  Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Flight.reset ();
      Flight.set_enabled was)
    f

(* a deterministic little event stream with varied kinds and payloads *)
let record_stream () =
  for i = 1 to 40 do
    Flight.record Flight.Probe_hit ~a:i ~b:(i * 2);
    if i mod 4 = 0 then Flight.record Flight.Version_publish ~a:1 ~b:i;
    if i mod 8 = 0 then Flight.record Flight.Epoch_advance ~a:i
  done;
  Flight.record Flight.Maint_apply ~a:(Flight.intern "t1")

let test_flight_order_and_digest () =
  with_flight @@ fun () ->
  record_stream ();
  let events = Flight.dump () in
  check Alcotest.bool "dump not empty" true (events <> []);
  (* globally ordered: sequence strictly increasing, time never
     runs backwards *)
  ignore
    (List.fold_left
       (fun prev (e : Flight.event) ->
         (match prev with
         | None -> ()
         | Some (ps, pt) ->
             check Alcotest.bool "seq strictly increasing" true (e.Flight.e_seq > ps);
             check Alcotest.bool "timestamps non-decreasing" true
               (Int64.compare e.Flight.e_ts pt >= 0));
         Some (e.Flight.e_seq, e.Flight.e_ts))
       None events);
  let d1 = Flight.digest events in
  (* the digest covers what happened, never when: the same logical
     stream recorded again (at different timestamps) digests equal *)
  Flight.reset ();
  record_stream ();
  let d2 = Flight.digest (Flight.dump ()) in
  check Alcotest.string "digest timestamp-independent" d1 d2;
  (* and a different stream digests different *)
  Flight.record Flight.Probe_miss ~a:99;
  check Alcotest.bool "digest sees new events" true
    (Flight.digest (Flight.dump ()) <> d1)

let test_flight_wrap () =
  with_flight @@ fun () ->
  (* single-domain writer: one ring, so overrun keeps exactly the last
     ring_capacity events *)
  let n = Flight.ring_capacity + 100 in
  for i = 1 to n do
    Flight.record Flight.Probe_hit ~a:i
  done;
  let events = Flight.dump () in
  check Alcotest.int "wrap keeps ring_capacity events" Flight.ring_capacity
    (List.length events);
  match events with
  | [] -> Alcotest.fail "dump empty after wrap"
  | first :: _ ->
      check Alcotest.int "oldest surviving event" 100 first.Flight.e_seq

(* --- the watchdog: breach capture + automatic snapshot -------------- *)

let test_slo_breach_and_snapshot () =
  with_flight @@ fun () ->
  Flight.record Flight.Probe_hit ~a:1;
  Flight.record Flight.Version_publish ~a:1 ~b:2;
  let slo = Slo.create ~threshold_ns:1_000L ~snapshot_after:1 () in
  let fast = Span.start "q_fast" in
  Span.finish fast;
  Slo.note_query slo ~template:"t9" ~trace:(Span.root fast) 500L;
  check Alcotest.int "under threshold: no breach" 0 (Slo.breaches slo);
  check Alcotest.bool "no snapshot yet" true (Slo.last_snapshot slo = None);
  let slowq = Span.start "q_slow" in
  Span.enter slowq "o2.probe";
  Span.leave slowq;
  Span.finish slowq;
  Slo.note_query slo ~template:"t9" ~trace:(Span.root slowq) 5_000L;
  check Alcotest.int "over threshold: one breach" 1 (Slo.breaches slo);
  (match Slo.slow_queries slo with
  | { Slo.sq_template = "t9"; sq_ns = 5_000L; sq_trace = Some root } :: _ ->
      check Alcotest.bool "slow log keeps the span tree" true
        (Span.find root "o2.probe" <> None)
  | _ -> Alcotest.fail "breaching query missing from the slow log");
  (* the auto snapshot preserved the events leading up to the breach,
     the breach itself, and the trigger *)
  (match Slo.last_snapshot slo with
  | None -> Alcotest.fail "snapshot_after=1 must snapshot on first breach"
  | Some events ->
      let has k = List.exists (fun (e : Flight.event) -> e.Flight.e_kind = k) events in
      check Alcotest.bool "snapshot has the preceding events" true
        (has Flight.Probe_hit && has Flight.Version_publish);
      check Alcotest.bool "snapshot has the breach event" true (has Flight.Slo_breach);
      check Alcotest.bool "snapshot has the dump trigger" true (has Flight.Dump_trigger));
  (* both queries landed in the total histogram *)
  match List.assoc_opt "t9.total" (Slo.summaries slo) with
  | Some s -> check Alcotest.int "total latencies recorded" 2 s.Histogram.count
  | None -> Alcotest.fail "t9.total summary missing"

(* --- stratified sampling: reproducible from the seed ---------------- *)

let sampled_pattern tracer n =
  List.init n (fun _ ->
      match Tracer.start tracer "q" with
      | Some t ->
          Tracer.finish tracer t;
          true
      | None -> false)

let test_sampling_seeded_reproducible () =
  let mk () = Tracer.create ~sample_every:8 ~seed:424242L () in
  let p1 = sampled_pattern (mk ()) 64 in
  let p2 = sampled_pattern (mk ()) 64 in
  check (Alcotest.list Alcotest.bool) "same seed, same sampled ticks" p1 p2;
  (* stratified: exactly one recorded trace in every window of 8 *)
  let arr = Array.of_list p1 in
  for w = 0 to 7 do
    let hits = ref 0 in
    for i = 8 * w to (8 * w) + 7 do
      if arr.(i) then incr hits
    done;
    check Alcotest.int (Fmt.str "window %d samples exactly once" w) 1 !hits
  done;
  (* re-seeding moves the offsets (with overwhelming likelihood over 8
     windows) but keeps the stratification *)
  let p3 = sampled_pattern (Tracer.create ~sample_every:8 ~seed:7L ()) 64 in
  check Alcotest.int "different seed still 1-in-8" 8
    (List.length (List.filter Fun.id p3))

let suite =
  [
    Alcotest.test_case "stitched span tree across 4 shards in shard order" `Quick
      test_stitched_tree_4_shards;
    Alcotest.test_case "router cache hit and fallback trace branches" `Quick
      test_router_cache_trace_branches;
    QCheck_alcotest.to_alcotest prop_hires_quantile_bound;
    QCheck_alcotest.to_alcotest prop_hires_merge_exact;
    QCheck_alcotest.to_alcotest prop_merge_snapshots_associative;
    Alcotest.test_case "flight dump ordered, digest timestamp-independent" `Quick
      test_flight_order_and_digest;
    Alcotest.test_case "flight ring overrun keeps the newest events" `Quick
      test_flight_wrap;
    Alcotest.test_case "SLO breach capture + automatic flight snapshot" `Quick
      test_slo_breach_and_snapshot;
    Alcotest.test_case "stratified sampling reproducible from seed" `Quick
      test_sampling_seeded_reproducible;
  ]
