(* Correctness after the timed phase: a seeded sample of every shape
   the workload asks, judged against lib/check's full-scan ground truth
   over the unsharded reference data, plus the deep view invariants of
   every view on every shard. *)

open Minirel_storage
module Check = Minirel_check.Check
module Engine = Minirel_engine.Engine
module Template = Minirel_query.Template
module SM = Minirel_prng.Split_mix
module W = Workload

(* Samples per (template, shape): plain answers are cheap to judge
   once the template's full view is known, shaped ones recompute it. *)
let plain_samples = 8
let shaped_samples = 2

(* AVG merges float sums in shard order, so the last ulp may differ
   from the oracle's fold order. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.compare a b = 0

let groups_agree expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (ek, evs) (ak, avs) -> Tuple.compare ek ak = 0 && Array.for_all2 value_close evs avs)
       expected actual

type verdict = { checked : int; failures : string list }

let run (sut : Sut.t) ~seed =
  Sut.replay_reference sut;
  let w = sut.Sut.w and reference = sut.Sut.reference in
  let failures = ref [] and checked = ref 0 in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let judge label ok =
    incr checked;
    match ok () with
    | true -> ()
    | false -> fail "%s: answer differs from the ground truth" label
    | exception e -> fail "%s raised %s" label (Printexc.to_string e)
  in
  let shapes = if w.W.shaped then Array.to_list W.shapes else [ W.Plain ] in
  let gen = W.generator ~dml:false { w with W.shaped = false } ~tpls:sut.Sut.tpls in
  let rng = SM.create ~seed:(seed + 3) in
  for tpl = 0 to W.n_templates w - 1 do
    let tp = sut.Sut.tpls.(tpl) in
    let mv = lazy (Check.full_mv reference tp.W.compiled) in
    (* draw from the workload's own distribution until this template
       comes up *)
    let rec draw () =
      match gen rng with
      | W.Query q when q.W.tpl = tpl -> q.W.inst
      | W.Query _ | W.Dml _ -> draw ()
    in
    List.iter
      (fun shape ->
        let n = if shape = W.Plain then plain_samples else shaped_samples in
        for s = 1 to n do
          let inst = draw () in
          let label = Fmt.str "t%d %s #%d" (tpl + 1) (W.shape_name shape) s in
          judge label (fun () ->
              match shape with
              | W.Plain ->
                  let expected =
                    List.filter (Minirel_query.Instance.accepts_result inst) (Lazy.force mv)
                  in
                  Check.report_ok
                    (Check.check_answer_via ~expected (fun ~on_tuple ->
                         Sut.answer_plain sut inst ~on_tuple))
              | W.Grouped ->
                  let g = Sut.answer_grouped sut tp inst in
                  groups_agree
                    (Check.ground_truth_grouped reference inst ~key:tp.W.key ~aggs:tp.W.aggs)
                    (Pmv.Extensions.finalize_groups ~aggs:tp.W.aggs g.Pmv.Extensions.g_groups)
              | W.Ordered ->
                  let rows, _ = Sut.answer_ordered sut tp inst in
                  List.equal Tuple.equal rows
                    (Check.ground_truth_ordered reference inst ~order:tp.W.order
                       ~limit:W.limit_k ())
              | W.Exists ->
                  fst (Sut.answer_exists sut tp inst) = Check.ground_truth_exists reference inst)
        done)
      shapes
  done;
  Array.iteri
    (fun i e ->
      List.iter
        (fun v ->
          incr checked;
          List.iter
            (fun msg -> fail "shard %d view %s: %s" i (Pmv.View.name v) msg)
            (Check.check_view v (Engine.catalog e)))
        (Pmv.Manager.views (Engine.manager e)))
    sut.Sut.engines;
  { checked = !checked; failures = List.rev !failures }
