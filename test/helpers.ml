(* Shared fixtures for the test suites. *)

open Minirel_storage
module Catalog = Minirel_index.Catalog

let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let tuples =
  Alcotest.testable (Fmt.Dump.list Tuple.pp) (fun a b ->
      List.equal Tuple.equal (List.sort Tuple.compare a) (List.sort Tuple.compare b))

(* Multiset equality of tuple lists. *)
let same_multiset a b =
  List.equal Tuple.equal (List.sort Tuple.compare a) (List.sort Tuple.compare b)

(* Values of every type from small domains, so equal values and shared
   prefixes are common. *)
let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (int_range (-2) 2);
        map (fun f -> Value.Float f) (oneofl [ -1.5; 0.0; 2.5; Float.nan ]);
        map (fun s -> Value.Str s) (oneofl [ ""; "a"; "ab"; "b" ]);
      ])

let gen_tuple ?(arity = QCheck2.Gen.int_range 0 5) () =
  QCheck2.Gen.(map Array.of_list (list_size arity gen_value))

let fresh_catalog ?(pool_pages = 10_000) () =
  let pool = Buffer_pool.create ~capacity:pool_pages () in
  Catalog.create pool

(* A two-relation schema in the shape of the paper's Eqt (Figure 1):
     r (rkey, c, f, payload)      s (d, g, e)
   joined on r.c = s.d, selections on r.f and s.g. *)
let r_schema =
  Schema.create "r"
    [ ("rkey", Schema.Tint); ("c", Schema.Tint); ("f", Schema.Tint); ("payload", Schema.Tstr) ]

let s_schema =
  Schema.create "s" [ ("d", Schema.Tint); ("g", Schema.Tint); ("e", Schema.Tint) ]

(* Populate r/s deterministically:
   - r: [n_r] rows, rkey = 1..n_r, c = rkey mod n_join, f = rkey mod n_f
   - s: [n_s] rows, d = row mod n_join, g = row mod n_g, e = row
   Every (f, g) pair gets a predictable number of join results. *)
let build_rs ?(n_r = 200) ?(n_s = 120) ?(n_join = 40) ?(n_f = 10) ?(n_g = 8) catalog =
  let _ = Catalog.create_relation catalog r_schema in
  let _ = Catalog.create_relation catalog s_schema in
  for rkey = 1 to n_r do
    ignore
      (Catalog.insert catalog ~rel:"r"
         [|
           Value.Int rkey;
           Value.Int (rkey mod n_join);
           Value.Int (rkey mod n_f);
           Value.Str (Fmt.str "pay%d" rkey);
         |])
  done;
  for row = 1 to n_s do
    ignore
      (Catalog.insert catalog ~rel:"s"
         [| Value.Int (row mod n_join); Value.Int (row mod n_g); Value.Int row |])
  done;
  ignore (Catalog.create_index catalog ~rel:"r" ~name:"r_f" ~attrs:[ "f" ] ());
  ignore (Catalog.create_index catalog ~rel:"r" ~name:"r_c" ~attrs:[ "c" ] ());
  ignore (Catalog.create_index catalog ~rel:"s" ~name:"s_d" ~attrs:[ "d" ] ());
  ignore (Catalog.create_index catalog ~rel:"s" ~name:"s_g" ~attrs:[ "g" ] ())

open Minirel_query

(* The Eqt template over r/s: equality form on both r.f and s.g. *)
let eqt_spec =
  {
    Template.name = "eqt";
    relations = [| "r"; "s" |];
    joins = [ (Template.attr_ref ~rel:0 ~attr:"c", Template.attr_ref ~rel:1 ~attr:"d") ];
    fixed = [];
    select_list =
      [ Template.attr_ref ~rel:0 ~attr:"rkey"; Template.attr_ref ~rel:1 ~attr:"e" ];
    selections =
      [|
        Template.Eq_sel (Template.attr_ref ~rel:0 ~attr:"f");
        Template.Eq_sel (Template.attr_ref ~rel:1 ~attr:"g");
      |];
  }

(* Variant with an interval-form selection on s.e over a grid. *)
let eqt_interval_spec ~grid =
  {
    eqt_spec with
    Template.name = "eqt_iv";
    selections =
      [|
        Template.Eq_sel (Template.attr_ref ~rel:0 ~attr:"f");
        Template.Range_sel (Template.attr_ref ~rel:1 ~attr:"e", grid);
      |];
  }

(* Ground truth for every executor/PMV answer, independent of the
   planner/executor: delegates to the consistency-oracle library
   (full-scan left-deep hash join + Cselect filtering), so the tests
   exercise the same reference implementation the torture driver
   judges against. *)
let brute_force_answer catalog instance = Minirel_check.Check.ground_truth catalog instance

(* Collect every tuple an answer delivers. *)
let collect_answer ?locks ?txn ~view catalog instance =
  let out = ref [] and partial = ref [] in
  let stats =
    Pmv.Answer.answer ?locks ?txn ~view catalog instance ~on_tuple:(fun phase t ->
        out := t :: !out;
        match phase with Pmv.Answer.Partial -> partial := t :: !partial | _ -> ())
  in
  (!out, !partial, stats)

let collect_plain catalog instance =
  let out = ref [] in
  let stats = Pmv.Answer.answer_plain catalog instance ~on_tuple:(fun _ t -> out := t :: !out) in
  (!out, stats)
