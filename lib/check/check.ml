(* Consistency oracle: ground truth by full scan, multiset diffs
   against the streamed answer, and deep PMV invariants. This is the
   reference implementation every optimised path is judged against, so
   it uses nothing from the planner, executor, plan cache or entry
   store beyond plain iteration. *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog

(* --- ground truth ----------------------------------------------------- *)

(* Left-deep hash join in template relation order over full heap scans,
   then fixed-predicate filtering and the Ls' projection. *)
let full_mv catalog (compiled : Template.compiled) =
  let spec = compiled.Template.spec in
  let n = Array.length spec.Template.relations in
  let all_tuples i =
    Heap_file.fold
      (Catalog.heap catalog spec.Template.relations.(i))
      (fun acc _ t -> t :: acc)
      []
  in
  let local_pos i (a : Template.attr_ref) =
    Schema.pos compiled.Template.schemas.(i) a.Template.attr
  in
  (* extend the partial join (over relations 0..i-1) with relation i *)
  let extend partials i =
    let edges =
      List.filter_map
        (fun (a, b) ->
          if a.Template.rel = i && b.Template.rel < i then
            Some (Template.joined_pos compiled b, local_pos i a)
          else if b.Template.rel = i && a.Template.rel < i then
            Some (Template.joined_pos compiled a, local_pos i b)
          else None)
        spec.Template.joins
    in
    let rows = all_tuples i in
    match edges with
    | [] ->
        (* no edge to earlier relations: cross product *)
        List.concat_map (fun p -> List.map (fun t -> Tuple.concat p t) rows) partials
    | _ ->
        let tbl = Tuple.Table.create (2 * List.length rows) in
        List.iter
          (fun t ->
            let key = Array.of_list (List.map (fun (_, ip) -> t.(ip)) edges) in
            let cur = Option.value ~default:[] (Tuple.Table.find_opt tbl key) in
            Tuple.Table.replace tbl key (t :: cur))
          rows;
        List.concat_map
          (fun p ->
            let key = Array.of_list (List.map (fun (op, _) -> p.(op)) edges) in
            match Tuple.Table.find_opt tbl key with
            | Some matches -> List.map (fun t -> Tuple.concat p t) matches
            | None -> [])
          partials
  in
  let joined = ref (all_tuples 0) in
  for i = 1 to n - 1 do
    joined := extend !joined i
  done;
  let fixed_ok t =
    List.for_all
      (fun (i, p) -> Predicate.eval (Predicate.shift compiled.Template.offsets.(i) p) t)
      spec.Template.fixed
  in
  !joined |> List.filter fixed_ok |> List.map (Template.result_of_joined compiled)

let ground_truth catalog instance =
  full_mv catalog (Instance.compiled instance)
  |> List.filter (Instance.accepts_result instance)

(* --- §3.6 shape ground truths (same full-scan independence) ----------- *)

let ground_truth_distinct catalog instance =
  let seen = Tuple.Table.create 64 in
  List.filter
    (fun t ->
      if Tuple.Table.mem seen t then false
      else begin
        Tuple.Table.replace seen t ();
        true
      end)
    (ground_truth catalog instance)

(* Finalized per-group aggregate values, sorted by the projected key
   tuple — computed by plain folding over the ground-truth multiset,
   sharing only [Aggregate.finalize] with the streamed path. *)
let ground_truth_grouped catalog instance ~key ~aggs =
  let tbl = Tuple.Table.create 64 in
  List.iter
    (fun t ->
      let k = Tuple.project t key in
      let members = Option.value ~default:[] (Tuple.Table.find_opt tbl k) in
      Tuple.Table.replace tbl k (t :: members))
    (ground_truth catalog instance);
  Tuple.Table.fold
    (fun k members out ->
      let accs = Aggregate.of_tuples aggs (List.rev members) in
      (k, Array.mapi (fun i acc -> Aggregate.finalize aggs.(i) acc) accs) :: out)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let ground_truth_ordered catalog instance ~order ?limit () =
  let sorted = Ordering.sort ~order (ground_truth catalog instance) in
  match limit with
  | None -> sorted
  | Some k ->
      let rec take n = function
        | [] -> []
        | _ when n <= 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      take k sorted

let ground_truth_exists catalog instance = ground_truth catalog instance <> []

(* --- multiset diff ---------------------------------------------------- *)

type diff = { missing : Tuple.t list; extra : Tuple.t list }

let diff_is_empty d = d.missing = [] && d.extra = []

let counts_of tuples =
  let tbl = Tuple.Table.create (2 * List.length tuples + 1) in
  List.iter
    (fun t ->
      Tuple.Table.replace tbl t (1 + Option.value ~default:0 (Tuple.Table.find_opt tbl t)))
    tuples;
  tbl

let diff_multiset ~expected ~actual =
  let want = counts_of expected in
  let extra = ref [] in
  List.iter
    (fun t ->
      match Tuple.Table.find_opt want t with
      | Some n when n > 0 -> Tuple.Table.replace want t (n - 1)
      | Some _ | None -> extra := t :: !extra)
    actual;
  let missing = ref [] in
  Tuple.Table.iter
    (fun t n ->
      for _ = 1 to n do
        missing := t :: !missing
      done)
    want;
  {
    missing = List.sort Tuple.compare !missing;
    extra = List.sort Tuple.compare !extra;
  }

let pp_diff ppf d =
  let side name ppf = function
    | [] -> Fmt.pf ppf "%s=0" name
    | ts -> Fmt.pf ppf "%s=%d %a" name (List.length ts) Fmt.(Dump.list Tuple.pp) ts
  in
  Fmt.pf ppf "%a %a" (side "missing") d.missing (side "extra") d.extra

(* --- answer oracle ---------------------------------------------------- *)

type report = {
  diff : diff;
  delivered : int;
  partials : int;
  ds_identity_ok : bool;
  stats : Pmv.Answer.stats;
  template : string option;  (* which template the query instantiated *)
  shape : string option;  (* query-shape class: plain/distinct/grouped/... *)
}

let report_ok r = diff_is_empty r.diff && r.ds_identity_ok

let report_ok_allowing_stale r =
  r.diff.missing = []
  && List.length r.diff.extra = r.stats.Pmv.Answer.stale_purged
  && r.ds_identity_ok

(* Name the template and shape up front: a sharded mismatch that prints
   only the tuple diff is slow to triage. *)
let pp_report ppf r =
  let label name = function
    | None -> ()
    | Some s -> Fmt.pf ppf "%s=%s " name s
  in
  label "template" r.template;
  label "shape" r.shape;
  Fmt.pf ppf "delivered=%d partials=%d stale=%d ds_identity=%b %a" r.delivered r.partials
    r.stats.Pmv.Answer.stale_purged r.ds_identity_ok pp_diff r.diff

(* Judge an arbitrary answer source against a precomputed expected
   multiset. [answer] drives the source (a single view, a sharded
   router, ...) through the supplied [on_tuple] and returns the final
   answer statistics; the DS exactly-once identity is checked on those
   — for merged shard streams the summed stats must satisfy it just as
   a single engine's do. *)
let check_answer_via ?template ?shape ~expected answer =
  let delivered = ref [] and partials = ref 0 in
  let stats =
    answer ~on_tuple:(fun phase t ->
        delivered := t :: !delivered;
        if phase = Pmv.Answer.Partial then incr partials)
  in
  let n_delivered = List.length !delivered in
  {
    diff = diff_multiset ~expected ~actual:!delivered;
    delivered = n_delivered;
    partials = !partials;
    ds_identity_ok =
      n_delivered = stats.Pmv.Answer.total_count + stats.Pmv.Answer.stale_purged;
    stats;
    template;
    shape;
  }

let check_answer ?locks ?txn ?probe_path ~view catalog instance =
  let template = (Instance.compiled instance).Template.spec.Template.name in
  check_answer_via ~template ~shape:"plain"
    ~expected:(ground_truth catalog instance)
    (fun ~on_tuple ->
      Pmv.Answer.answer ?locks ?txn ?probe_path ~view catalog instance ~on_tuple)

(* --- deep view invariants --------------------------------------------- *)

let check_view ?ub_bytes view catalog =
  let compiled = Pmv.View.compiled view in
  let store = Pmv.View.store view in
  let violations = ref [] in
  let bad fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  if not (Pmv.View.invariants_ok view) then
    bad "store bounds violated: entries=%d capacity=%d f_max=%d"
      (Pmv.View.n_entries view)
      (Pmv.Entry_store.capacity store)
      (Pmv.Entry_store.f_max store);
  (match ub_bytes with
  | Some ub when Pmv.View.size_bytes view > ub ->
      bad "storage budget exceeded: %d bytes > UB=%d" (Pmv.View.size_bytes view) ub
  | Some _ | None -> ());
  (* containment: each cached tuple must appear in the full MV at least
     as often as it is cached, under the bcp the pipeline assigns it *)
  let mv_counts = counts_of (full_mv catalog compiled) in
  Pmv.Entry_store.iter store (fun entry ->
      let bcp = entry.Pmv.Entry_store.e_bcp in
      if entry.Pmv.Entry_store.n <> List.length entry.Pmv.Entry_store.tuples then
        bad "entry %a: n=%d but %d tuples" Bcp.pp bcp entry.Pmv.Entry_store.n
          (List.length entry.Pmv.Entry_store.tuples);
      let cached = counts_of entry.Pmv.Entry_store.tuples in
      Tuple.Table.iter
        (fun t k ->
          (match Tuple.Table.find_opt mv_counts t with
          | Some m when m >= k -> ()
          | Some m ->
              bad "tuple %a cached %d times but only %d in the MV" Tuple.pp t k m
          | None -> bad "stale cached tuple %a not in the MV" Tuple.pp t);
          let home = Condition_part.bcp_of_result compiled t in
          if not (Bcp.equal home bcp) then
            bad "tuple %a filed under bcp %a, belongs to %a" Tuple.pp t Bcp.pp bcp Bcp.pp
              home)
        cached);
  List.rev !violations
