(* The shell: a complete statement interpreter tying the SQL frontend to
   the engine and the PMV layer. One shell owns a catalog, a SQL
   session (template cache + grids), a transaction manager, and a
   Pmv.Manager with one budgeted view per query template.

   SELECTs route through the template's PMV (partial results counted);
   GROUP BY aggregates are evaluated over the answer stream with an
   early partial-groups preview; ORDER BY and LIMIT are applied at the
   end (LIMIT without ORDER BY terminates execution early through the
   PMV's first-k path). DDL and DML statements run through the
   transaction manager so deferred PMV maintenance fires. *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog
module Session = Minirel_sql.Session
module Ast = Minirel_sql.Ast
module Parser = Minirel_sql.Parser
module Binder = Minirel_sql.Binder
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Telemetry = Minirel_telemetry.Telemetry
module Span = Minirel_telemetry.Span
module Slo = Minirel_telemetry.Slo
module Flight = Minirel_telemetry.Flight

type t = {
  engine : Engine.t;
  router : Router.t option;
      (* sharded backend: [engine] is then shard 0, used for parsing /
         binding / EXPLAIN (schemas are identical on every shard), while
         answering and DML route through the router *)
  view_ub_bytes : int;  (* budget per automatically created view *)
  auto_views : bool;
  mutable recorder : (string -> unit) option;  (* successful statements *)
}

(* Interpret statements against an existing engine (its catalog,
   session, transaction manager and PMV manager — and therefore its
   fault/telemetry scopes). *)
let of_engine ?(view_ub_bytes = 262_144) ?(auto_views = true) engine =
  { engine; router = None; view_ub_bytes; auto_views; recorder = None }

(* Interpret statements against a shard router: queries fan out and
   merge, DML routes to owning shards, CREATE TABLE replicates (SQL has
   no partitioning syntax — partitioned relations are declared through
   {!Router.create_relation} before the shell takes over). *)
let of_router ?(view_ub_bytes = 262_144) ?(auto_views = true) router =
  {
    engine = Router.shard router 0;
    router = Some router;
    view_ub_bytes;
    auto_views;
    recorder = None;
  }

let create ?view_ub_bytes ?auto_views catalog =
  of_engine ?view_ub_bytes ?auto_views (Engine.create ~catalog ())

(* Observe every successfully executed statement (e.g. into a Trace). *)
let set_recorder t f = t.recorder <- Some f

(* Which read path routed queries take; the state lives on the backend
   (router default, or the engine default when unsharded). *)
let probe_path t =
  match t.router with
  | Some router -> Router.probe_path router
  | None -> Engine.probe_path t.engine

let set_probe_path t path =
  match t.router with
  | Some router -> Router.set_probe_path router path
  | None -> Engine.set_probe_path t.engine path

let engine t = t.engine
let catalog t = Engine.catalog t.engine
let session t = Engine.session t.engine
let manager t = Engine.manager t.engine
let txn_mgr t = Engine.txn_mgr t.engine

type result =
  | Rows of {
      header : string list;
      rows : Tuple.t list;  (* user-visible shape, ordered/limited *)
      from_pmv : int;  (* tuples that arrived via O2 *)
      total : int;  (* result tuples before LIMIT *)
      overhead_ns : int64;
    }
  | Grouped of {
      header : string list;
      groups : (Tuple.t * Value.t list) list;  (* key, aggregate values *)
      partial_groups : (Tuple.t * Value.t list) list;
          (* early preview over the PMV-cached subset *)
    }
  | Table_created of string
  | Index_created of string
  | Inserted of int
  | Updated of int
  | Deleted of int
  | Explained of string  (* physical plan text *)
  | Traced of string  (* per-operator profile, span tree, plan-cache counters *)
  | Metrics of string  (* METRICS [RESET]: telemetry snapshot text *)
  | Slo_report of string  (* SLO [...]: tail-latency watchdog report *)
  | Flight_dump of string  (* FLIGHT [...]: flight-recorder dump / status *)
  | Budget_report of string  (* BUDGET [...]: UB budget arbiter status *)

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* --- Section 3.6 shape machinery over the bound clauses --- *)

(* Aggregate select items as associative accumulator specs; positions
   index the expanded Ls' result tuple. *)
let agg_specs compiled (bound : Binder.bound) =
  Array.of_list
    (List.map
       (fun (f, arg) ->
         let pos = Option.map (Template.expanded_pos compiled) arg in
         match (f, pos) with
         | Ast.F_count, None -> Aggregate.Count
         | Ast.F_count, Some p -> Aggregate.Count_of p
         | Ast.F_sum, Some p -> Aggregate.Sum p
         | Ast.F_avg, Some p -> Aggregate.Avg p
         | Ast.F_min, Some p -> Aggregate.Min p
         | Ast.F_max, Some p -> Aggregate.Max p
         | _, None -> fail "aggregate needs an attribute argument")
       bound.Binder.aggregates)

let group_key compiled (bound : Binder.bound) =
  Array.of_list (List.map (Template.expanded_pos compiled) bound.Binder.group_by)

let order_keys compiled (bound : Binder.bound) =
  Array.of_list
    (List.map
       (fun (a, desc) -> (Template.expanded_pos compiled a, desc))
       bound.Binder.order_by)

(* ORDER BY over grouped results: every order attribute is a GROUP BY
   key (binder-enforced), located by its index in the key tuple. *)
let sort_groups (bound : Binder.bound) groups =
  match bound.Binder.order_by with
  | [] -> groups
  | order ->
      let keys =
        List.map
          (fun (a, desc) ->
            let rec idx i = function
              | [] -> fail "ORDER BY attribute is not a GROUP BY key"
              | b :: tl -> if a = b then i else idx (i + 1) tl
            in
            (idx 0 bound.Binder.group_by, desc))
          order
      in
      List.sort
        (fun ((ka : Tuple.t), _) (kb, _) ->
          let rec go = function
            | [] -> Tuple.compare ka kb
            | (p, desc) :: rest ->
                let c = Value.compare ka.(p) kb.(p) in
                if c <> 0 then if desc then -c else c else go rest
          in
          go keys)
        groups

let agg_name (f, arg) =
  let fname =
    match f with
    | Ast.F_count -> "count"
    | Ast.F_sum -> "sum"
    | Ast.F_avg -> "avg"
    | Ast.F_min -> "min"
    | Ast.F_max -> "max"
  in
  match arg with
  | None -> fname ^ "(*)"
  | Some (r : Template.attr_ref) -> Fmt.str "%s(%s)" fname r.Template.attr

(* --- SELECT --- *)

(* Every routed query runs under the Section 3.6 S-lock protocol, so
   the lock-manager telemetry reflects real query traffic. *)
let answer_locked ?profile ?trace t instance ~on_tuple =
  match t.router with
  | Some router -> Router.answer ?profile ?trace router instance ~on_tuple
  | None ->
      Pmv.Manager.answer
        ~locks:(Minirel_txn.Txn.locks (txn_mgr t))
        ?profile
        ~probe_path:(Engine.probe_path t.engine)
        ?trace (manager t) instance ~on_tuple

let ensure_view t compiled =
  let template = compiled.Template.spec.Template.name in
  if t.auto_views && Pmv.Manager.find (manager t) ~template = None then
    match t.router with
    | Some router ->
        ignore (Router.create_view ~ub_bytes:t.view_ub_bytes ~f_max:3 router compiled)
    | None ->
        ignore
          (Pmv.Manager.create_view ~ub_bytes:t.view_ub_bytes ~f_max:3 (manager t) compiled)

(* --- EXISTS: per-row witness checks through the subquery's PMV --- *)

(* One checker per EXISTS clause. The sub template compiles through the
   session's signature cache (so repeated queries share its PMV) and
   gets its own auto-created view; per outer row the correlated
   selection slots fill with the row's values, then the witness check
   short-circuits through the subquery's PMV — sharded or not — and
   only executes (to the first tuple) on a miss. *)
let exists_checkers t compiled (bound : Binder.bound) =
  List.map
    (fun (c : Binder.exists_clause) ->
      let sub_compiled = Session.compile_exists (session t) c in
      ensure_view t sub_compiled;
      let corr =
        List.map
          (fun (slot, outer) -> (slot, Template.expanded_pos compiled outer))
          c.Binder.ex_correlated
      in
      fun (row : Tuple.t) ->
        let params =
          Array.map
            (function Some d -> d | None -> Instance.Dvalues [ Value.Null ])
            c.Binder.ex_params
        in
        List.iter
          (fun (slot, pos) -> params.(slot) <- Instance.Dvalues [ row.(pos) ])
          corr;
        let sub = Instance.make sub_compiled params in
        match t.router with
        | Some router -> fst (Router.exists_ router sub)
        | None -> (
            match
              Pmv.Manager.find (manager t)
                ~template:sub_compiled.Template.spec.Template.name
            with
            | Some view ->
                fst
                  (Pmv.Extensions.exists_ ~probe_path:(Engine.probe_path t.engine)
                     ~view (catalog t) sub)
            | None ->
                (* no PMV (auto views off): execute to the first tuple *)
                let plan = Minirel_exec.Planner.plan_query (catalog t) sub in
                let cursor = Minirel_exec.Executor.cursor (catalog t) plan in
                cursor () <> None))
    bound.Binder.exists_

(* Exact grouped accumulators — the partial (O2 preview) and final
   group lists — through the sharded or single-view path; falls back
   to folding the answer stream when no PMV exists. *)
let grouped_answer ?trace t instance ~key ~aggs =
  let template = (Instance.compiled instance).Template.spec.Template.name in
  match t.router with
  | Some router ->
      let g, _ = Router.answer_grouped router instance ~key ~aggs in
      (g.Pmv.Extensions.g_partial, g.Pmv.Extensions.g_groups)
  | None -> (
      match Pmv.Manager.find (manager t) ~template with
      | Some view ->
          let g =
            Pmv.Extensions.answer_groups
              ~locks:(Minirel_txn.Txn.locks (txn_mgr t))
              ~probe_path:(Engine.probe_path t.engine)
              ~view (catalog t) instance ~key ~aggs
          in
          (g.Pmv.Extensions.g_partial, g.Pmv.Extensions.g_groups)
      | None ->
          let partial_tbl = Tuple.Table.create 32
          and exact_tbl = Tuple.Table.create 32 in
          let _ =
            answer_locked ?trace t instance ~on_tuple:(fun phase tuple ->
                (match phase with
                | Pmv.Answer.Partial ->
                    Pmv.Extensions.fold_group partial_tbl ~key ~aggs tuple
                | Pmv.Answer.Remaining -> ());
                Pmv.Extensions.fold_group exact_tbl ~key ~aggs tuple)
          in
          ( Pmv.Extensions.collect_groups partial_tbl,
            Pmv.Extensions.collect_groups exact_tbl ))

let run_select_body ?trace t compiled instance bound =
  if bound.Binder.distinct then Pmv.Extensions.note_shape `Distinct;
  let checkers = exists_checkers t compiled bound in
  let keep row = List.for_all (fun chk -> chk row) checkers in
  if bound.Binder.aggregates = [] then begin
    let all = ref [] and partial = ref 0 in
    let collect phase tuple =
      all := tuple :: !all;
      if phase = Pmv.Answer.Partial then incr partial
    in
    let stats_overhead = ref 0L and total = ref 0 in
    (* short-circuit paths deliver their final Ls' rows directly *)
    let served = ref None in
    let template = compiled.Template.spec.Template.name in
    (* first-k / top-k fast paths only apply when each delivered tuple
       is final as-is: no EXISTS filtering, no DISTINCT collapsing *)
    let plain_shape = checkers = [] && not bound.Binder.distinct in
    (match (bound.Binder.limit, bound.Binder.order_by) with
    | Some 0, _ -> served := Some []
    | Some k, [] when plain_shape -> (
        (* no ordering: stop execution after k tuples (Benefit 2) *)
        match (t.router, Pmv.Manager.find (manager t) ~template) with
        | Some router, _ ->
            let rows = Router.answer_first_k router instance ~k in
            served := Some rows;
            total := List.length rows
        | None, Some view ->
            let rows = Pmv.Extensions.answer_first_k ~view (catalog t) instance ~k in
            served := Some rows;
            total := List.length rows
        | None, None ->
            let stats, _ = answer_locked ?trace t instance ~on_tuple:collect in
            stats_overhead := stats.Pmv.Answer.overhead_ns;
            total := stats.Pmv.Answer.total_count)
    | Some k, _ :: _ when plain_shape -> (
        (* ORDER BY ... LIMIT k: bounded top-k under the shared total
           order — sharded, at most k candidates cross per shard *)
        let order = order_keys compiled bound in
        let answered =
          match (t.router, Pmv.Manager.find (manager t) ~template) with
          | Some router, _ -> Some (Router.answer_ordered_k router instance ~order ~k)
          | None, Some view ->
              Some
                (Pmv.Extensions.answer_ordered_k
                   ~locks:(Minirel_txn.Txn.locks (txn_mgr t))
                   ~probe_path:(Engine.probe_path t.engine)
                   ~view (catalog t) instance ~order ~k)
          | None, None -> None
        in
        match answered with
        | Some (rows, stats) ->
            served := Some rows;
            stats_overhead := stats.Pmv.Answer.overhead_ns;
            total := stats.Pmv.Answer.total_count;
            partial := stats.Pmv.Answer.partial_count
        | None ->
            let stats, _ = answer_locked ?trace t instance ~on_tuple:collect in
            stats_overhead := stats.Pmv.Answer.overhead_ns;
            total := stats.Pmv.Answer.total_count)
    | _ ->
        let stats, _ = answer_locked ?trace t instance ~on_tuple:collect in
        stats_overhead := stats.Pmv.Answer.overhead_ns;
        total := stats.Pmv.Answer.total_count);
    let base =
      match !served with
      | Some rows -> rows (* already ordered and cut *)
      | None ->
          let delivered = List.rev !all in
          let delivered =
            if checkers = [] then delivered
            else begin
              (* EXISTS filters before ordering/limiting; [total]
                 reports surviving rows *)
              let kept = List.filter keep delivered in
              total := List.length kept;
              kept
            end
          in
          let sorted =
            match bound.Binder.order_by with
            | [] -> delivered
            | _ -> Ordering.sort ~order:(order_keys compiled bound) delivered
          in
          (* under DISTINCT the limit cuts distinct rows, below *)
          if bound.Binder.distinct then sorted
          else
            match bound.Binder.limit with
            | Some k -> List.filteri (fun i _ -> i < k) sorted
            | None -> sorted
    in
    (* the user-visible shape: exactly the written select attributes —
       the Ls' tuple may carry more (order keys, EXISTS correlation
       attrs) *)
    let vis_pos =
      Array.of_list (List.map (Template.expanded_pos compiled) bound.Binder.visible)
    in
    let header =
      List.map (fun (a : Template.attr_ref) -> a.Template.attr) bound.Binder.visible
    in
    let visible = List.map (fun row -> Tuple.project row vis_pos) base in
    let visible =
      if not bound.Binder.distinct then visible
      else begin
        (* set semantics over the user-visible rows, first occurrence
           kept (so ORDER BY order survives); LIMIT cuts after *)
        let seen = Tuple.Table.create 64 in
        let deduped =
          List.filter
            (fun row ->
              if Tuple.Table.mem seen row then false
              else begin
                Tuple.Table.replace seen row ();
                true
              end)
            visible
        in
        match bound.Binder.limit with
        | Some k -> List.filteri (fun i _ -> i < k) deduped
        | None -> deduped
      end
    in
    Rows
      {
        header;
        rows = visible;
        from_pmv = !partial;
        total = !total;
        overhead_ns = !stats_overhead;
      }
  end
  else begin
    let key = group_key compiled bound in
    let aggs = agg_specs compiled bound in
    let partial_acc, exact_acc =
      if checkers = [] then grouped_answer ?trace t instance ~key ~aggs
      else begin
        (* EXISTS filters rows before they fold into their groups *)
        let all = ref [] and partial_rows = ref [] in
        let _ =
          answer_locked ?trace t instance ~on_tuple:(fun phase tuple ->
              all := tuple :: !all;
              if phase = Pmv.Answer.Partial then partial_rows := tuple :: !partial_rows)
        in
        let fold rows =
          let tbl = Tuple.Table.create 32 in
          List.iter
            (fun tu -> if keep tu then Pmv.Extensions.fold_group tbl ~key ~aggs tu)
            rows;
          Pmv.Extensions.collect_groups tbl
        in
        (fold (List.rev !partial_rows), fold (List.rev !all))
      end
    in
    let to_result acc =
      Pmv.Extensions.finalize_groups ~aggs acc
      |> List.map (fun (k, vs) -> (k, Array.to_list vs))
      |> sort_groups bound
    in
    let limit gs =
      match bound.Binder.limit with
      | Some k -> List.filteri (fun i _ -> i < k) gs
      | None -> gs
    in
    let header =
      List.map (fun (a : Template.attr_ref) -> a.Template.attr) bound.Binder.group_by
      @ List.map agg_name bound.Binder.aggregates
    in
    Grouped
      {
        header;
        groups = limit (to_result exact_acc);
        partial_groups = limit (to_result partial_acc);
      }
  end

(* Serve one SELECT end to end: open the root span on the engine's
   tracer (subject to its sampling), thread the trace through the
   router/manager so the whole pipeline stitches into one tree, then
   account the end-to-end latency to the SLO watchdog — breaches keep
   the span tree in the slow-query log and may snapshot the flight
   recorder. *)
let run_select t sql =
  let compiled, instance, bound = Session.query_bound (session t) sql in
  ensure_view t compiled;
  let template = compiled.Template.spec.Template.name in
  (* one clock read serves both the SLO latency sample and the root
     span's endpoints (~at) — always-on tracing must not double them *)
  let t0 = Telemetry.now_ns () in
  let trace = Engine.trace_start ~at:t0 t.engine ("select:" ^ template) in
  match run_select_body ?trace t compiled instance bound with
  | result ->
      let t1 = Telemetry.now_ns () in
      Option.iter (Engine.trace_finish ~at:t1 t.engine) trace;
      Slo.note_query Slo.default ~template
        ?trace:(Option.map Span.root trace)
        (Int64.sub t1 t0);
      result
  | exception exn ->
      Option.iter (Engine.trace_finish t.engine) trace;
      raise exn

(* --- DDL / DML --- *)

let col_ty = function
  | Ast.T_int -> Schema.Tint
  | Ast.T_float -> Schema.Tfloat
  | Ast.T_string -> Schema.Tstr

let typed_value schema pos lit =
  let v = Ast.lit_to_value lit in
  match (Schema.attr_ty schema pos, v) with
  | Schema.Tfloat, Value.Int i -> Value.Float (float_of_int i)
  | ty, v ->
      if Schema.ty_matches ty v then v
      else fail "value %a has the wrong type for column %s" Value.pp v (Schema.attr_name schema pos)

(* conjunctive WHERE of a DELETE as a predicate over the relation *)
let delete_pred schema atoms =
  let resolve (a : Ast.qattr) =
    match Schema.pos_opt schema a.Ast.q_attr with
    | Some p -> p
    | None -> fail "unknown column %s" a.Ast.q_attr
  in
  Predicate.conj
    (List.map
       (function
         | Ast.A_join _ -> fail "DELETE supports only column-vs-literal conditions"
         | Ast.A_cmp (a, op, lit) ->
             let pos = resolve a in
             let v = typed_value schema pos lit in
             let cmp =
               match op with
               | Ast.Ceq -> Predicate.Eq
               | Ast.Cne -> Predicate.Ne
               | Ast.Clt -> Predicate.Lt
               | Ast.Cle -> Predicate.Le
               | Ast.Cgt -> Predicate.Gt
               | Ast.Cge -> Predicate.Ge
             in
             Predicate.Cmp (cmp, pos, v)
         | Ast.A_between (a, lo, hi) ->
             let pos = resolve a in
             Predicate.In_interval
               (pos, Interval.closed ~lo:(typed_value schema pos lo) ~hi:(typed_value schema pos hi))
         | Ast.A_in (a, lits) ->
             let pos = resolve a in
             Predicate.In_set (pos, List.map (typed_value schema pos) lits))
       atoms)

(* DML goes through every owning shard's transaction manager (deferred
   PMV maintenance fires shard-locally), or the single engine's. *)
let run_changes t changes =
  match t.router with
  | Some router -> List.concat_map snd (Router.run router changes)
  | None -> Minirel_txn.Txn.run (txn_mgr t) changes

let exec_statement t sql =
  match Parser.parse_statement sql with
  | Ast.St_select _ -> run_select t sql
  | Ast.St_create_table { table; cols } ->
      let schema = Schema.create table (List.map (fun (n, ty) -> (n, col_ty ty)) cols) in
      (match t.router with
      | Some router ->
          (* SQL has no partitioning syntax: tables created through the
             shell replicate. Hash-partitioned relations are declared
             via Shard_router.create_relation before the shell runs. *)
          Router.create_relation router schema ~part:`Replicated
      | None -> ignore (Catalog.create_relation (catalog t) schema));
      Table_created table
  | Ast.St_create_index { index; table; attrs } ->
      if not (Catalog.mem (catalog t) table) then fail "unknown relation %s" table;
      (match t.router with
      | Some router -> Router.create_index router ~rel:table ~name:index ~attrs ()
      | None -> ignore (Catalog.create_index (catalog t) ~rel:table ~name:index ~attrs ()));
      Index_created index
  | Ast.St_insert { table; values } ->
      if not (Catalog.mem (catalog t) table) then fail "unknown relation %s" table;
      let schema = Catalog.schema (catalog t) table in
      if List.length values <> Schema.arity schema then
        fail "%s expects %d values" table (Schema.arity schema);
      let tuple = Array.of_list (List.mapi (fun i l -> typed_value schema i l) values) in
      ignore (run_changes t [ Minirel_txn.Txn.Insert { rel = table; tuple } ]);
      Inserted 1
  | Ast.St_update { table; set; where } ->
      if not (Catalog.mem (catalog t) table) then fail "unknown relation %s" table;
      let schema = Catalog.schema (catalog t) table in
      let pred = delete_pred schema where in
      let assignments =
        List.map
          (fun (col, lit) ->
            match Schema.pos_opt schema col with
            | Some pos -> (pos, typed_value schema pos lit)
            | None -> fail "unknown column %s" col)
          set
      in
      let deltas =
        run_changes t [ Minirel_txn.Txn.Update { rel = table; pred; set = assignments } ]
      in
      Updated
        (List.fold_left
           (fun acc d -> acc + List.length d.Minirel_txn.Txn.updated)
           0 deltas)
  | Ast.St_explain _ ->
      (* strip the EXPLAIN keyword and bind the query itself *)
      let sql_body =
        let trimmed = String.trim sql in
        match String.index_opt trimmed ' ' with
        | Some i -> String.sub trimmed i (String.length trimmed - i)
        | None -> fail "EXPLAIN needs a query"
      in
      let compiled, instance, bound = Session.query_bound (session t) sql_body in
      let plan = Minirel_exec.Planner.plan_query (catalog t) instance in
      let h = Minirel_query.Condition_part.combination_factor instance in
      Explained
        (Fmt.str "template %s (h = %d)%s@.%a"
           compiled.Template.spec.Template.name h
           (if bound.Binder.aggregates <> [] then ", aggregated" else "")
           Minirel_exec.Plan.pp plan)
  | Ast.St_trace _ ->
      (* strip the TRACE keyword, answer the query with per-operator
         profiling, and report the profile plus plan-cache counters *)
      let sql_body =
        let trimmed = String.trim sql in
        match String.index_opt trimmed ' ' with
        | Some i -> String.sub trimmed i (String.length trimmed - i)
        | None -> fail "TRACE needs a query"
      in
      let compiled, instance, _bound = Session.query_bound (session t) sql_body in
      ensure_view t compiled;
      let template = compiled.Template.spec.Template.name in
      let profile = Minirel_exec.Exec_stats.create () in
      (* record this query's span tree regardless of sampling, on the
         engine's own (possibly scoped) tracer; the shell opens the
         root and the trace threads through the whole pipeline *)
      Engine.force_next_trace t.engine;
      let trace = Engine.trace_start t.engine ("select:" ^ template) in
      let stats, used_view =
        match answer_locked ~profile ?trace t instance ~on_tuple:(fun _ _ -> ()) with
        | r ->
            Option.iter (Engine.trace_finish t.engine) trace;
            r
        | exception exn ->
            Option.iter (Engine.trace_finish t.engine) trace;
            raise exn
      in
      let spans =
        match Engine.last_trace t.engine with
        | Some trace -> Fmt.str "@.%a" Minirel_telemetry.Span.pp_trace trace
        | None -> ""
      in
      Traced
        (Fmt.str "template %s%s@.%a%a@.%d tuples (%d from the PMV), exec %.1f µs, overhead %.1f µs%s"
           compiled.Template.spec.Template.name
           (if used_view then " (answered through its PMV)" else "")
           Minirel_exec.Exec_stats.pp profile Minirel_exec.Plan_cache.pp
           (Pmv.Manager.plan_cache (manager t))
           stats.Pmv.Answer.total_count stats.Pmv.Answer.partial_count
           (Int64.to_float stats.Pmv.Answer.exec_ns /. 1e3)
           (Int64.to_float stats.Pmv.Answer.overhead_ns /. 1e3)
           spans)
  | Ast.St_metrics { reset } -> (
      (* the engine's own registry: a scoped shell reports (and resets)
         only its engine's metrics; a sharded shell shows the merged
         view across every shard's registry *)
      match t.router with
      | Some router ->
          if reset then begin
            Router.reset_telemetry router;
            Metrics "telemetry counters reset on every shard (registrations kept)"
          end
          else
            Metrics
              (Fmt.str "merged over %d shards@.%a" (Router.n_shards router)
                 Minirel_telemetry.Registry.pp_snapshot
                 (Router.snapshot_merged router))
      | None ->
          if reset then begin
            Engine.reset_telemetry t.engine;
            Metrics "telemetry counters reset (registrations kept)"
          end
          else
            Metrics
              (Fmt.str "%a" Minirel_telemetry.Registry.pp_snapshot
                 (Engine.snapshot t.engine)))
  | Ast.St_slo { arg } -> (
      match arg with
      | Ast.Slo_report -> Slo_report (Slo.report Slo.default)
      | Ast.Slo_reset ->
          Slo.reset Slo.default;
          Slo_report "slo histograms, breaches and slow-query log reset"
      | Ast.Slo_threshold us ->
          Slo.set_threshold Slo.default (Int64.mul (Int64.of_int us) 1_000L);
          Slo_report (Fmt.str "slo threshold set to %d µs" us))
  | Ast.St_flight { arg } -> (
      match arg with
      | Ast.Flight_dump ->
          Flight.record Flight.Dump_trigger ~a:(Flight.intern "shell.dump");
          Flight_dump (Fmt.str "%a" Flight.pp_dump (Flight.dump ()))
      | Ast.Flight_reset ->
          Flight.reset ();
          Flight_dump "flight recorder rings cleared"
      | Ast.Flight_on ->
          Flight.set_enabled true;
          Flight_dump "flight recorder enabled"
      | Ast.Flight_off ->
          Flight.set_enabled false;
          Flight_dump "flight recorder disabled")
  | Ast.St_budget { arg } -> (
      (* global UB budget arbitration (DESIGN.md Section 17). With a
         router, TOTAL is per shard — consistent with create_view's
         per-shard ub_bytes, the scale-out lever. *)
      let managers =
        match t.router with
        | Some router -> List.map Engine.manager (Router.shards router)
        | None -> [ manager t ]
      in
      match arg with
      | Ast.Budget_total bytes ->
          List.iter (fun m -> Pmv.Manager.set_global_budget ~auto_every:256 m bytes) managers;
          Budget_report
            (Fmt.str
               "global UB budget set to %d bytes%s, auto-rebalance every 256 queries"
               bytes
               (if List.length managers > 1 then " per shard" else ""))
      | Ast.Budget_rebalance ->
          let moves = List.concat_map Pmv.Manager.rebalance managers in
          if moves = [] then
            Budget_report "no budget armed (BUDGET TOTAL <bytes> first) or no views"
          else
            Budget_report
              (String.concat ", "
                 (List.map (fun (name, l) -> Fmt.str "%s -> L=%d" name l) moves))
      | Ast.Budget_status ->
          let b = Buffer.create 128 in
          List.iteri
            (fun i m ->
              if i > 0 then Buffer.add_string b "\n";
              let budget =
                match Pmv.Manager.global_budget m with
                | Some total -> Fmt.str "%d bytes" total
                | None -> "not armed"
              in
              Buffer.add_string b
                (Fmt.str "%sbudget %s, %d rebalances, %d views holding %d bytes"
                   (if List.length managers > 1 then Fmt.str "shard %d: " i else "")
                   budget (Pmv.Manager.rebalances m) (Pmv.Manager.n_views m)
                   (Pmv.Manager.total_bytes m)))
            managers;
          Budget_report (Buffer.contents b))
  | Ast.St_delete { table; where } ->
      if not (Catalog.mem (catalog t) table) then fail "unknown relation %s" table;
      let schema = Catalog.schema (catalog t) table in
      let pred = delete_pred schema where in
      let deltas = run_changes t [ Minirel_txn.Txn.Delete { rel = table; pred } ] in
      Deleted
        (List.fold_left
           (fun acc d -> acc + List.length d.Minirel_txn.Txn.deleted)
           0 deltas)

(* Execute one statement.
   @raise Error (plus the frontend's Lexer/Parser/Binder errors and
   Invalid_argument) on bad input. *)
let exec t sql =
  let result = exec_statement t sql in
  (match t.recorder with Some f -> f sql | None -> ());
  result

let pp_result ppf = function
  | Rows { header; rows; from_pmv; total; overhead_ns } ->
      Fmt.pf ppf "%s@." (String.concat " | " header);
      List.iter (fun row -> Fmt.pf ppf "%a@." Tuple.pp row) rows;
      Fmt.pf ppf "%d rows (%d from the PMV, %d before limit), overhead %.1f µs"
        (List.length rows) from_pmv total
        (Int64.to_float overhead_ns /. 1e3)
  | Grouped { header; groups; partial_groups } ->
      Fmt.pf ppf "%s@." (String.concat " | " header);
      List.iter
        (fun (key, aggs) ->
          Fmt.pf ppf "%a -> %a@." Tuple.pp key Fmt.(list ~sep:comma Value.pp) aggs)
        groups;
      Fmt.pf ppf "%d groups (%d previewed early from the PMV)" (List.length groups)
        (List.length partial_groups)
  | Table_created name -> Fmt.pf ppf "table %s created" name
  | Index_created name -> Fmt.pf ppf "index %s created" name
  | Inserted n -> Fmt.pf ppf "%d row inserted" n
  | Updated n -> Fmt.pf ppf "%d rows updated" n
  | Deleted n -> Fmt.pf ppf "%d rows deleted" n
  | Explained text -> Fmt.pf ppf "%s" text
  | Traced text -> Fmt.pf ppf "%s" text
  | Metrics text -> Fmt.pf ppf "%s" text
  | Slo_report text -> Fmt.pf ppf "%s" text
  | Flight_dump text -> Fmt.pf ppf "%s" text
  | Budget_report text -> Fmt.pf ppf "%s" text
