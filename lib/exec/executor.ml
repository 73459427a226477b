(* Plan interpreter: compiles a [Plan.t] into a pull cursor against a
   catalog. Heap fetches and index node visits are charged to the
   catalog's buffer pool, so [Io_stats] diffs around a cursor drain give
   the simulated I/O cost of the query.

   The drains avoid intermediate lists: Scan refills a reusable array
   batch per page, and the index access paths stream rids straight into
   heap fetches. Passing [profile] wraps every operator with row/time
   counters (Exec_stats); without it the cursors are uninstrumented. *)

open Minirel_storage
open Minirel_query
module Catalog = Minirel_index.Catalog
module Index = Minirel_index.Index

let find_index catalog ~rel ~name =
  match List.find_opt (fun ix -> Index.name ix = name) (Catalog.indexes catalog rel) with
  | Some ix -> ix
  | None -> invalid_arg (Fmt.str "Executor: no index %s on %s" name rel)

(* --- aggregate machinery for the Aggregate node --- *)

type agg_state = {
  spec : Plan.agg;
  mutable cnt : int;
  mutable sum : float;
  mutable min_a : Value.t option;
  mutable max_a : Value.t option;
}

let new_agg_state spec = { spec; cnt = 0; sum = 0.0; min_a = None; max_a = None }

let agg_input_value spec (t : Tuple.t) =
  match spec with
  | Plan.Count_star -> None
  | Plan.Sum_of i | Plan.Avg_of i | Plan.Min_of i | Plan.Max_of i -> Some t.(i)

let float_of_num = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Null -> 0.0
  | Value.Str _ -> invalid_arg "Executor: cannot aggregate a string attribute"

let agg_step st t =
  st.cnt <- st.cnt + 1;
  match agg_input_value st.spec t with
  | None -> ()
  | Some v ->
      st.sum <- st.sum +. float_of_num v;
      (match st.min_a with
      | None -> st.min_a <- Some v
      | Some m -> if Value.compare v m < 0 then st.min_a <- Some v);
      (match st.max_a with
      | None -> st.max_a <- Some v
      | Some m -> if Value.compare v m > 0 then st.max_a <- Some v)

let agg_finish st =
  match st.spec with
  | Plan.Count_star -> Value.Int st.cnt
  | Plan.Sum_of _ -> Value.Float st.sum
  | Plan.Avg_of _ ->
      if st.cnt = 0 then Value.Null else Value.Float (st.sum /. float_of_int st.cnt)
  | Plan.Min_of _ -> Option.value ~default:Value.Null st.min_a
  | Plan.Max_of _ -> Option.value ~default:Value.Null st.max_a

let label = function
  | Plan.Literal ts -> Fmt.str "literal(%d)" (List.length ts)
  | Plan.Scan { rel; _ } -> Fmt.str "scan(%s)" rel
  | Plan.Index_lookup { rel; index; _ } -> Fmt.str "ixlookup(%s.%s)" rel index
  | Plan.Index_range { rel; index; _ } -> Fmt.str "ixrange(%s.%s)" rel index
  | Plan.Inlj { rel; index; _ } -> Fmt.str "inlj(%s.%s)" rel index
  | Plan.Nlj { rel; _ } -> Fmt.str "nlj(%s)" rel
  | Plan.Hash_join { rel; _ } -> Fmt.str "hashjoin(%s)" rel
  | Plan.Filter _ -> "filter"
  | Plan.Project _ -> "project"
  | Plan.Sort _ -> "sort"
  | Plan.Limit (n, _) -> Fmt.str "limit(%d)" n
  | Plan.Aggregate _ -> "aggregate"

(* Executor telemetry: cursors opened and tuples produced at plan
   roots. The executor itself is stateless, so the counters live in the
   catalog they count: each engine's registry reports only the queries
   run against that engine's catalog, resetting one scope leaves the
   others alone, and nothing global keeps a dropped engine's catalog
   alive. The counters are atomic: morsel tasks on the pool open
   cursors concurrently. *)
let register_telemetry ?(registry = Minirel_telemetry.Registry.default)
    ?(name = "exec") catalog =
  let module R = Minirel_telemetry.Registry in
  let cursors = Catalog.cursors catalog and root_tuples = Catalog.root_tuples catalog in
  R.register_source registry ~name
    ~reset:(fun () ->
      Atomic.set cursors 0;
      Atomic.set root_tuples 0)
    (fun () ->
      [
        ("cursors", R.Counter (Atomic.get cursors));
        ("root_tuples", R.Counter (Atomic.get root_tuples));
      ])

(* --- morsel-driven parallel scans ---

   When the executor owns a Domain pool (and profiling is off —
   Exec_stats trees are single-owner), heap scans split their page
   range into morsels executed on the pool. Work product order is
   morsel order = page order, so every parallel stream below is
   tuple-for-tuple identical to its sequential counterpart. *)

module Pool = Minirel_parallel.Pool

(* Morsel *batches* are the steal unit: ~8 batches per domain gives
   thieves slack against uneven predicate selectivity (a domain stuck
   on a dense range sheds whole batches, not single pages), while a
   2-page floor keeps each batch coarse enough that a steal pays for
   more than its CAS. The work-stealing pool made dispatch cheap
   (deque push/pop instead of a global mutexed FIFO), which is what
   affords a finer split than the old 4-per-domain one. *)
let morsel_min_pages = 2

let morsel_ranges ~n_pages ~domains =
  if n_pages <= 0 then [||]
  else begin
    let target = max 1 (min (max 1 (n_pages / morsel_min_pages)) (8 * domains)) in
    let per = (n_pages + target - 1) / target in
    let n = (n_pages + per - 1) / per in
    Array.init n (fun i -> (i * per, min n_pages (succ i * per)))
  end

(* A pool is only worth dispatching to with >= 2 workers. *)
let par_active = function
  | Some pool when Pool.size pool >= 2 -> Some pool
  | _ -> None

(* Scan pages [lo, hi), filter, keep page order. Runs on a pool worker;
   buffer-pool I/O is charged from the worker (the pool is locked). *)
let scan_morsel heap pred (lo, hi) =
  let acc = ref [] in
  for p = lo to hi - 1 do
    Heap_file.iter_page heap p (fun _rid t ->
        if Predicate.eval pred t then acc := t :: !acc)
  done;
  List.rev !acc

(* Parallel hash-join build: per-morsel partial tables (buckets in
   reversed page order, as in the sequential build), merged in morsel
   order so every bucket ends up in global heap order. Falls back to
   the sequential single-pass build without a pool. *)
let join_table ?par heap pred inner_key : Tuple.t list ref Tuple.Table.t =
  let bucket_add tbl inner_t =
    let key = Tuple.project inner_t inner_key in
    match Tuple.Table.find_opt tbl key with
    | Some bucket -> bucket := inner_t :: !bucket
    | None -> Tuple.Table.replace tbl key (ref [ inner_t ])
  in
  match par_active par with
  | Some pool when Heap_file.n_pages heap >= 2 ->
      let ranges =
        morsel_ranges ~n_pages:(Heap_file.n_pages heap) ~domains:(Pool.size pool)
      in
      let partials =
        Pool.map pool
          (fun (lo, hi) ->
            let tbl : Tuple.t list ref Tuple.Table.t = Tuple.Table.create 256 in
            for p = lo to hi - 1 do
              Heap_file.iter_page heap p (fun _rid inner_t ->
                  if Predicate.eval pred inner_t then bucket_add tbl inner_t)
            done;
            tbl)
          ranges
      in
      let tbl : Tuple.t list ref Tuple.Table.t = Tuple.Table.create 1024 in
      Array.iter
        (fun part ->
          Tuple.Table.iter
            (fun key bucket ->
              let items = List.rev !bucket in
              match Tuple.Table.find_opt tbl key with
              | Some b -> b := !b @ items
              | None -> Tuple.Table.replace tbl key (ref items))
            part)
        partials;
      tbl
  | _ ->
      let tbl : Tuple.t list ref Tuple.Table.t = Tuple.Table.create 1024 in
      Heap_file.iter heap (fun _rid inner_t ->
          if Predicate.eval pred inner_t then bucket_add tbl inner_t);
      Tuple.Table.iter (fun _ bucket -> bucket := List.rev !bucket) tbl;
      tbl

(* A cursor over a list materialised on the first pull, so upstream
   I/O keeps being charged when the consumer actually runs. *)
let lazy_list_cursor produce =
  let state = ref None in
  fun () ->
    let cur =
      match !state with
      | Some cur -> cur
      | None ->
          let cur = Cursor.of_list (produce ()) in
          state := Some cur;
          cur
    in
    cur ()

let rec op_cursor ?par ?profile catalog (plan : Plan.t) : Tuple.t Cursor.t =
  (* register before recursing so profile nodes appear in plan pre-order *)
  let node = Option.map (fun p -> Exec_stats.register p (label plan)) profile in
  let c = build ?par ?profile catalog plan in
  match node with None -> c | Some n -> Exec_stats.instrument n c

and build ?par ?profile catalog (plan : Plan.t) : Tuple.t Cursor.t =
  match plan with
  | Plan.Literal ts -> Cursor.of_list ts
  | Plan.Scan { rel; pred } when par_active par <> None ->
      let pool = Option.get (par_active par) in
      let heap = Catalog.heap catalog rel in
      let n_pages = Heap_file.n_pages heap in
      lazy_list_cursor (fun () ->
          let ranges = morsel_ranges ~n_pages ~domains:(Pool.size pool) in
          let parts = Pool.map pool (scan_morsel heap pred) ranges in
          List.concat (Array.to_list parts))
  | Plan.Scan { rel; pred } ->
      let heap = Catalog.heap catalog rel in
      (* page by page through a reusable array batch; the page count
         snapshot keeps the cursor insensitive to pages appended while
         it is drained *)
      let n_pages = Heap_file.n_pages heap in
      let page = ref 0 in
      let buf = ref (Array.make 64 ([||] : Tuple.t)) in
      let len = ref 0 and pos = ref 0 in
      let stash t =
        if !len >= Array.length !buf then begin
          let bigger = Array.make (2 * Array.length !buf) ([||] : Tuple.t) in
          Array.blit !buf 0 bigger 0 !len;
          buf := bigger
        end;
        !buf.(!len) <- t;
        incr len
      in
      let rec next () =
        if !pos < !len then begin
          let t = !buf.(!pos) in
          incr pos;
          if Predicate.eval pred t then Some t else next ()
        end
        else if !page >= n_pages then None
        else begin
          let p = !page in
          incr page;
          len := 0;
          pos := 0;
          Heap_file.iter_page heap p (fun _rid t -> stash t);
          next ()
        end
      in
      next
  | Plan.Index_lookup { rel; index; keys; pred } ->
      let heap = Catalog.heap catalog rel in
      let ix = find_index catalog ~rel ~name:index in
      let remaining = ref keys in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | rid :: rest -> (
            pending := rest;
            match Heap_file.fetch heap rid with
            | t when Predicate.eval pred t -> Some t
            | _ | (exception Not_found) -> next ())
        | [] -> (
            match !remaining with
            | [] -> None
            | key :: rest ->
                remaining := rest;
                pending := Index.find ix key;
                next ())
      in
      next
  | Plan.Index_range { rel; index; ranges; pred } ->
      let heap = Catalog.heap catalog rel in
      let ix = find_index catalog ~rel ~name:index in
      let remaining = ref ranges in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | rid :: rest -> (
            pending := rest;
            match Heap_file.fetch heap rid with
            | t when Predicate.eval pred t -> Some t
            | _ | (exception Not_found) -> next ())
        | [] -> (
            match !remaining with
            | [] -> None
            | (lo, hi) :: rest ->
                remaining := rest;
                let rids = ref [] in
                Index.range ix ~lo ~hi (fun _key krids -> rids := krids :: !rids);
                pending := List.concat (List.rev !rids);
                next ())
      in
      next
  | Plan.Inlj { outer; rel; index; outer_key; pred } ->
      let heap = Catalog.heap catalog rel in
      let ix = find_index catalog ~rel ~name:index in
      let out = op_cursor ?par ?profile catalog outer in
      let current = ref ([||] : Tuple.t) in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | rid :: rest -> (
            pending := rest;
            match Heap_file.fetch heap rid with
            | inner_t when Predicate.eval pred inner_t -> Some (Tuple.concat !current inner_t)
            | _ | (exception Not_found) -> next ())
        | [] -> (
            match out () with
            | None -> None
            | Some outer_t ->
                current := outer_t;
                pending := Index.find ix (Tuple.project outer_t outer_key);
                next ())
      in
      next
  | Plan.Nlj { outer; rel; eq; pred } ->
      let heap = Catalog.heap catalog rel in
      op_cursor ?par ?profile catalog outer
      |> Cursor.concat_map_list (fun outer_t ->
             let matches = ref [] in
             Heap_file.iter heap (fun _rid inner_t ->
                 if
                   Predicate.eval pred inner_t
                   && List.for_all
                        (fun (op, ip) -> Value.equal outer_t.(op) inner_t.(ip))
                        eq
                 then matches := Tuple.concat outer_t inner_t :: !matches);
             List.rev !matches)
  | Plan.Hash_join
      { outer = Plan.Scan { rel = orel; pred = opred }; rel; outer_key; inner_key; pred }
    when par_active par <> None ->
      (* both join phases morsel-parallel: build the shared table from
         inner morsels, then probe outer morsels against it. After the
         build the table is read-only, so concurrent probes need no
         lock; output concatenates in morsel order = page order, so the
         stream matches the sequential join tuple for tuple. *)
      let pool = Option.get (par_active par) in
      let heap = Catalog.heap catalog rel in
      let oheap = Catalog.heap catalog orel in
      lazy_list_cursor (fun () ->
          let table = join_table ?par heap pred inner_key in
          let ranges =
            morsel_ranges ~n_pages:(Heap_file.n_pages oheap)
              ~domains:(Pool.size pool)
          in
          let parts =
            Pool.map pool
              (fun (lo, hi) ->
                let acc = ref [] in
                for p = lo to hi - 1 do
                  Heap_file.iter_page oheap p (fun _rid outer_t ->
                      if Predicate.eval opred outer_t then
                        match
                          Tuple.Table.find_opt table
                            (Tuple.project outer_t outer_key)
                        with
                        | Some bucket ->
                            List.iter
                              (fun inner_t ->
                                acc := Tuple.concat outer_t inner_t :: !acc)
                              !bucket
                        | None -> ())
                done;
                List.rev !acc)
              ranges
          in
          List.concat (Array.to_list parts))
  | Plan.Hash_join { outer; rel; outer_key; inner_key; pred } ->
      let heap = Catalog.heap catalog rel in
      (* build side hashed once per cursor open, on the first pull so
         upstream I/O is charged when the join runs; buckets keep heap
         order, so results match the Nlj fallback exactly. The build
         itself morsel-parallelises when a pool is present. *)
      let table = lazy (join_table ?par heap pred inner_key) in
      let out = op_cursor ?par ?profile catalog outer in
      let current = ref ([||] : Tuple.t) in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | inner_t :: rest ->
            pending := rest;
            Some (Tuple.concat !current inner_t)
        | [] -> (
            match out () with
            | None -> None
            | Some outer_t ->
                current := outer_t;
                (pending :=
                   match
                     Tuple.Table.find_opt (Lazy.force table)
                       (Tuple.project outer_t outer_key)
                   with
                   | Some bucket -> !bucket
                   | None -> []);
                next ())
      in
      next
  | Plan.Filter (pred, inner) ->
      Cursor.filter (Predicate.eval pred) (op_cursor ?par ?profile catalog inner)
  | Plan.Project (positions, inner) ->
      Cursor.map
        (fun t -> Tuple.project t positions)
        (op_cursor ?par ?profile catalog inner)
  | Plan.Sort { keys; desc; input } ->
      (* blocking: drain, sort, stream. Materialisation is delayed until
         the first pull so upstream I/O is charged when the sort runs. *)
      let sorted = ref None in
      let cmp a b =
        let c = Tuple.compare (Tuple.project a keys) (Tuple.project b keys) in
        if desc then -c else c
      in
      let inner = op_cursor ?par ?profile catalog input in
      fun () ->
        let cur =
          match !sorted with
          | Some cur -> cur
          | None ->
              let cur = Cursor.of_list (List.stable_sort cmp (Cursor.to_list inner)) in
              sorted := Some cur;
              cur
        in
        cur ()
  | Plan.Limit (n, input) ->
      let remaining = ref n in
      let inner = op_cursor ?par ?profile catalog input in
      fun () ->
        if !remaining <= 0 then None
        else begin
          decr remaining;
          inner ()
        end
  | Plan.Aggregate { group_by; aggs; input } ->
      let inner = op_cursor ?par ?profile catalog input in
      let materialized = ref None in
      fun () ->
        let cur =
          match !materialized with
          | Some cur -> cur
          | None ->
              let groups : (Tuple.t * agg_state list) Tuple.Table.t =
                Tuple.Table.create 64
              in
              let order = ref [] in
              Cursor.iter
                (fun t ->
                  let key = Tuple.project t group_by in
                  let _, states =
                    match Tuple.Table.find_opt groups key with
                    | Some entry -> entry
                    | None ->
                        let entry = (key, List.map new_agg_state aggs) in
                        Tuple.Table.replace groups key entry;
                        order := key :: !order;
                        entry
                  in
                  List.iter (fun st -> agg_step st t) states)
                inner;
              let rows =
                List.rev_map
                  (fun key ->
                    let _, states = Option.get (Tuple.Table.find_opt groups key) in
                    Tuple.concat key (Array.of_list (List.map agg_finish states)))
                  !order
              in
              let cur = Cursor.of_list rows in
              materialized := Some cur;
              cur
        in
        cur ()

(* Public entry: the root cursor additionally feeds the catalog's
   executor counters. The per-tuple wrapper is built only while
   telemetry is enabled, so the disabled mode pays nothing per pull. *)
let cursor ?par ?profile catalog plan =
  (* profiled runs stay sequential: Exec_stats trees are single-owner *)
  let par = if profile = None then par else None in
  let c = op_cursor ?par ?profile catalog plan in
  if not (Minirel_telemetry.Telemetry.is_enabled ()) then c
  else begin
    let root_tuples = Catalog.root_tuples catalog in
    Atomic.incr (Catalog.cursors catalog);
    fun () ->
      match c () with
      | Some _ as r ->
          Atomic.incr root_tuples;
          r
      | None -> None
  end

let run_to_list ?par ?profile catalog plan =
  Cursor.to_list (cursor ?par ?profile catalog plan)

let count ?par ?profile catalog plan = Cursor.count (cursor ?par ?profile catalog plan)
