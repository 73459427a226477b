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
   alive. The counters are atomic, so concurrent clients of one catalog
   count exactly. *)
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

(* Hash-join build table: one pass over the inner heap; each bucket
   keeps heap order. *)
let join_table heap pred inner_key : Tuple.t list ref Tuple.Table.t =
  let tbl : Tuple.t list ref Tuple.Table.t = Tuple.Table.create 1024 in
  Heap_file.iter heap (fun _rid inner_t ->
      if Predicate.eval pred inner_t then begin
        let key = Tuple.project inner_t inner_key in
        match Tuple.Table.find_opt tbl key with
        | Some bucket -> bucket := inner_t :: !bucket
        | None -> Tuple.Table.replace tbl key (ref [ inner_t ])
      end);
  Tuple.Table.iter (fun _ bucket -> bucket := List.rev !bucket) tbl;
  tbl

let rec op_cursor ?profile catalog (plan : Plan.t) : Tuple.t Cursor.t =
  (* register before recursing so profile nodes appear in plan pre-order *)
  let node = Option.map (fun p -> Exec_stats.register p (label plan)) profile in
  let c = build ?profile catalog plan in
  match node with None -> c | Some n -> Exec_stats.instrument n c

and build ?profile catalog (plan : Plan.t) : Tuple.t Cursor.t =
  match plan with
  | Plan.Literal ts -> Cursor.of_list ts
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
      let out = op_cursor ?profile catalog outer in
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
      op_cursor ?profile catalog outer
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
  | Plan.Hash_join { outer; rel; outer_key; inner_key; pred } ->
      let heap = Catalog.heap catalog rel in
      (* build side hashed once per cursor open, on the first pull so
         upstream I/O is charged when the join runs; buckets keep heap
         order, so results match the Nlj fallback exactly *)
      let table = lazy (join_table heap pred inner_key) in
      let out = op_cursor ?profile catalog outer in
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
      Cursor.filter (Predicate.eval pred) (op_cursor ?profile catalog inner)
  | Plan.Project (positions, inner) ->
      Cursor.map
        (fun t -> Tuple.project t positions)
        (op_cursor ?profile catalog inner)
  | Plan.Sort { keys; desc; input } ->
      (* blocking: drain, sort, stream. Materialisation is delayed until
         the first pull so upstream I/O is charged when the sort runs. *)
      let sorted = ref None in
      let cmp a b =
        let c = Tuple.compare (Tuple.project a keys) (Tuple.project b keys) in
        if desc then -c else c
      in
      let inner = op_cursor ?profile catalog input in
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
      let inner = op_cursor ?profile catalog input in
      fun () ->
        if !remaining <= 0 then None
        else begin
          decr remaining;
          inner ()
        end
  | Plan.Aggregate { group_by; aggs; input } ->
      let inner = op_cursor ?profile catalog input in
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
let cursor ?profile catalog plan =
  let c = op_cursor ?profile catalog plan in
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

let run_to_list ?profile catalog plan = Cursor.to_list (cursor ?profile catalog plan)
let count ?profile catalog plan = Cursor.count (cursor ?profile catalog plan)
