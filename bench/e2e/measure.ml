(* The timed phase: one client drives the op stream in a closed loop
   and times every call from the outside. It stops after a fixed
   number of ops or at a deadline; with a deadline the stream wraps
   around (DML re-runs are harmless: new orders take fresh keys, and
   a repeated delete or update matches what it matches).

   Quiet windows. The host shares its last-level cache and memory
   bandwidth with other tenants, and for seconds at a time that slows
   this memory-bound workload by up to 2x, while a register-only loop
   runs at full speed. So the loop times a small reference probe, a
   fixed set of hash-table lookups over an L2-sized table, about once
   a millisecond between ops (never inside an op's latency). The run
   is cut into 50 ms slices; a slice is quiet when its median probe
   time is within 10% of the run's best slice. End-to-end metrics are
   computed over the ops of the quiet slices, or of the quietest
   quarter of slices when fewer are quiet. The probe is the
   benchmark's own code, so a change to the system cannot move it
   except through the cache state it leaves, which shifts every slice
   alike. Per-layer aggregates cover every op. *)

module W = Workload
module Router = Minirel_engine.Shard_router

type stop = Ops of int | Deadline of int

let slice_ns = 50_000_000
let probe_every_ns = 1_000_000

(* Slices at the start of a long run are skipped: the caches are
   still cold from the live-heap walk that ends the set-up. *)
let settle_slices = 4

let probe_table =
  let t = Hashtbl.create 4096 in
  for j = 0 to 4095 do
    Hashtbl.replace t j [| j; j |]
  done;
  t

let probe () =
  let acc = ref 0 in
  for j = 0 to 255 do
    acc := !acc + (Hashtbl.find probe_table ((j * 7919) land 4095)).(1)
  done;
  ignore (Sys.opaque_identity !acc)

let txn_class = Array.length W.shapes

type t = {
  (* one entry per op, in order *)
  op_us : float Dist.vec;
  ttfr_us : float Dist.vec;  (* nan unless a plain query delivered a tuple *)
  cls : int Dist.vec;  (* Workload.shape_index, or [txn_class] *)
  slice : int Dist.vec;
  (* one entry per reference probe *)
  probe_ns : int Dist.vec;
  probe_slice : int Dist.vec;
  mutable ops : int;
  mutable queries : int;
  mutable txns : int;
  mutable failed : int;
  mutable wall_ns : int;
  mutable checksum : int;
  mutable rows : int;
  (* from the returned Answer.stats *)
  mutable stats_queries : int;
  mutable stats_wall_ns : int;
  mutable overhead_ns : int;
  mutable exec_ns : int;
  mutable probes : int;
  mutable probe_hits : int;
  mutable fills : int;
  mutable io_reads : int;
  mutable stale_purged : int;
  mutable plain_partial : int;
  mutable plain_total : int;
  mutable exists : int;
  mutable exists_from_pmv : int;
  (* traced only *)
  mutable fallback_gap_ns : int;  (* router fallbacks: wall - summed shard stats *)
  mutable txn_wall_ns : int;
  mutable txn_base_ns : int;
  mutable txn_maint_ns : int;
  mutable rebalance_ns : int;
  mutable pending_max : int;
}

let create () =
  {
    op_us = Dist.vec ();
    ttfr_us = Dist.vec ();
    cls = Dist.vec ();
    slice = Dist.vec ();
    probe_ns = Dist.vec ();
    probe_slice = Dist.vec ();
    ops = 0;
    queries = 0;
    txns = 0;
    failed = 0;
    wall_ns = 0;
    checksum = 0;
    rows = 0;
    stats_queries = 0;
    stats_wall_ns = 0;
    overhead_ns = 0;
    exec_ns = 0;
    probes = 0;
    probe_hits = 0;
    fills = 0;
    io_reads = 0;
    stale_purged = 0;
    plain_partial = 0;
    plain_total = 0;
    exists = 0;
    exists_from_pmv = 0;
    fallback_gap_ns = 0;
    txn_wall_ns = 0;
    txn_base_ns = 0;
    txn_maint_ns = 0;
    rebalance_ns = 0;
    pending_max = 0;
  }

let us ns = float_of_int ns /. 1e3

let tags =
  Array.init 8 (fun i -> Printf.sprintf "%s t%d" (W.shape_name W.shapes.(i / 2)) (1 + (i mod 2)))

let note_stats m (q : W.query) (s : Pmv.Answer.stats) ~wall =
  m.stats_queries <- m.stats_queries + 1;
  m.stats_wall_ns <- m.stats_wall_ns + wall;
  m.overhead_ns <- m.overhead_ns + Int64.to_int s.Pmv.Answer.overhead_ns;
  m.exec_ns <- m.exec_ns + Int64.to_int s.Pmv.Answer.exec_ns;
  m.probes <- m.probes + s.Pmv.Answer.probes;
  m.probe_hits <- m.probe_hits + s.Pmv.Answer.probe_hits;
  m.fills <- m.fills + s.Pmv.Answer.filled;
  m.io_reads <- m.io_reads + s.Pmv.Answer.io_reads;
  m.stale_purged <- m.stale_purged + s.Pmv.Answer.stale_purged;
  if q.W.shape = W.Plain then begin
    m.plain_partial <- m.plain_partial + s.Pmv.Answer.partial_count;
    m.plain_total <- m.plain_total + s.Pmv.Answer.total_count
  end

(* Run the stream. [spans] is the traced run's recorder; every traced
   measurement below is skipped without one. *)
let run (sut : Sut.t) stream ~stop ?spans () =
  let m = create () in
  let traced = Option.is_some spans in
  let a = Sut.acc () in
  let stamps = sut.Sut.stamps in
  let len = Array.length stream in
  let every = match sut.Sut.w.W.budget with W.Global { every; _ } -> every | W.Static _ -> 0 in
  let router = match sut.Sut.backend with Sut.R r -> Some r | Sut.E _ -> None in
  let views = if traced then Sut.views sut else [] in
  let start = Sut.now_ns () in
  let last_probe = ref 0 in
  let fin = ref false in
  while not !fin do
    let i = m.ops in
    let op = stream.(i mod len) in
    let t0 = Sut.now_ns () in
    let ttfr = ref Float.nan in
    (match op with
    | W.Query q -> (
        a.rows <- 0;
        a.first <- 0;
        let fb0 =
          match router with Some r when traced -> (Router.probe_stats r).Router.fallbacks | _ -> 0
        in
        match Sut.query sut a q with
        | stats ->
            let t1 = Sut.now_ns () in
            let wall = t1 - t0 in
            m.queries <- m.queries + 1;
            m.checksum <- m.checksum + a.checksum;
            a.checksum <- 0;
            m.rows <- m.rows + a.rows;
            if q.W.shape = W.Plain && a.rows > 0 then ttfr := us (a.first - t0);
            if q.W.shape = W.Exists then begin
              m.exists <- m.exists + 1;
              if a.from_pmv then m.exists_from_pmv <- m.exists_from_pmv + 1
            end;
            Option.iter (note_stats m q ~wall) stats;
            Option.iter
              (fun sp ->
                (match (router, stats) with
                | Some r, Some s when (Router.probe_stats r).Router.fallbacks > fb0 ->
                    m.fallback_gap_ns <-
                      m.fallback_gap_ns + wall
                      - Int64.to_int s.Pmv.Answer.overhead_ns
                      - Int64.to_int s.Pmv.Answer.exec_ns
                | _ -> ());
                let tag = tags.((2 * W.shape_index q.W.shape) + q.W.tpl) in
                Spans.record sp ~kind:Spans.Query ~op:i ~start:t0 ~stop:t1 ~tag;
                if a.first > 0 then
                  Spans.record sp ~kind:Spans.First_tuple ~op:i ~start:a.first ~stop:a.first ~tag)
              spans
        | exception _ ->
            a.checksum <- 0;
            m.failed <- m.failed + 1)
    | W.Dml d -> (
        stamps.Sut.base_done <- 0;
        stamps.Sut.maint_done <- 0;
        match Sut.dml sut d with
        | () ->
            let t1 = Sut.now_ns () in
            let wall = t1 - t0 in
            m.txns <- m.txns + 1;
            Option.iter
              (fun sp ->
                m.txn_wall_ns <- m.txn_wall_ns + wall;
                let b = stamps.Sut.base_done and e = stamps.Sut.maint_done in
                if b > 0 && e >= b then begin
                  m.txn_base_ns <- m.txn_base_ns + (b - t0);
                  m.txn_maint_ns <- m.txn_maint_ns + (e - b);
                  Spans.record sp ~kind:Spans.Txn_base ~op:i ~start:t0 ~stop:b ~tag:"";
                  Spans.record sp ~kind:Spans.Pmv_maintain ~op:i ~start:b ~stop:e ~tag:""
                end;
                Spans.record sp ~kind:Spans.Txn ~op:i ~start:t0 ~stop:t1 ~tag:"";
                List.iter
                  (fun v -> m.pending_max <- max m.pending_max (Pmv.Maintain.n_pending v))
                  views)
              spans
        | exception _ -> m.failed <- m.failed + 1));
    let t1 = Sut.now_ns () in
    Dist.push m.op_us (us (t1 - t0));
    Dist.push m.ttfr_us !ttfr;
    Dist.push m.cls (match op with W.Query q -> W.shape_index q.W.shape | W.Dml _ -> txn_class);
    Dist.push m.slice ((t0 - start) / slice_ns);
    m.ops <- i + 1;
    if every > 0 && m.ops mod every = 0 then begin
      Sut.rebalance sut;
      let t2 = Sut.now_ns () in
      m.rebalance_ns <- m.rebalance_ns + (t2 - t1);
      Option.iter
        (fun sp -> Spans.record sp ~kind:Spans.Rebalance ~op:i ~start:t1 ~stop:t2 ~tag:"")
        spans
    end;
    let now = Sut.now_ns () in
    if now - !last_probe >= probe_every_ns then begin
      probe ();
      last_probe := Sut.now_ns ();
      Dist.push m.probe_ns (!last_probe - now);
      Dist.push m.probe_slice ((now - start) / slice_ns)
    end;
    fin := match stop with Ops n -> m.ops >= n | Deadline d -> now >= d
  done;
  m.wall_ns <- Sut.now_ns () - start;
  m

(* --- the quiet windows --------------------------------------------------- *)

type summary = {
  ops_per_s : float;
  ttfr : float array;  (* sorted µs, plain queries *)
  ttc : float array;  (* sorted µs, every query *)
  op : float array;  (* sorted µs, every op *)
  slices : int;  (* full slices eligible for selection *)
  quiet : int;  (* of which selected *)
  probe_us : float;  (* median reference-probe time in the selected slices *)
}

(* The selected slices as a mask over slice indices, with the counts
   of eligible and selected slices; [None] when the run is too short
   to cut (every op then counts). *)
let quiet_mask m =
  let full = m.wall_ns / slice_ns in
  let first = if full >= 5 * settle_slices then settle_slices else 0 in
  let samples = Array.make full [] in
  for j = 0 to Dist.count m.probe_ns - 1 do
    let s = Dist.get m.probe_slice j in
    if s < full then samples.(s) <- float_of_int (Dist.get m.probe_ns j) :: samples.(s)
  done;
  let speed =
    List.filter_map
      (fun s -> if samples.(s) = [] then None else Some (s, Dist.median samples.(s)))
      (List.init (max 0 (full - first)) (fun k -> first + k))
  in
  match speed with
  | [] -> None
  | _ ->
      let best = List.fold_left (fun b (_, v) -> Float.min b v) Float.infinity speed in
      let quiet = List.filter (fun (_, v) -> v <= 1.10 *. best) speed in
      let quarter = (List.length speed + 3) / 4 in
      let chosen =
        if List.length quiet >= quarter then quiet
        else
          List.filteri
            (fun k _ -> k < quarter)
            (List.sort (fun (_, x) (_, y) -> Float.compare x y) speed)
      in
      let mask = Array.make full false in
      List.iter (fun (s, _) -> mask.(s) <- true) chosen;
      Some (mask, List.length speed, List.length chosen)

let sorted v = Dist.sort (Array.sub v.Dist.a 0 v.Dist.n)

let summarize m =
  let mask = quiet_mask m in
  let selected s =
    match mask with None -> true | Some (mk, _, _) -> s < Array.length mk && mk.(s)
  in
  let ttfr = Dist.vec () and ttc = Dist.vec () and op = Dist.vec () in
  for i = 0 to m.ops - 1 do
    if selected (Dist.get m.slice i) then begin
      let lat = Dist.get m.op_us i in
      Dist.push op lat;
      if Dist.get m.cls i <> txn_class then Dist.push ttc lat;
      let f = Dist.get m.ttfr_us i in
      if not (Float.is_nan f) then Dist.push ttfr f
    end
  done;
  let ops_per_s, slices, quiet =
    match mask with
    | None -> (float_of_int m.ops *. 1e9 /. float_of_int (max 1 m.wall_ns), 0, 0)
    | Some (_, eligible, chosen) ->
        (* the probes' own time inside the chosen slices is not the system's *)
        let probe_ns = ref 0 in
        for j = 0 to Dist.count m.probe_ns - 1 do
          if selected (Dist.get m.probe_slice j) then probe_ns := !probe_ns + Dist.get m.probe_ns j
        done;
        ( float_of_int (Dist.count op) *. 1e9 /. float_of_int ((chosen * slice_ns) - !probe_ns),
          eligible,
          chosen )
  in
  let probes = ref [] in
  for j = 0 to Dist.count m.probe_ns - 1 do
    if selected (Dist.get m.probe_slice j) then
      probes := (float_of_int (Dist.get m.probe_ns j) /. 1e3) :: !probes
  done;
  {
    ops_per_s;
    ttfr = sorted ttfr;
    ttc = sorted ttc;
    op = sorted op;
    slices;
    quiet;
    probe_us = Dist.median !probes;
  }

(* Every op's latency of one class, sorted: the per-layer shape costs. *)
let class_latencies m c =
  let v = Dist.vec () in
  for i = 0 to m.ops - 1 do
    if Dist.get m.cls i = c then Dist.push v (Dist.get m.op_us i)
  done;
  sorted v
