(* A strict S/X lock manager over named objects (relations, views,
   PMVs). The engine is single-threaded, so instead of blocking, a
   conflicting request returns [Error conflict]; callers either give up
   or retry after the holder commits. Section 3.6's protocol — queries
   hold an S lock on the PMV across O2 and O3, maintenance takes X —
   is expressed in these terms and exercised by the tests. *)

type mode = S | X

let mode_to_string = function S -> "S" | X -> "X"

type holders = { mutable mode : mode; mutable owners : int list }

type conflict = { obj : string; holders : int list; held : mode; requested : mode }

let pp_conflict ppf c =
  Fmt.pf ppf "%s held in %s by [%a], requested %s" c.obj (mode_to_string c.held)
    Fmt.(list ~sep:comma int)
    c.holders (mode_to_string c.requested)

exception Conflict of conflict

let () =
  Printexc.register_printer (function
    | Conflict c -> Some (Fmt.str "lock conflict: %a" pp_conflict c)
    | _ -> None)

type stats = {
  mutable acquires : int;  (* granted requests *)
  mutable conflicts : int;  (* requests answered [Error] *)
  mutable upgrades : int;  (* S -> X promotions *)
  mutable releases : int;
  acquire_ns : Minirel_telemetry.Histogram.t;
      (* time spent inside [acquire]; the single-threaded engine never
         blocks, so this is the whole "wait" a request experiences *)
}

type t = {
  table : (string, holders) Hashtbl.t;
  stats : stats;
  fault : Minirel_fault.Fault.reg;
}

let create ?(fault = Minirel_fault.Fault.default) () =
  {
    table = Hashtbl.create 64;
    fault;
    stats =
      {
        acquires = 0;
        conflicts = 0;
        upgrades = 0;
        releases = 0;
        acquire_ns = Minirel_telemetry.Histogram.create ();
      };
  }

let stats t = t.stats

let reset_stats t =
  t.stats.acquires <- 0;
  t.stats.conflicts <- 0;
  t.stats.upgrades <- 0;
  t.stats.releases <- 0;
  Minirel_telemetry.Histogram.reset t.stats.acquire_ns

let register_telemetry ?(registry = Minirel_telemetry.Registry.default)
    ?(name = "lockmgr") t =
  let module R = Minirel_telemetry.Registry in
  R.register_source registry ~name
    ~reset:(fun () -> reset_stats t)
    (fun () ->
      [
        ("acquires", R.Counter t.stats.acquires);
        ("conflicts", R.Counter t.stats.conflicts);
        ("upgrades", R.Counter t.stats.upgrades);
        ("releases", R.Counter t.stats.releases);
        ("held_objects", R.Gauge (float_of_int (Hashtbl.length t.table)));
        ( "acquire_ns",
          R.Histogram (Minirel_telemetry.Histogram.summary t.stats.acquire_ns) );
      ])

let acquire_unmeasured t ~txn ~obj mode =
  if Minirel_fault.Fault.fire_in t.fault "lockmgr.acquire" then
    (* injected conflict: looks like an anonymous holder refusing the
       request, so callers exercise their give-up/defer paths *)
    Error { obj; holders = []; held = X; requested = mode }
  else
    match Hashtbl.find_opt t.table obj with
    | None ->
        Hashtbl.replace t.table obj { mode; owners = [ txn ] };
        Ok ()
    | Some h -> (
        let holds = List.mem txn h.owners in
        match (h.mode, mode) with
        | S, S ->
            if not holds then h.owners <- txn :: h.owners;
            Ok ()
        | S, X ->
            if holds && List.for_all (fun o -> o = txn) h.owners then begin
              (* sole S holder: upgrade. Normalise owners to exactly
                 [txn] so no stale duplicate can survive a later
                 [release_all] (a refused request from another txn must
                 never have left a trace here). *)
              h.mode <- X;
              h.owners <- [ txn ];
              t.stats.upgrades <- t.stats.upgrades + 1;
              Ok ()
            end
            else Error { obj; holders = h.owners; held = h.mode; requested = mode }
        | X, _ ->
            if holds then Ok () (* X subsumes S; re-entrant *)
            else Error { obj; holders = h.owners; held = h.mode; requested = mode })

(* The engine never blocks on a lock, so a refused request *is* the
   lock wait: record it in the flight recorder with the object name. *)
let record_conflict obj txn =
  Minirel_telemetry.Flight.record Lock_wait ~a:(Minirel_telemetry.Flight.intern obj)
    ~b:txn

let acquire t ~txn ~obj mode =
  if not (Minirel_telemetry.Telemetry.is_enabled ()) then begin
    let r = acquire_unmeasured t ~txn ~obj mode in
    (match r with Error _ -> record_conflict obj txn | Ok () -> ());
    r
  end
  else begin
    let t0 = Minirel_telemetry.Telemetry.now_ns () in
    let r = acquire_unmeasured t ~txn ~obj mode in
    Minirel_telemetry.Histogram.record t.stats.acquire_ns
      (Int64.sub (Minirel_telemetry.Telemetry.now_ns ()) t0);
    (match r with
    | Ok () -> t.stats.acquires <- t.stats.acquires + 1
    | Error _ ->
        t.stats.conflicts <- t.stats.conflicts + 1;
        record_conflict obj txn);
    r
  end

let release t ~txn ~obj =
  match Hashtbl.find_opt t.table obj with
  | None -> ()
  | Some h ->
      if List.mem txn h.owners then begin
        h.owners <- List.filter (fun o -> o <> txn) h.owners;
        t.stats.releases <- t.stats.releases + 1;
        if h.owners = [] then Hashtbl.remove t.table obj
      end

let release_all t ~txn =
  let objs =
    Hashtbl.fold
      (fun obj h acc -> if List.mem txn h.owners then obj :: acc else acc)
      t.table []
  in
  List.iter (fun obj -> release t ~txn ~obj) objs

let held_by t ~obj =
  Option.map (fun h -> (h.mode, h.owners)) (Hashtbl.find_opt t.table obj)

(* @raise Conflict when the lock cannot be granted. *)
let acquire_exn t ~txn ~obj mode =
  match acquire t ~txn ~obj mode with Ok () -> () | Error c -> raise (Conflict c)
