(* [compare A B]: for every workload and end-to-end metric, the median
   and quartiles of two result sets and a verdict, judged with the
   bounds in BENCHMARK.json. A regression beyond its bound is "worse";
   a spread wider than the bound is "unresolved" unless every run of B
   beats (or loses to) every run of A. Exits 1 when anything is worse,
   including any increase in failed operations. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* Untraced result files of [dir], grouped by workload. *)
let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".json" && not (Filename.check_suffix f ".trace.json"))
  |> List.filter_map (fun f ->
         match Json.read_file (Filename.concat dir f) with
         | exception (Json.Error _ | Sys_error _) -> None
         | j -> (
             match (Json.member "workload" j, Json.member "traced" j) with
             | Some (Json.Str w), Some (Json.Bool false) -> Some (w, j)
             | _ -> None))

let values runs ~workload ~metric =
  List.filter_map
    (fun (w, j) ->
      if w <> workload then None
      else
        Option.bind (Json.member "metrics" j) (Json.member metric)
        |> Fun.flip Option.bind (Json.member "value")
        |> Fun.flip Option.bind Json.to_num)
    runs

let judge ~lower ~bound a b =
  let q1a, ma, q3a = Dist.quartiles a and q1b, mb, q3b = Dist.quartiles b in
  let rel x m = if m = 0.0 then 0.0 else x /. Float.abs m in
  let worse_by = rel (if lower then mb -. ma else ma -. mb) ma in
  let spread_a = rel (q3a -. q1a) ma in
  let spread = Float.max spread_a (rel (q3b -. q1b) mb) in
  let best xs = List.fold_left (if lower then Float.min else Float.max) (List.hd xs) xs in
  let worst xs = List.fold_left (if lower then Float.max else Float.min) (List.hd xs) xs in
  let beats x y = if lower then x < y else x > y in
  let all_better = beats (worst b) (best a) and all_worse = beats (worst a) (best b) in
  if spread > bound && not (all_better || all_worse) then Unresolved
  else if worse_by > bound then Worse
  else if worse_by < 0.0 && (-.worse_by > spread_a || all_better) then Better
  else Same

let run benchmark dir_a dir_b =
  let j = Json.read_file benchmark in
  let metrics = Json.to_list (Option.value (Json.member "end_to_end" j) ~default:(Json.Arr [])) in
  let a = load dir_a and b = load dir_b in
  let workloads = List.sort_uniq compare (List.map fst a) in
  let worse = ref false in
  Fmt.pr "%-17s %-18s %26s %26s %8s  %s@." "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun workload ->
      let n_a = List.length (List.filter (fun (w, _) -> w = workload) a)
      and n_b = List.length (List.filter (fun (w, _) -> w = workload) b) in
      if n_b = 0 then Fmt.pr "%-17s missing from %s@." workload dir_b
      else begin
        List.iter
          (fun m ->
            let str k = Option.bind (Json.member k m) Json.to_str |> Option.value ~default:"" in
            let metric = str "name" in
            let bound =
              Option.bind (Json.member "bound" m) Json.to_num |> Option.value ~default:0.0
            in
            let lower = str "better" = "lower" in
            match (values a ~workload ~metric, values b ~workload ~metric) with
            | [], _ | _, [] -> Fmt.pr "%-17s %-18s missing@." workload metric
            | va, vb ->
                let v = judge ~lower ~bound va vb in
                if v = Worse then worse := true;
                let q1a, ma, q3a = Dist.quartiles va and q1b, mb, q3b = Dist.quartiles vb in
                Fmt.pr
                  "%-17s %-18s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%%  %s (bound %.0f%%)@."
                  workload metric ma q1a q3a mb q1b q3b
                  (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
                  (verdict_name v) (100.0 *. bound))
          metrics;
        let failed runs =
          List.fold_left
            (fun acc (w, j) ->
              match Option.bind (Json.member "failed" j) Json.to_num with
              | Some f when w = workload -> acc +. f
              | _ -> acc)
            0.0 runs
        in
        let fa = failed a and fb = failed b in
        if fb > fa then begin
          worse := true;
          Fmt.pr "%-17s %-18s %26.0f %26.0f %8s  WORSE (any increase)@." workload "failed" fa fb ""
        end;
        Fmt.pr "%-17s runs: A %d, B %d@." workload n_a n_b
      end)
    workloads;
  if !worse then 1 else 0
