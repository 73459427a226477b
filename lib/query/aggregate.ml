(* Associative aggregate accumulators (see the .mli for the merge and
   exactness contracts). *)

open Minirel_storage

type spec =
  | Count
  | Count_of of int
  | Sum of int
  | Avg of int
  | Min of int
  | Max of int

let arg_pos = function
  | Count -> None
  | Count_of p | Sum p | Avg p | Min p | Max p -> Some p

let name = function
  | Count | Count_of _ -> "count"
  | Sum _ -> "sum"
  | Avg _ -> "avg"
  | Min _ -> "min"
  | Max _ -> "max"

type acc = {
  mutable n : int;
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable mn : Value.t option;
  mutable mx : Value.t option;
}

let create () =
  { n = 0; sum_int = 0; sum_float = 0.0; saw_float = false; mn = None; mx = None }

let add_value acc = function
  | Value.Null -> ()
  | v ->
      acc.n <- acc.n + 1;
      (match v with
      | Value.Int i -> acc.sum_int <- acc.sum_int + i
      | Value.Float f ->
          acc.sum_float <- acc.sum_float +. f;
          acc.saw_float <- true
      | _ -> ());
      (match acc.mn with
      | Some m when Value.compare m v <= 0 -> ()
      | _ -> acc.mn <- Some v);
      match acc.mx with
      | Some m when Value.compare m v >= 0 -> ()
      | _ -> acc.mx <- Some v

let add spec acc tuple =
  match spec with
  | Count -> acc.n <- acc.n + 1
  | Count_of p | Sum p | Avg p | Min p | Max p -> add_value acc tuple.(p)

let merge dst src =
  dst.n <- dst.n + src.n;
  dst.sum_int <- dst.sum_int + src.sum_int;
  dst.sum_float <- dst.sum_float +. src.sum_float;
  dst.saw_float <- dst.saw_float || src.saw_float;
  (match src.mn with
  | None -> ()
  | Some v -> (
      match dst.mn with
      | Some m when Value.compare m v <= 0 -> ()
      | _ -> dst.mn <- Some v));
  match src.mx with
  | None -> ()
  | Some v -> (
      match dst.mx with
      | Some m when Value.compare m v >= 0 -> ()
      | _ -> dst.mx <- Some v)

let sum_value acc =
  if acc.saw_float then Value.Float (acc.sum_float +. float_of_int acc.sum_int)
  else Value.Int acc.sum_int

let finalize spec acc =
  match spec with
  | Count | Count_of _ -> Value.Int acc.n
  | Sum _ -> if acc.n = 0 then Value.Null else sum_value acc
  | Avg _ ->
      if acc.n = 0 then Value.Null
      else
        let s =
          match sum_value acc with
          | Value.Int i -> float_of_int i
          | Value.Float f -> f
          | _ -> 0.0
        in
        Value.Float (s /. float_of_int acc.n)
  | Min _ -> ( match acc.mn with Some v -> v | None -> Value.Null)
  | Max _ -> ( match acc.mx with Some v -> v | None -> Value.Null)

let of_tuples specs tuples =
  let accs = Array.map (fun _ -> create ()) specs in
  List.iter (fun t -> Array.iteri (fun i spec -> add spec accs.(i) t) specs) tuples;
  accs

let equal_acc spec a b =
  match spec with
  | Count | Count_of _ -> a.n = b.n
  | Sum _ | Avg _ ->
      a.n = b.n
      && a.sum_int = b.sum_int
      && a.saw_float = b.saw_float
      && (not a.saw_float || Float.abs (a.sum_float -. b.sum_float) < 1e-9)
  | Min _ -> Option.equal Value.equal a.mn b.mn
  | Max _ -> Option.equal Value.equal a.mx b.mx
