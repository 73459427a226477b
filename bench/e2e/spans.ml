(* The traced run's spans, recorded by the benchmark around its calls
   into the system and kept in memory until the run ends, when they are
   written as a Chrome trace-event file. Only a deterministic 1-in-N
   sample of ops is kept (about [cap_ops] of them); the per-layer
   aggregates cover every op. *)

type kind = Query | Txn | First_tuple | Txn_base | Pmv_maintain | Rebalance

let kind_name = function
  | Query -> "op.query"
  | Txn -> "op.txn"
  | First_tuple -> "first_tuple"
  | Txn_base -> "txn.base"
  | Pmv_maintain -> "pmv.maintain"
  | Rebalance -> "manager.rebalance"

let cap_ops = 10_000
let per_op = 3

type t = {
  every : int;  (* keep op i iff i mod every = 0 *)
  origin : int;  (* clock at the start of the timed phase *)
  kind : kind array;
  start : int array;
  stop : int array;  (* = start for instants *)
  op : int array;
  tag : string array;  (* shape and template for queries *)
  mutable n : int;
  mutable recorded : int;  (* every record call, kept or not *)
}

let create ~stream_len ~origin =
  let cap = cap_ops * per_op in
  {
    every = max 1 (stream_len / cap_ops);
    origin;
    kind = Array.make cap Query;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    op = Array.make cap 0;
    tag = Array.make cap "";
    n = 0;
    recorded = 0;
  }

let sampled t i = i mod t.every = 0

let record t ~kind ~op ~start ~stop ~tag =
  t.recorded <- t.recorded + 1;
  if sampled t op && t.n < Array.length t.kind then begin
    let j = t.n in
    t.kind.(j) <- kind;
    t.op.(j) <- op;
    t.start.(j) <- start;
    t.stop.(j) <- stop;
    t.tag.(j) <- tag;
    t.n <- j + 1
  end

(* The cost of tracing itself: time [record] and a clock read over a
   scratch recorder after the run, so [trace.overhead_pct] is measured
   rather than assumed. Returns ns per recorded span. *)
let calibrate () =
  let scratch = create ~stream_len:1 ~origin:0 in
  let n = 200_000 in
  let t0 = Monotonic_clock.now () in
  for i = 1 to n do
    let s = Int64.to_int (Monotonic_clock.now ()) in
    scratch.n <- 0;
    record scratch ~kind:Query ~op:i ~start:s ~stop:s ~tag:"plain t1"
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int n

let write_chrome t ~file ~workload =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let us ns = float_of_int (ns - t.origin) /. 1e3 in
  Printf.fprintf oc
    "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": %S, \"sample_every\": %d}, \
     \"traceEvents\": [\n"
    workload t.every;
  for j = 0 to t.n - 1 do
    let k = t.kind.(j) in
    if j > 0 then output_string oc ",\n";
    let args = Printf.sprintf "{\"op\": %d%s}" t.op.(j)
        (if t.tag.(j) = "" then "" else Printf.sprintf ", \"tag\": %S" t.tag.(j))
    in
    if k = First_tuple then
      Printf.fprintf oc
        "{\"name\": %S, \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 1, \"tid\": 1, \
         \"args\": %s}"
        (kind_name k) (us t.start.(j)) args
    else
      Printf.fprintf oc
        "{\"name\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \
         \"args\": %s}"
        (kind_name k) (us t.start.(j))
        (float_of_int (t.stop.(j) - t.start.(j)) /. 1e3)
        args
  done;
  output_string oc "\n]}\n"
