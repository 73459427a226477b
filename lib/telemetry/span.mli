(** Span trees: one trace per answered query, built with an explicit
    enter/leave stack. Times are absolute monotonic nanoseconds;
    inclusive time is [stop - start], exclusive time subtracts the
    children's inclusive times. *)

type t = {
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;  (** equal to [start_ns] while still open *)
  mutable kvs : (string * string) list;  (** newest first *)
  mutable rev_children : t list;  (** newest first *)
}

type trace

val root : trace -> t

(** Start a trace whose root span is open. [at] reuses a monotonic
    timestamp the caller already read (serving surfaces time the query
    anyway; always-on tracing must not read the clock twice). *)
val start : ?at:int64 -> string -> trace

(** Open a child of the innermost open span. *)
val enter : trace -> string -> unit

(** Close the innermost open span (never the root). *)
val leave : trace -> unit

(** Attach a key/value annotation to the innermost open span. *)
val kv : trace -> string -> string -> unit

(** Add an already-timed leaf child (duration [ns]) to the innermost
    open span — for aggregate costs measured out-of-band, e.g. summed
    per-tuple bookkeeping. *)
val leaf : trace -> string -> int64 -> unit

(** Close every open span, the root last. Idempotent. [at] as in
    {!start}. *)
val finish : ?at:int64 -> trace -> unit

val children : t -> t list

(** First span with the given name, pre-order, subtree root included. *)
val find : t -> string -> t option

(** Oldest value recorded for [key] on this span. *)
val find_kv : t -> string -> string option
val inclusive_ns : t -> int64
val exclusive_ns : t -> int64

(** Pre-order walk with depth. *)
val iter : (depth:int -> t -> unit) -> t -> unit

(** The span tree as an indented table of inclusive/exclusive times. *)
val pp : Format.formatter -> t -> unit

val pp_trace : Format.formatter -> trace -> unit
