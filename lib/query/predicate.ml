(* Boolean predicates over tuples, used for the parameter-free selection
   conditions inside Cjoin and for residual filtering in the executor.
   Attribute references are positional. *)

open Minirel_storage

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of cmp * int * Value.t
  | In_set of int * Value.t list
  | In_interval of int * Interval.t
  | And of t list
  | Or of t list
  | Not of t

(* Closure-free: evaluation runs once per candidate row, so the
   conjunction and disjunction walks recurse directly instead of
   building a partial application per node. *)
let rec eval p (tuple : Tuple.t) =
  match p with
  | True -> true
  | Cmp (op, pos, v) -> (
      let c = Value.compare tuple.(pos) v in
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)
  | In_set (pos, vs) -> mem_value tuple.(pos) vs
  | In_interval (pos, iv) -> Interval.contains iv tuple.(pos)
  | And ps -> all_hold ps tuple
  | Or ps -> any_holds ps tuple
  | Not p -> not (eval p tuple)

and all_hold ps tuple =
  match ps with [] -> true | p :: rest -> eval p tuple && all_hold rest tuple

and any_holds ps tuple =
  match ps with [] -> false | p :: rest -> eval p tuple || any_holds rest tuple

and mem_value v = function [] -> false | x :: rest -> Value.equal v x || mem_value v rest

(* The value a predicate pins attribute [pos] to, if its top-level
   conjunction fixes it with [=] or a singleton [IN]. Shard targeting
   and index-driven DML both read it, so they agree on what "pinned"
   means. *)
let rec pinned_value pos = function
  | Cmp (Eq, p, v) when p = pos -> Some v
  | In_set (p, [ v ]) when p = pos -> Some v
  | And ps -> List.find_map (pinned_value pos) ps
  | _ -> None

(* Shift every position by [delta]; used when a per-relation predicate is
   applied to a joined tuple where the relation starts at offset delta. *)
let rec shift delta = function
  | True -> True
  | Cmp (op, pos, v) -> Cmp (op, pos + delta, v)
  | In_set (pos, vs) -> In_set (pos + delta, vs)
  | In_interval (pos, iv) -> In_interval (pos + delta, iv)
  | And ps -> And (List.map (shift delta) ps)
  | Or ps -> Or (List.map (shift delta) ps)
  | Not p -> Not (shift delta p)

let conj = function [] -> True | [ p ] -> p | ps -> And ps

(* Attribute positions a predicate reads. *)
let rec positions = function
  | True -> []
  | Cmp (_, pos, _) | In_set (pos, _) | In_interval (pos, _) -> [ pos ]
  | And ps | Or ps -> List.concat_map positions ps
  | Not p -> positions p

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | Cmp (op, pos, v) ->
      let s =
        match op with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
      in
      Fmt.pf ppf "#%d %s %a" pos s Value.pp v
  | In_set (pos, vs) -> Fmt.pf ppf "#%d in {%a}" pos Fmt.(list ~sep:comma Value.pp) vs
  | In_interval (pos, iv) -> Fmt.pf ppf "#%d in %a" pos Interval.pp iv
  | And ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " and ") pp) ps
  | Or ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " or ") pp) ps
  | Not p -> Fmt.pf ppf "not %a" pp p
