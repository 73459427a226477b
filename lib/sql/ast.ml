(* Abstract syntax for the SQL subset: the paper's template grammar
   (Section 2.1) expressed as text.

     select r.a, s.e from r, s
     where r.c = s.d                     -- join edge (Cjoin)
       and r.b = 100                     -- fixed predicate (Cjoin)
       and (r.f = 1 or r.f = 3)          -- equality-form Ci (Cselect)
       and (s.g between 10 and 20)       -- interval-form Ci (Cselect)
       and (s.h in (1, 2, 5))            -- equality-form Ci, IN sugar

   Convention: a parenthesised condition is a *parameterised* selection
   condition of the template (its literals are this query's
   parameters); unparenthesised conditions belong to Cjoin. *)

type lit = L_int of int | L_float of float | L_str of string

type qattr = { q_rel : string; q_attr : string }  (* q_rel = table or alias *)

type cmp_op = Ceq | Cne | Clt | Cle | Cgt | Cge

type atom =
  | A_join of qattr * qattr  (* attr = attr *)
  | A_cmp of qattr * cmp_op * lit  (* attr op literal *)
  | A_between of qattr * lit * lit  (* closed interval *)
  | A_in of qattr * lit list

type agg_fun = F_count | F_sum | F_avg | F_min | F_max

type select_item =
  | S_attr of qattr
  | S_star
  | S_agg of agg_fun * qattr option  (* count star has no argument *)

type where_item =
  | W_plain of atom  (* part of Cjoin *)
  | W_group of atom list  (* parenthesised OR-disjunction: one Ci *)
  | W_exists of query  (* EXISTS (select ...), correlated via join atoms *)

and query = {
  distinct : bool;
  select : select_item list;
  from : (string * string option) list;  (* relation, alias *)
  where : where_item list;
  group_by : qattr list;
  order_by : (qattr * bool) list;  (* attr, descending *)
  limit : int option;
}

(* top-level statements, for the shell *)
type col_ty = T_int | T_float | T_string

type statement =
  | St_select of query
  | St_create_table of { table : string; cols : (string * col_ty) list }
  | St_create_index of { index : string; table : string; attrs : string list }
  | St_insert of { table : string; values : lit list }
  | St_update of {
      table : string;
      set : (string * lit) list;  (* column = literal assignments *)
      where : atom list;  (* conjunctive *)
    }
  | St_delete of { table : string; where : atom list }  (* conjunctive *)
  | St_explain of query
  | St_trace of query  (* run with per-operator executor profiling *)
  | St_metrics of { reset : bool }  (* METRICS [RESET]: telemetry snapshot *)
  | St_slo of { arg : slo_arg }  (* SLO [RESET | THRESHOLD <us>]: tail-latency watchdog *)
  | St_flight of { arg : flight_arg }  (* FLIGHT [DUMP | RESET | ON | OFF] *)
  | St_budget of { arg : budget_arg }  (* BUDGET [STATUS | REBALANCE | TOTAL <bytes>] *)

and slo_arg = Slo_report | Slo_reset | Slo_threshold of int  (* microseconds *)
and flight_arg = Flight_dump | Flight_reset | Flight_on | Flight_off
and budget_arg = Budget_status | Budget_rebalance | Budget_total of int  (* bytes *)

let lit_to_value = function
  | L_int i -> Minirel_storage.Value.Int i
  | L_float f -> Minirel_storage.Value.Float f
  | L_str s -> Minirel_storage.Value.Str s

let pp_qattr ppf { q_rel; q_attr } = Fmt.pf ppf "%s.%s" q_rel q_attr
