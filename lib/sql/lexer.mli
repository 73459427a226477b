(** Hand-written lexer for the SQL subset: case-insensitive keywords,
    single-quoted strings with [''] escapes, ints, floats, and the
    operator set the template grammar needs. Semicolons are ignored. *)

type token =
  | SELECT
  | FROM
  | WHERE
  | AND
  | OR
  | BETWEEN
  | IN
  | CREATE
  | TABLE
  | INDEX
  | ON
  | INSERT
  | INTO
  | VALUES
  | DELETE
  | UPDATE
  | SET
  | DISTINCT
  | EXISTS
  | EXPLAIN
  | TRACE
  | METRICS
  | SLO
  | FLIGHT
  | BUDGET
  | GROUP
  | ORDER
  | BY
  | ASC
  | DESC
  | LIMIT
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | COMMA
  | DOT
  | LPAREN
  | RPAREN
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | STAR
  | EOF

val token_to_string : token -> string

exception Error of string

(** Tokenise the whole input (ending with [EOF]).
    @raise Error on malformed input. *)
val tokenize : string -> token list
