(** Lexical tokens of MiniJava. *)

type t =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW of string      (* int bool string method if else while for return ... *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQEQ | NE
  | ANDAND | OROR | BANG
  | ASSIGN
  | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ
  | PLUSPLUS | MINUSMINUS
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | COLON | DOT
  | EOF
[@@deriving show { with_path = false }, eq]

(** The reserved words, which lex as [KW] and never as [IDENT].  A string
    [match] compiles to a few word comparisons, with no hashing and no
    polymorphic compare. *)
let is_keyword = function
  | "int" | "bool" | "string" | "obj" | "method" | "if" | "else" | "while" | "for"
  | "return" | "true" | "false" | "new" | "break" | "continue" ->
      true
  | _ -> false

(** A token paired with its 1-based source line, for error messages and for
    statement line numbers. *)
type located = { tok : t; line : int }
