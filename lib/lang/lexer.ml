(** Hand-written lexer for MiniJava source text. *)

exception Lex_error of string * int  (* message, line *)

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c

(* the digits of [min_int] without its sign: 4611686018427387904 on 64 bits *)
let min_int_magnitude =
  let s = string_of_int min_int in
  String.sub s 1 (String.length s - 1)

(** Tokenize a whole source string.  Supports [//] line comments and
    [/* */] block comments.  Raises [Lex_error] on a character no token
    starts with, an unterminated string or block comment, and an integer
    literal outside OCaml's [int] range.  The one exception is the
    magnitude of [min_int], which has no positive [int]: it lexes as
    [INT min_int], and the parser accepts that token only after a minus
    sign, so [-4611686018427387904] reads as [min_int]. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let emit tok = toks := { Token.tok; line = !line } :: !toks in
  (* the character [k] past the cursor, or ['\000'], which no token
     continues with, past the end *)
  let peek k = if !i + k < n then String.unsafe_get src (!i + k) else '\000' in
  let two tok = i := !i + 2; emit tok in
  let one tok = incr i; emit tok in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = '*' then begin
      let opened = !line in
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && peek 1 = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then raise (Lex_error ("unterminated block comment", opened))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let digits = String.sub src start (!i - start) in
      match int_of_string_opt digits with
      | Some v -> emit (Token.INT v)
      | None when digits = min_int_magnitude -> emit (Token.INT min_int)
      | None -> raise (Lex_error ("integer literal out of range", !line))
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      emit (if Token.is_keyword word then Token.KW word else Token.IDENT word)
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then begin closed := true; incr i end
        else if c = '\\' && !i + 1 < n then begin
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c' -> Buffer.add_char buf c');
          i := !i + 2
        end
        else begin
          if c = '\n' then raise (Lex_error ("newline in string literal", !line));
          Buffer.add_char buf c;
          incr i
        end
      done;
      if not !closed then raise (Lex_error ("unterminated string literal", !line));
      emit (Token.STRING (Buffer.contents buf))
    end
    else begin
      match (c, peek 1) with
      | '+', '=' -> two Token.PLUSEQ
      | '+', '+' -> two Token.PLUSPLUS
      | '+', _ -> one Token.PLUS
      | '-', '=' -> two Token.MINUSEQ
      | '-', '-' -> two Token.MINUSMINUS
      | '-', _ -> one Token.MINUS
      | '*', '=' -> two Token.STAREQ
      | '*', _ -> one Token.STAR
      | '/', '=' -> two Token.SLASHEQ
      | '/', _ -> one Token.SLASH
      | '%', _ -> one Token.PERCENT
      | '<', '=' -> two Token.LE
      | '<', _ -> one Token.LT
      | '>', '=' -> two Token.GE
      | '>', _ -> one Token.GT
      | '=', '=' -> two Token.EQEQ
      | '=', _ -> one Token.ASSIGN
      | '!', '=' -> two Token.NE
      | '!', _ -> one Token.BANG
      | '&', '&' -> two Token.ANDAND
      | '|', '|' -> two Token.OROR
      | '(', _ -> one Token.LPAREN
      | ')', _ -> one Token.RPAREN
      | '{', _ -> one Token.LBRACE
      | '}', _ -> one Token.RBRACE
      | '[', _ -> one Token.LBRACKET
      | ']', _ -> one Token.RBRACKET
      | ',', _ -> one Token.COMMA
      | ';', _ -> one Token.SEMI
      | ':', _ -> one Token.COLON
      | '.', _ -> one Token.DOT
      | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  emit Token.EOF;
  List.rev !toks
