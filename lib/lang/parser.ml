(** Recursive-descent parser for MiniJava.

    Grammar sketch (precedence low to high: [||], [&&], comparisons,
    [+ -], [* / %], unary, postfix):

    {v
    method  ::= "method" IDENT "(" params? ")" ":" type block
    stmt    ::= type IDENT "=" expr ";"
              | IDENT ("=" | "+=" | "-=" | "*=" | "/=" | "++" | "--"
                      | "[" expr "]" "=" | "." IDENT "=") ... ";"
              | "if" "(" expr ")" block ("else" (block | if))?
              | "while" "(" expr ")" block
              | "for" "(" simple ";" expr ";" simple ")" block
              | "return" expr ";" | "break" ";" | "continue" ";"
    v}

    Compound assignments and [++]/[--] are desugared into plain assignments
    ([i++] becomes [i = i + 1]), which is exactly the kind of syntactic
    variation the blended model must see through. *)

exception Parse_error of string * int

type st = { toks : Token.located array; mutable pos : int }

let cur st = st.toks.(st.pos)
let cur_tok st = (cur st).Token.tok
let cur_line st = (cur st).Token.line
let advance st = st.pos <- st.pos + 1

let error st msg = raise (Parse_error (msg, cur_line st))

let expect st tok =
  if Token.equal (cur_tok st) tok then advance st
  else
    error st
      (Printf.sprintf "expected %s, found %s" (Token.show tok)
         (Token.show (cur_tok st)))

let expect_ident st =
  match cur_tok st with
  | Token.IDENT x ->
      advance st;
      x
  | t -> error st (Printf.sprintf "expected identifier, found %s" (Token.show t))

let parse_type st =
  match cur_tok st with
  | Token.KW "int" ->
      advance st;
      if Token.equal (cur_tok st) Token.LBRACKET then begin
        advance st;
        expect st Token.RBRACKET;
        Ast.Tarray
      end
      else Ast.Tint
  | Token.KW "bool" ->
      advance st;
      Ast.Tbool
  | Token.KW "string" ->
      advance st;
      Ast.Tstring
  | Token.KW "obj" ->
      advance st;
      Ast.Tobj
  | t -> error st (Printf.sprintf "expected a type, found %s" (Token.show t))

let is_type_start st =
  match cur_tok st with
  | Token.KW ("int" | "bool" | "string" | "obj") -> true
  | _ -> false

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while Token.equal (cur_tok st) Token.OROR do
    advance st;
    lhs := Ast.Binop (Ast.Or, !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_cmp st) in
  while Token.equal (cur_tok st) Token.ANDAND do
    advance st;
    lhs := Ast.Binop (Ast.And, !lhs, parse_cmp st)
  done;
  !lhs

and parse_cmp st =
  let lhs = parse_addsub st in
  let op =
    match cur_tok st with
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | Token.EQEQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Ast.Binop (op, lhs, parse_addsub st)

and parse_addsub st =
  let lhs = ref (parse_muldiv st) in
  let continue = ref true in
  while !continue do
    match cur_tok st with
    | Token.PLUS ->
        advance st;
        lhs := Ast.Binop (Ast.Add, !lhs, parse_muldiv st)
    | Token.MINUS ->
        advance st;
        lhs := Ast.Binop (Ast.Sub, !lhs, parse_muldiv st)
    | _ -> continue := false
  done;
  !lhs

and parse_muldiv st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match cur_tok st with
    | Token.STAR ->
        advance st;
        lhs := Ast.Binop (Ast.Mul, !lhs, parse_unary st)
    | Token.SLASH ->
        advance st;
        lhs := Ast.Binop (Ast.Div, !lhs, parse_unary st)
    | Token.PERCENT ->
        advance st;
        lhs := Ast.Binop (Ast.Mod, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match cur_tok st with
  | Token.MINUS -> (
      advance st;
      (* fold negated literals so that Int (-5) survives a print/parse
         roundtrip: the printer emits "(-5)", which must not come back as
         Unop (Neg, Int 5).  The literal 4611686018427387904 lexes as
         INT min_int and is only valid here, negated. *)
      match cur_tok st with
      | Token.INT n when n = min_int ->
          advance st;
          Ast.Int min_int
      | _ -> (
          match parse_unary st with
          | Ast.Int n -> Ast.Int (-n)
          | e -> Ast.Unop (Ast.Neg, e)))
  | Token.BANG ->
      advance st;
      Ast.Unop (Ast.Not, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match cur_tok st with
    | Token.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET;
        e := Ast.Index (!e, idx)
    | Token.DOT ->
        advance st;
        let field = expect_ident st in
        if field = "length" then e := Ast.Len !e else e := Ast.Field (!e, field)
    | _ -> continue := false
  done;
  !e

and parse_args st close =
  if Token.equal (cur_tok st) close then []
  else begin
    let first = parse_expr st in
    let rest = ref [ first ] in
    while Token.equal (cur_tok st) Token.COMMA do
      advance st;
      rest := parse_expr st :: !rest
    done;
    List.rev !rest
  end

and parse_primary st =
  match cur_tok st with
  | Token.INT n when n = min_int -> error st "integer literal out of range"
  | Token.INT n ->
      advance st;
      Ast.Int n
  | Token.STRING s ->
      advance st;
      Ast.Str s
  | Token.KW "true" ->
      advance st;
      Ast.Bool true
  | Token.KW "false" ->
      advance st;
      Ast.Bool false
  | Token.KW "new" ->
      advance st;
      expect st (Token.KW "int");
      expect st Token.LBRACKET;
      let size = parse_expr st in
      expect st Token.RBRACKET;
      Ast.NewArray size
  | Token.IDENT x ->
      advance st;
      if Token.equal (cur_tok st) Token.LPAREN then begin
        advance st;
        let args = parse_args st Token.RPAREN in
        expect st Token.RPAREN;
        Ast.Call (x, args)
      end
      else Ast.Var x
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.LBRACKET ->
      advance st;
      let elts = parse_args st Token.RBRACKET in
      expect st Token.RBRACKET;
      Ast.ArrayLit elts
  | Token.LBRACE ->
      advance st;
      let fields = ref [] in
      if not (Token.equal (cur_tok st) Token.RBRACE) then begin
        let parse_field () =
          let name = expect_ident st in
          expect st Token.COLON;
          let e = parse_expr st in
          fields := (name, e) :: !fields
        in
        parse_field ();
        while Token.equal (cur_tok st) Token.COMMA do
          advance st;
          parse_field ()
        done
      end;
      expect st Token.RBRACE;
      Ast.RecordLit (List.rev !fields)
  | t -> error st (Printf.sprintf "unexpected token %s in expression" (Token.show t))

(* Statements ------------------------------------------------------- *)

let compound_op = function
  | Token.PLUSEQ -> Some Ast.Add
  | Token.MINUSEQ -> Some Ast.Sub
  | Token.STAREQ -> Some Ast.Mul
  | Token.SLASHEQ -> Some Ast.Div
  | _ -> None

(* A "simple" statement: declaration or (compound) assignment, used both as
   a normal statement (followed by ';') and inside for-headers. *)
let parse_simple st =
  let line = cur_line st in
  if is_type_start st then begin
    let t = parse_type st in
    let x = expect_ident st in
    expect st Token.ASSIGN;
    let e = parse_expr st in
    Ast.mk ~line (Ast.Decl (t, x, e))
  end
  else
    let x = expect_ident st in
    match cur_tok st with
    | Token.ASSIGN ->
        advance st;
        Ast.mk ~line (Ast.Assign (x, parse_expr st))
    | Token.PLUSPLUS ->
        advance st;
        Ast.mk ~line (Ast.Assign (x, Ast.Binop (Ast.Add, Ast.Var x, Ast.Int 1)))
    | Token.MINUSMINUS ->
        advance st;
        Ast.mk ~line (Ast.Assign (x, Ast.Binop (Ast.Sub, Ast.Var x, Ast.Int 1)))
    | Token.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET;
        expect st Token.ASSIGN;
        Ast.mk ~line (Ast.StoreIndex (x, idx, parse_expr st))
    | Token.DOT ->
        advance st;
        let f = expect_ident st in
        expect st Token.ASSIGN;
        Ast.mk ~line (Ast.StoreField (x, f, parse_expr st))
    | t -> (
        match compound_op t with
        | Some op ->
            advance st;
            Ast.mk ~line (Ast.Assign (x, Ast.Binop (op, Ast.Var x, parse_expr st)))
        | None ->
            error st (Printf.sprintf "unexpected token %s in statement" (Token.show t)))

let rec parse_stmt st =
  let line = cur_line st in
  match cur_tok st with
  | Token.KW "if" ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let then_b = parse_block st in
      let else_b =
        if Token.equal (cur_tok st) (Token.KW "else") then begin
          advance st;
          if Token.equal (cur_tok st) (Token.KW "if") then [ parse_stmt st ]
          else parse_block st
        end
        else []
      in
      Ast.mk ~line (Ast.If (cond, then_b, else_b))
  | Token.KW "while" ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      Ast.mk ~line (Ast.While (cond, parse_block st))
  | Token.KW "for" ->
      advance st;
      expect st Token.LPAREN;
      let init = parse_simple st in
      expect st Token.SEMI;
      let cond = parse_expr st in
      expect st Token.SEMI;
      let update = parse_simple st in
      expect st Token.RPAREN;
      Ast.mk ~line (Ast.For (init, cond, update, parse_block st))
  | Token.KW "return" ->
      advance st;
      let e = parse_expr st in
      expect st Token.SEMI;
      Ast.mk ~line (Ast.Return e)
  | Token.KW "break" ->
      advance st;
      expect st Token.SEMI;
      Ast.mk ~line Ast.Break
  | Token.KW "continue" ->
      advance st;
      expect st Token.SEMI;
      Ast.mk ~line Ast.Continue
  | _ ->
      let s = parse_simple st in
      expect st Token.SEMI;
      s

and parse_block st =
  expect st Token.LBRACE;
  let stmts = ref [] in
  while not (Token.equal (cur_tok st) Token.RBRACE) do
    stmts := parse_stmt st :: !stmts
  done;
  expect st Token.RBRACE;
  List.rev !stmts

let parse_meth st =
  expect st (Token.KW "method");
  let mname = expect_ident st in
  expect st Token.LPAREN;
  let params = ref [] in
  if not (Token.equal (cur_tok st) Token.RPAREN) then begin
    let parse_param () =
      let t = parse_type st in
      let x = expect_ident st in
      params := (t, x) :: !params
    in
    parse_param ();
    while Token.equal (cur_tok st) Token.COMMA do
      advance st;
      parse_param ()
    done
  end;
  expect st Token.RPAREN;
  expect st Token.COLON;
  let ret = parse_type st in
  let body = parse_block st in
  { Ast.mname; params = List.rev !params; ret; body }

(* The parser state over the tokens of [src]; a lexical error (a stray
   character, an unterminated string or comment, an integer literal out of
   range) is reported as a [Parse_error] at its line, like a syntax error. *)
let start src =
  match Lexer.tokenize src with
  | toks -> { toks = Array.of_list toks; pos = 0 }
  | exception Lexer.Lex_error (msg, line) -> raise (Parse_error (msg, line))

(** Parse a single method from source text. *)
let method_of_string src =
  let st = start src in
  let m = parse_meth st in
  expect st Token.EOF;
  m

(** Parse a file containing any number of methods. *)
let methods_of_string src =
  let st = start src in
  let ms = ref [] in
  while not (Token.equal (cur_tok st) Token.EOF) do
    ms := parse_meth st :: !ms
  done;
  List.rev !ms
