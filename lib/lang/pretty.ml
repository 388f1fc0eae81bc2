(** Pretty-printer producing parseable MiniJava source. *)

let typ_to_string = function
  | Ast.Tint -> "int"
  | Ast.Tbool -> "bool"
  | Ast.Tstring -> "string"
  | Ast.Tarray -> "int[]"
  | Ast.Tobj -> "obj"

let binop_to_string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.And -> "&&"
  | Ast.Or -> "||"

(* Every printer below appends to one [Buffer]: a method is printed with
   no intermediate strings beyond the literals' [string_of_int]. *)

let add_escaped buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s

(* [xs] separated by ", " *)
let add_list buf add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      add buf x)
    xs

let rec add_expr buf e =
  match e with
  | Ast.Int n ->
      if n < 0 then begin
        Buffer.add_char buf '(';
        Buffer.add_string buf (string_of_int n);
        Buffer.add_char buf ')'
      end
      else Buffer.add_string buf (string_of_int n)
  | Ast.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Ast.Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Binop (op, a, b) ->
      Buffer.add_char buf '(';
      add_expr buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_to_string op);
      Buffer.add_char buf ' ';
      add_expr buf b;
      Buffer.add_char buf ')'
  | Ast.Unop (op, a) ->
      Buffer.add_string buf (match op with Ast.Neg -> "(-" | Ast.Not -> "(!");
      add_expr buf a;
      Buffer.add_char buf ')'
  | Ast.Index (a, i) ->
      add_expr buf a;
      Buffer.add_char buf '[';
      add_expr buf i;
      Buffer.add_char buf ']'
  | Ast.Field (a, f) ->
      add_expr buf a;
      Buffer.add_char buf '.';
      Buffer.add_string buf f
  | Ast.Len a ->
      add_expr buf a;
      Buffer.add_string buf ".length"
  | Ast.Call (f, args) ->
      Buffer.add_string buf f;
      Buffer.add_char buf '(';
      add_list buf add_expr args;
      Buffer.add_char buf ')'
  | Ast.NewArray e ->
      Buffer.add_string buf "new int[";
      add_expr buf e;
      Buffer.add_char buf ']'
  | Ast.ArrayLit es ->
      Buffer.add_char buf '[';
      add_list buf add_expr es;
      Buffer.add_char buf ']'
  | Ast.RecordLit fs ->
      Buffer.add_char buf '{';
      add_list buf
        (fun buf (n, e) ->
          Buffer.add_string buf n;
          Buffer.add_string buf ": ";
          add_expr buf e)
        fs;
      Buffer.add_char buf '}'

let expr_to_string e =
  let buf = Buffer.create 64 in
  add_expr buf e;
  Buffer.contents buf

(* a declaration or assignment without its ';', as in a for header *)
let add_simple buf (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Decl (t, x, e) ->
      Buffer.add_string buf (typ_to_string t);
      Buffer.add_char buf ' ';
      Buffer.add_string buf x;
      Buffer.add_string buf " = ";
      add_expr buf e
  | Ast.Assign (x, e) ->
      Buffer.add_string buf x;
      Buffer.add_string buf " = ";
      add_expr buf e
  | _ -> invalid_arg "Pretty: non-simple statement in for header"

let add_pad buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

(* one statement, each of its lines indented by [indent] spaces and ended
   by a newline *)
let rec stmt_to_buf buf indent (s : Ast.stmt) =
  let block b =
    Buffer.add_string buf "{\n";
    List.iter (stmt_to_buf buf (indent + 2)) b;
    add_pad buf indent;
    Buffer.add_char buf '}'
  in
  add_pad buf indent;
  (match s.Ast.node with
  | Ast.Decl _ | Ast.Assign _ ->
      add_simple buf s;
      Buffer.add_char buf ';'
  | Ast.StoreIndex (x, i, e) ->
      Buffer.add_string buf x;
      Buffer.add_char buf '[';
      add_expr buf i;
      Buffer.add_string buf "] = ";
      add_expr buf e;
      Buffer.add_char buf ';'
  | Ast.StoreField (x, f, e) ->
      Buffer.add_string buf x;
      Buffer.add_char buf '.';
      Buffer.add_string buf f;
      Buffer.add_string buf " = ";
      add_expr buf e;
      Buffer.add_char buf ';'
  | Ast.If (c, b1, b2) -> (
      Buffer.add_string buf "if (";
      add_expr buf c;
      Buffer.add_string buf ") ";
      block b1;
      match b2 with
      | [] -> ()
      | _ ->
          Buffer.add_string buf " else ";
          block b2)
  | Ast.While (c, b) ->
      Buffer.add_string buf "while (";
      add_expr buf c;
      Buffer.add_string buf ") ";
      block b
  | Ast.For (init, c, update, b) ->
      Buffer.add_string buf "for (";
      add_simple buf init;
      Buffer.add_string buf "; ";
      add_expr buf c;
      Buffer.add_string buf "; ";
      add_simple buf update;
      Buffer.add_string buf ") ";
      block b
  | Ast.Return e ->
      Buffer.add_string buf "return ";
      add_expr buf e;
      Buffer.add_char buf ';'
  | Ast.Break -> Buffer.add_string buf "break;"
  | Ast.Continue -> Buffer.add_string buf "continue;");
  Buffer.add_char buf '\n'

let meth_to_string (m : Ast.meth) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "method ";
  Buffer.add_string buf m.Ast.mname;
  Buffer.add_char buf '(';
  add_list buf
    (fun buf (t, x) ->
      Buffer.add_string buf (typ_to_string t);
      Buffer.add_char buf ' ';
      Buffer.add_string buf x)
    m.Ast.params;
  Buffer.add_string buf ") : ";
  Buffer.add_string buf (typ_to_string m.Ast.ret);
  Buffer.add_string buf " {\n";
  List.iter (stmt_to_buf buf 2) m.Ast.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** One-line rendering of a single statement (loop/if headers only), used
    when tokenizing statements for the static feature dimension. *)
let stmt_head_to_string (s : Ast.stmt) =
  let buf = Buffer.create 32 in
  (match s.Ast.node with
  | Ast.If (c, _, _) ->
      Buffer.add_string buf "if (";
      add_expr buf c;
      Buffer.add_char buf ')'
  | Ast.While (c, _) ->
      Buffer.add_string buf "while (";
      add_expr buf c;
      Buffer.add_char buf ')'
  | Ast.For (_, c, _, _) ->
      Buffer.add_string buf "for (;";
      add_expr buf c;
      Buffer.add_string buf ";)"
  | _ -> stmt_to_buf buf 0 s);
  String.trim (Buffer.contents buf)
