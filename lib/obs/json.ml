type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --------------------------------------------------------------- emit *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* %.12g keeps round numbers short but survives a round-trip for
           the magnitudes metrics produce. *)
        Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        items;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

(* -------------------------------------------------------------- parse *)

exception Syntax of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !i)) in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect_lit lit v =
    let l = String.length lit in
    if !i + l <= n && String.sub s !i l = lit then begin
      i := !i + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let hex4 () =
    if !i + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !i 4) in
    i := !i + 4;
    v
  in
  let parse_string () =
    (* Caller consumed the opening quote. *)
    let buf = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
            incr i;
            (if !i >= n then fail "truncated escape"
             else
               match s.[!i] with
               | '"' -> Buffer.add_char buf '"'; incr i
               | '\\' -> Buffer.add_char buf '\\'; incr i
               | '/' -> Buffer.add_char buf '/'; incr i
               | 'b' -> Buffer.add_char buf '\b'; incr i
               | 'f' -> Buffer.add_char buf '\012'; incr i
               | 'n' -> Buffer.add_char buf '\n'; incr i
               | 'r' -> Buffer.add_char buf '\r'; incr i
               | 't' -> Buffer.add_char buf '\t'; incr i
               | 'u' ->
                   incr i;
                   let code = hex4 () in
                   let u =
                     match Uchar.of_int code with
                     | u -> u
                     | exception Invalid_argument _ -> Uchar.rep
                   in
                   Buffer.add_utf_8_uchar buf u
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !i in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !i < n && num_char s.[!i] do
      incr i
    done;
    let text = String.sub s start (!i - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> expect_lit "null" Null
    | Some 't' -> expect_lit "true" (Bool true)
    | Some 'f' -> expect_lit "false" (Bool false)
    | Some '"' ->
        incr i;
        String (parse_string ())
    | Some '[' ->
        incr i;
        skip_ws ();
        if peek () = Some ']' then begin
          incr i;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                items := parse_value () :: !items;
                more ()
            | Some ']' -> incr i
            | _ -> fail "expected ',' or ']'"
          in
          more ();
          List (List.rev !items)
        end
    | Some '{' ->
        incr i;
        skip_ws ();
        if peek () = Some '}' then begin
          incr i;
          Obj []
        end
        else begin
          let binding () =
            skip_ws ();
            if peek () <> Some '"' then fail "expected object key";
            incr i;
            let k = parse_string () in
            skip_ws ();
            if peek () <> Some ':' then fail "expected ':'";
            incr i;
            (k, parse_value ())
          in
          let kvs = ref [ binding () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                kvs := binding () :: !kvs;
                more ()
            | Some '}' -> incr i
            | _ -> fail "expected ',' or '}'"
          in
          more ();
          Obj (List.rev !kvs)
        end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !i < n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Syntax m -> Error m
