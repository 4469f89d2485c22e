(* The one module that knows the JSON format: the writers' escaper and
   separators, the unstable-tag convention, a minimal recursive-descent
   parser that reads back what the exporters write, and the file I/O
   every artifact reader and writer goes through.

   The parser keeps integers and floats apart so trace args round-trip
   to the right [Trace.arg] constructor, and [\u00XX] escapes decode to
   the single byte [escape] wrote, making string round trips
   byte-exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Strings are arbitrary bytes (digests, payload prefixes, anything a
   protocol stuffed into a trace event). Bytes outside printable ASCII
   are written as \u00XX (byte value, latin-1 style), so the output is
   always pure-ASCII valid JSON even for strings that are not valid
   UTF-8; [parse] decodes \u00XX back to the single byte. *)
let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let b = Buffer.create (String.length s + 2) in
  escape b s;
  Buffer.contents b

let add_sep buf f xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      f x)
    xs

(* Host-time values (wall clock, GC noise) are wrapped so consumers can
   strip every member whose value carries ["unstable":true] and compare
   the deterministic remainder byte for byte. *)
let unstable v = Printf.sprintf "{\"unstable\":true,\"value\":%.6f}" v

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of string

type state = { s : string; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, got %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad hex digit in \\u escape"

(* Encode a decoded \uXXXX code point. Codes <= 0xff become the raw byte
   (inverse of the exporter's byte escaping); higher codes are encoded as
   UTF-8 so foreign traces still parse. *)
let add_code buf code =
  if code <= 0xff then Buffer.add_char buf (Char.chr code)
  else if code <= 0x7ff then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.s then
                  fail st "truncated \\u escape";
                let code =
                  (hex_digit st st.s.[st.pos] lsl 12)
                  lor (hex_digit st st.s.[st.pos + 1] lsl 8)
                  lor (hex_digit st st.s.[st.pos + 2] lsl 4)
                  lor hex_digit st st.s.[st.pos + 3]
                in
                st.pos <- st.pos + 4;
                add_code buf code
            | c -> fail st (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let tok = String.sub st.s start (st.pos - start) in
  if !is_float then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %S" tok)
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        (* out-of-range integer literal: fall back to float *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail st (Printf.sprintf "bad number %S" tok))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail st "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> fail st "expected , or ] in array"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some 't' ->
      if st.pos + 4 <= String.length st.s && String.sub st.s st.pos 4 = "true"
      then begin
        st.pos <- st.pos + 4;
        Bool true
      end
      else fail st "bad literal"
  | Some 'f' ->
      if st.pos + 5 <= String.length st.s && String.sub st.s st.pos 5 = "false"
      then begin
        st.pos <- st.pos + 5;
        Bool false
      end
      else fail st "bad literal"
  | Some 'n' ->
      if st.pos + 4 <= String.length st.s && String.sub st.s st.pos 4 = "null"
      then begin
        st.pos <- st.pos + 4;
        Null
      end
      else fail st "bad literal"
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage after value"
      else Ok v
  | exception Fail msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* [int_of_float] is unspecified outside the [int] range (1e300 reads
   as 0), so only integral floats in [[min_int, max_int]] convert. *)
let to_int = function
  | Int i -> Some i
  | Float f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < -.Float.of_int min_int ->
      Some (int_of_float f)
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let to_string = function Str s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Unstable-tagged values                                              *)

(* The trend tracker is the one consumer that wants the host-time value
   itself; an untagged number reads as is. *)
let unstable_value v =
  match member "value" v with Some inner -> to_float inner | None -> to_float v

let is_unstable = function
  | Obj inner -> List.assoc_opt "unstable" inner = Some (Bool true)
  | _ -> false

let rec strip_unstable = function
  | Obj fields ->
      Obj
        (List.filter_map
           (fun (k, v) ->
             if is_unstable v then None else Some (k, strip_unstable v))
           fields)
  | Arr xs -> Arr (List.map strip_unstable xs)
  | v -> v

(* Remove every `"key":{"unstable":true,...}` member, together with its
   leading comma (or its trailing comma when the member happens to lead
   an object). The tagged value object never nests and holds only
   numeric/boolean fields, so the first '}' after the marker closes it. *)
let strip_unstable_text s =
  let marker = "{\"unstable\":true" in
  let mlen = String.length marker in
  let len = String.length s in
  let buf = Buffer.create len in
  (* From [ks] (which holds '"'), skip the quoted key and the ':';
     return the value-start index, or None if the shape is not a
     member. *)
  let value_start ks =
    let rec close j =
      if j >= len then None
      else if s.[j] = '\\' then close (j + 2)
      else if s.[j] = '"' then Some j
      else close (j + 1)
    in
    match close (ks + 1) with
    | Some q when q + 1 < len && s.[q + 1] = ':' -> Some (q + 2)
    | _ -> None
  in
  let matches_at i =
    i + mlen <= len && String.equal (String.sub s i mlen) marker
  in
  let rec value_end j =
    if j >= len then len - 1 else if s.[j] = '}' then j else value_end (j + 1)
  in
  let i = ref 0 in
  while !i < len do
    let c = s.[!i] in
    let handled =
      (c = ',' || c = '{')
      && !i + 1 < len
      && s.[!i + 1] = '"'
      &&
      match value_start (!i + 1) with
      | Some vstart when matches_at vstart ->
          let vend = value_end vstart in
          if c = ',' then i := vend + 1 (* drop ,"key":{...} entirely *)
          else begin
            (* leading member: keep '{', drop the member and a trailing
               comma if one follows *)
            Buffer.add_char buf '{';
            i :=
              (if vend + 1 < len && s.[vend + 1] = ',' then vend + 2
               else vend + 1)
          end;
          true
      | _ -> false
    in
    if not handled then begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

(* A directory opens fine on Linux and only fails at the length query,
   with a message that names no file, so it is refused up front. *)
let read_file path =
  try
    if Sys.is_directory path then Error (path ^ ": is a directory")
    else In_channel.with_open_bin path (fun ic -> Ok (In_channel.input_all ic))
  with Sys_error e -> Error e

let write_file path contents =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents;
        Out_channel.flush oc);
    Ok ()
  with Sys_error e -> Error e
