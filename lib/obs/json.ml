type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Control characters (including DEL) become \u escapes; bytes >= 0x80 pass
   through untouched, so UTF-8 text stays UTF-8 on the wire and arbitrary
   byte strings round-trip through our own parser byte-for-byte. *)
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
      | c when Char.code c < 0x20 || Char.code c = 0x7f ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_nan x then "null" (* NaN is not representable in JSON *)
  else if x = infinity then "1e308"
  else if x = neg_infinity then "-1e308"
  else
    (* shortest round-trippable representation *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s -> escape buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

exception Parse_error of string

(* Recursive-descent parser over a string cursor; enough JSON for our own
   telemetry files (numbers, strings, bools, null, arrays, objects). *)
type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

(* UTF-8 encode a Unicode scalar value. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  (* [c.pos] points at the 'u' of a \u escape; consume the four hex digits,
     leaving [c.pos] on the last one (the caller advances past it). *)
  let read_hex4 () =
    if c.pos + 4 >= String.length c.src then fail c "bad \\u escape";
    let hex = String.sub c.src (c.pos + 1) 4 in
    let ok =
      String.for_all
        (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
        hex
    in
    if not ok then fail c "bad \\u escape";
    c.pos <- c.pos + 4;
    int_of_string ("0x" ^ hex)
  in
  (* copy each run of plain bytes in one go, stopping at a quote or an
     escape *)
  let rec plain_end i =
    if i >= String.length c.src then i
    else match c.src.[i] with '"' | '\\' -> i | _ -> plain_end (i + 1)
  in
  let rec go () =
    let stop = plain_end c.pos in
    Buffer.add_substring buf c.src c.pos (stop - c.pos);
    c.pos <- stop;
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some _ (* a backslash *) ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* Decode to UTF-8, combining surrogate pairs; an unpaired
           surrogate becomes U+FFFD rather than corrupting the stream. *)
        let code = read_hex4 () in
        if code >= 0xD800 && code <= 0xDBFF then
          if
            c.pos + 2 < String.length c.src
            && c.src.[c.pos + 1] = '\\'
            && c.src.[c.pos + 2] = 'u'
          then begin
            c.pos <- c.pos + 2;
            let low = read_hex4 () in
            if low >= 0xDC00 && low <= 0xDFFF then
              add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
            else begin
              add_utf8 buf 0xFFFD;
              if low >= 0xD800 && low <= 0xDFFF then add_utf8 buf 0xFFFD
              else add_utf8 buf low
            end
          end
          else add_utf8 buf 0xFFFD
        else if code >= 0xDC00 && code <= 0xDFFF then add_utf8 buf 0xFFFD
        else add_utf8 buf code
      | Some ch -> Buffer.add_char buf ch
      | None -> fail c "unterminated escape");
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some x -> x
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      fields []
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      items []
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)
  | None -> fail c "unexpected end of input"

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

(* accessors *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
