exception Version_mismatch of { kind : string; expected : int; got : int }

let fields ~kind ~version =
  [ ("kind", Json.Str kind); ("version", Json.Num (float_of_int version)) ]

let check ~kind ~version j =
  (match Json.member "kind" j with
  | Some (Json.Str k) when k = kind -> ()
  | _ ->
    raise (Json.Parse_error (Printf.sprintf "not a %s file (wrong or missing kind)" kind)));
  match Json.member "version" j with
  | None -> raise (Version_mismatch { kind; expected = version; got = 0 })
  | Some (Json.Num v) when Float.is_integer v && Float.abs v < 0x1p53 ->
    let got = int_of_float v in
    if got <> version then raise (Version_mismatch { kind; expected = version; got })
  | Some _ -> Json.shape_error kind "\"version\" is not an integer"

let mismatch_message ~kind ~expected ~got =
  Printf.sprintf
    "%s schema version mismatch (expected %d, got %d); regenerate it with this binary" kind
    expected got

let lines text = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

(* close_out, not close_out_noerr: for a small file the only real write
   happens at close, so swallowing its error would lose the file (or,
   under atomic_write, rename a truncated file over good data) *)
let write_file path write =
  let oc = open_out_bin path in
  match
    let r = write oc in
    close_out oc;
    r
  with
  | r -> r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    Printexc.raise_with_backtrace e bt

let atomic_write path write =
  let tmp = path ^ ".tmp" in
  match write_file tmp write with
  | () -> Sys.rename tmp path
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
