(* Serve's verdict record. See verdict.mli. *)

type t = {
  label : string;
  confidence : float option;
  margin : float option;
  attempts : int;
  failures : string list;
  readable : bool;
}

let timeout_label = Nebby.Measurement.failure_reason_label Nebby.Measurement.Timeout

let of_report (report : Nebby.Measurement.report) =
  let score f = Some (Option.fold ~none:0.0 ~some:f report.provenance) in
  {
    label = report.label;
    confidence = score (fun p -> p.Obs.Provenance.confidence);
    margin = score (fun p -> p.Obs.Provenance.margin);
    attempts = report.attempts;
    failures = List.map Nebby.Measurement.failure_reason_label report.failures;
    readable = true;
  }

let timed_out ~attempts =
  {
    label = "unknown";
    confidence = Some 0.0;
    margin = Some 0.0;
    attempts;
    failures = List.init attempts (fun _ -> timeout_label);
    readable = true;
  }

let to_string v =
  let num x = Obs.Json.Num (Option.value ~default:0.0 x) in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str v.label);
         ("confidence", num v.confidence);
         ("margin", num v.margin);
         ("attempts", Obs.Json.Num (float_of_int v.attempts));
         ("failures", Obs.Json.Arr (List.map (fun f -> Obs.Json.Str f) v.failures));
       ])

let of_string_general s =
  match Obs.Json.of_string s with
  | exception Obs.Json.Parse_error _ ->
    { label = "unknown"; confidence = None; margin = None; attempts = 0; failures = [];
      readable = false }
  | j ->
    let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
    let label = Option.bind (Obs.Json.member "label" j) Obs.Json.to_str in
    {
      label = Option.value ~default:"unknown" label;
      confidence = num "confidence";
      margin = num "margin";
      attempts = Option.fold ~none:0 ~some:int_of_float (num "attempts");
      failures =
        (match Obs.Json.member "failures" j with
        | Some (Obs.Json.Arr fs) -> List.filter_map Obs.Json.to_str fs
        | _ -> []);
      readable = true;
    }

(* One scan over to_string's own spelling: the fields in its order, no
   whitespace, strings without escapes, numbers as the general reader
   delimits them (a run of [0-9+-.eE] that float_of_string reads).
   Anything else raises Not_own, and the general reader decides. *)
exception Not_own

type cursor = { s : string; mutable at : int }

let literal c lit =
  let n = String.length lit in
  if c.at + n > String.length c.s then raise_notrace Not_own;
  for k = 0 to n - 1 do
    if String.unsafe_get c.s (c.at + k) <> String.unsafe_get lit k then raise_notrace Not_own
  done;
  c.at <- c.at + n

let next_is c ch = c.at < String.length c.s && String.unsafe_get c.s c.at = ch

let string_field c =
  if not (next_is c '"') then raise_notrace Not_own;
  let start = c.at + 1 in
  let i = ref start in
  while
    !i < String.length c.s
    && match String.unsafe_get c.s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if not (!i < String.length c.s && String.unsafe_get c.s !i = '"') then raise_notrace Not_own;
  c.at <- !i + 1;
  String.sub c.s start (!i - start)

let number_field c =
  let start = c.at in
  while
    c.at < String.length c.s
    && match String.unsafe_get c.s c.at with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    c.at <- c.at + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.at - start)) with
  | Some x -> x
  | None -> raise_notrace Not_own

let of_own_spelling s =
  let c = { s; at = 0 } in
  literal c "{\"label\":";
  let label = string_field c in
  literal c ",\"confidence\":";
  let confidence = number_field c in
  literal c ",\"margin\":";
  let margin = number_field c in
  literal c ",\"attempts\":";
  let attempts = number_field c in
  literal c ",\"failures\":[";
  let rec failures acc =
    let f = string_field c in
    if next_is c ',' then begin
      c.at <- c.at + 1;
      failures (f :: acc)
    end
    else List.rev (f :: acc)
  in
  let failures = if next_is c ']' then [] else failures [] in
  literal c "]}";
  if c.at <> String.length s then raise_notrace Not_own;
  {
    label;
    confidence = Some confidence;
    margin = Some margin;
    attempts = int_of_float attempts;
    failures;
    readable = true;
  }

let of_string s = try of_own_spelling s with Not_own -> of_string_general s

let stable ~confidence_floor ~margin_floor v =
  match (v.confidence, v.margin) with
  | Some c, Some m -> not (c < confidence_floor || m < margin_floor)
  | _ -> false

let timed_out_chain v = List.mem timeout_label v.failures
