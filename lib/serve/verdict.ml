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

let of_string s =
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

let stable ~confidence_floor ~margin_floor v =
  match (v.confidence, v.margin) with
  | Some c, Some m -> not (c < confidence_floor || m < margin_floor)
  | _ -> false

let timed_out_chain v = List.mem timeout_label v.failures
