(* Declarative per-epoch alerting. See alerts.mli; the engine is a
   tiny per-rule state machine — breach streak plus a firing bit — and
   everything interesting is in what it does NOT emit: no line while a
   breach persists, no line while a rule stays quiet. *)

let schema_version = 1

type signal =
  | Unknown_share
  | Mean_confidence
  | Mean_margin
  | Timeouts
  | Drift_rate
  | Journal_lag
  | Overload_share

let signal_name = function
  | Unknown_share -> "unknown_share"
  | Mean_confidence -> "mean_confidence"
  | Mean_margin -> "mean_margin"
  | Timeouts -> "timeouts"
  | Drift_rate -> "drift_rate"
  | Journal_lag -> "journal_lag"
  | Overload_share -> "overload_share"

let signal_of_name = function
  | "unknown_share" -> Some Unknown_share
  | "mean_confidence" -> Some Mean_confidence
  | "mean_margin" -> Some Mean_margin
  | "timeouts" -> Some Timeouts
  | "drift_rate" -> Some Drift_rate
  | "journal_lag" -> Some Journal_lag
  | "overload_share" -> Some Overload_share
  | _ -> None

type bound = Ceiling | Floor

type rule = {
  name : string;
  signal : signal;
  bound : bound;
  limit : float;
  for_epochs : int;
}

let default_rules =
  [
    { name = "unknown-share"; signal = Unknown_share; bound = Ceiling; limit = 45.0;
      for_epochs = 1 };
    { name = "mean-confidence"; signal = Mean_confidence; bound = Floor; limit = 0.5;
      for_epochs = 1 };
    { name = "timeouts"; signal = Timeouts; bound = Ceiling; limit = 0.0; for_epochs = 1 };
    { name = "drift-rate"; signal = Drift_rate; bound = Ceiling; limit = 2.5;
      for_epochs = 1 };
    { name = "journal-lag"; signal = Journal_lag; bound = Ceiling; limit = 512.0;
      for_epochs = 1 };
    { name = "overload-share"; signal = Overload_share; bound = Ceiling; limit = 50.0;
      for_epochs = 1 };
  ]

(* serialization ----------------------------------------------------------- *)

let ctx = "alerts"
let shape_error what = Obs.Json.shape_error ctx ("bad " ^ what)
let get_num = Obs.Json.get_num ctx
let get_str = Obs.Json.get_str ctx
let header kind = Obs.Versioned.fields ~kind ~version:schema_version
let check kind = Obs.Versioned.check ~kind ~version:schema_version

let rule_to_json r =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str r.name);
      ("signal", Obs.Json.Str (signal_name r.signal));
      ((match r.bound with Ceiling -> "ceiling" | Floor -> "floor"), Obs.Json.Num r.limit);
      ("for_epochs", Obs.Json.Num (float_of_int r.for_epochs));
    ]

let rules_to_json rules =
  Obs.Json.Obj
    (header "nebby_alert_rules" @ [ ("rules", Obs.Json.Arr (List.map rule_to_json rules)) ])

let rule_of_json j =
  let name = get_str "name" j in
  let signal =
    match signal_of_name (get_str "signal" j) with
    | Some s -> s
    | None -> shape_error ("signal for rule " ^ name)
  in
  let bound, limit =
    match (Obs.Json.member "ceiling" j, Obs.Json.member "floor" j) with
    | Some (Obs.Json.Num l), None -> (Ceiling, l)
    | None, Some (Obs.Json.Num l) -> (Floor, l)
    | _ -> shape_error ("bound for rule " ^ name)
  in
  let for_epochs =
    match Obs.Json.member "for_epochs" j with
    | None -> 1
    | Some (Obs.Json.Num n) when n >= 1.0 -> int_of_float n
    | Some _ -> shape_error ("for_epochs for rule " ^ name)
  in
  if name = "" then shape_error "empty rule name";
  { name; signal; bound; limit; for_epochs }

let rules_of_json j =
  check "nebby_alert_rules" j;
  let rules = List.map rule_of_json (Obs.Json.get_arr ctx "rules" j) in
  let names = List.map (fun r -> r.name) rules in
  if List.length (List.sort_uniq compare names) <> List.length names then
    shape_error "duplicate rule names";
  rules

let load_rules path =
  rules_of_json (Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all))

(* the engine -------------------------------------------------------------- *)

type cell = { c_rule : rule; mutable streak : int; mutable is_firing : bool }
type t = cell list (* sorted by rule name *)

let create rules =
  List.map
    (fun c_rule -> { c_rule; streak = 0; is_firing = false })
    (List.sort (fun a b -> compare a.name b.name) rules)

type action = Fire | Resolve

type transition = {
  epoch : int;
  rule : string;
  action : action;
  value : float;
  limit : float;
}

let transition_to_json tr =
  Obs.Json.Obj
    (header "nebby_alert"
    @ [
        ("epoch", Obs.Json.Num (float_of_int tr.epoch));
        ("rule", Obs.Json.Str tr.rule);
        ( "action",
          Obs.Json.Str (match tr.action with Fire -> "fire" | Resolve -> "resolve") );
        ("value", Obs.Json.Num tr.value);
        ("limit", Obs.Json.Num tr.limit);
      ])

let transition_of_json j =
  check "nebby_alert" j;
  {
    epoch = Obs.Json.get_int ctx "epoch" j;
    rule = get_str "rule" j;
    action =
      (match get_str "action" j with
      | "fire" -> Fire
      | "resolve" -> Resolve
      | _ -> shape_error "action");
    value = get_num "value" j;
    limit = get_num "limit" j;
  }

let write_log path transitions =
  Obs.Versioned.atomic_write path (fun oc ->
      List.iter
        (fun tr ->
          output_string oc (Obs.Json.to_string (transition_to_json tr));
          output_char oc '\n')
        transitions)

let read_log path =
  In_channel.with_open_bin path In_channel.input_all
  |> Obs.Versioned.lines
  |> List.map (fun l -> transition_of_json (Obs.Json.of_string l))

let signal_values ?health ?point ?(events = []) () signal =
  match signal with
  | Unknown_share -> (
    match point with Some p -> p.Obs.Drift.unknown_share | None -> 0.0)
  | Mean_confidence -> (
    match point with Some p -> p.Obs.Drift.mean_confidence | None -> 0.0)
  | Mean_margin -> (match point with Some p -> p.Obs.Drift.mean_margin | None -> 0.0)
  | Timeouts -> (
    match point with Some p -> float_of_int p.Obs.Drift.timeouts | None -> 0.0)
  | Drift_rate ->
    List.fold_left
      (fun acc e ->
        Float.max acc
          (match e with
          | Obs.Drift.Emerged { rate_per_epoch; _ }
          | Obs.Drift.Collapsed { rate_per_epoch; _ }
          | Obs.Drift.Migration { rate_per_epoch; _ } ->
            rate_per_epoch))
      0.0 events
  | Journal_lag -> (
    match health with Some h -> float_of_int h.Health.journal_lag | None -> 0.0)
  | Overload_share -> (
    match health with
    | Some h ->
      let denom = h.Health.overloads + h.Health.measured in
      if denom = 0 then 0.0
      else 100.0 *. float_of_int h.Health.overloads /. float_of_int denom
    | None -> 0.0)

let evaluate t ~epoch ~signal_value =
  List.filter_map
    (fun c ->
      let value = signal_value c.c_rule.signal in
      let breached =
        match c.c_rule.bound with
        | Ceiling -> value > c.c_rule.limit
        | Floor -> value < c.c_rule.limit
      in
      if breached then begin
        c.streak <- c.streak + 1;
        if (not c.is_firing) && c.streak >= c.c_rule.for_epochs then begin
          c.is_firing <- true;
          Some { epoch; rule = c.c_rule.name; action = Fire; value; limit = c.c_rule.limit }
        end
        else None
      end
      else begin
        c.streak <- 0;
        if c.is_firing then begin
          c.is_firing <- false;
          Some { epoch; rule = c.c_rule.name; action = Resolve; value; limit = c.c_rule.limit }
        end
        else None
      end)
    t

let firing t = List.map (fun c -> (c.c_rule.name, c.is_firing)) t

let gauges t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# HELP nebby_alert 1 while the named alert rule is firing.\n";
  Buffer.add_string buf "# TYPE nebby_alert gauge\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "nebby_alert{rule=\"%s\"} %d\n" c.c_rule.name
           (if c.is_firing then 1 else 0)))
    t;
  Buffer.contents buf
