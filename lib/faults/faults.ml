type spec =
  | Link_flap of { at : float; duration : float }
  | Rate_change of { at : float; factor : float }
  | Burst_loss of { at : float; duration : float; dir : Netsim.Packet.dir; prob : float }
  | Reorder of {
      at : float;
      duration : float;
      dir : Netsim.Packet.dir;
      prob : float;
      max_extra : float;
    }
  | Duplicate of { at : float; duration : float; dir : Netsim.Packet.dir; prob : float }
  | Ack_storm of { at : float; duration : float; hold : float }
  | Capture_loss of { at : float; duration : float; prob : float }
  | Capture_jitter of { std : float }
  | Truncate_capture of { at : float }
  | Server_stall of { at : float; duration : float }
  | Flow_reset of { at : float }

type plan = { seed : int; specs : spec list }

let empty = { seed = 0; specs = [] }

let spec_family = function
  | Link_flap _ -> "link_flap"
  | Rate_change _ -> "rate_change"
  | Burst_loss _ -> "burst_loss"
  | Reorder _ -> "reorder"
  | Duplicate _ -> "duplicate"
  | Ack_storm _ -> "ack_storm"
  | Capture_loss _ -> "capture_loss"
  | Capture_jitter _ -> "capture_jitter"
  | Truncate_capture _ -> "truncate_capture"
  | Server_stall _ -> "server_stall"
  | Flow_reset _ -> "flow_reset"

let families =
  [
    "link_flap"; "rate_change"; "burst_loss"; "reorder"; "duplicate"; "ack_storm";
    "capture_loss"; "capture_jitter"; "truncate_capture"; "server_stall"; "flow_reset";
  ]

(* ---- validation ---- *)

let validate ?(horizon = 60.0) plan =
  let ( let* ) r f = Result.bind r f in
  let err i spec fmt =
    Printf.ksprintf (fun msg -> Error (Printf.sprintf "%s#%d: %s" (spec_family spec) i msg)) fmt
  in
  let check_time i spec name t =
    if not (Float.is_finite t) then err i spec "%s is not finite" name
    else if t < 0.0 then err i spec "%s is negative (%g)" name t
    else if t > horizon then err i spec "%s (%g) exceeds the %g s horizon" name t horizon
    else Ok ()
  in
  let check_window i spec at duration =
    let* () = check_time i spec "at" at in
    if not (Float.is_finite duration) then err i spec "duration is not finite"
    else if duration <= 0.0 then err i spec "duration is not positive (%g)" duration
    else if at +. duration > horizon then
      err i spec "window ends at %g, past the %g s horizon" (at +. duration) horizon
    else Ok ()
  in
  let check_prob i spec p =
    if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
      err i spec "prob %g is outside [0, 1]" p
    else Ok ()
  in
  let check_mag i spec name x =
    if not (Float.is_finite x) then err i spec "%s is not finite" name
    else if x < 0.0 then err i spec "%s is negative (%g)" name x
    else Ok ()
  in
  let check_spec i spec =
    match spec with
    | Link_flap { at; duration } | Server_stall { at; duration } ->
      check_window i spec at duration
    | Rate_change { at; factor } ->
      let* () = check_time i spec "at" at in
      if not (Float.is_finite factor) || factor <= 0.0 then
        err i spec "factor is not positive (%g)" factor
      else Ok ()
    | Burst_loss { at; duration; prob; _ } | Capture_loss { at; duration; prob } ->
      let* () = check_window i spec at duration in
      check_prob i spec prob
    | Reorder { at; duration; prob; max_extra; _ } ->
      let* () = check_window i spec at duration in
      let* () = check_prob i spec prob in
      check_mag i spec "max_extra" max_extra
    | Duplicate { at; duration; prob; _ } ->
      let* () = check_window i spec at duration in
      check_prob i spec prob
    | Ack_storm { at; duration; hold } ->
      let* () = check_window i spec at duration in
      if not (Float.is_finite hold) || hold <= 0.0 then
        err i spec "hold is not positive (%g)" hold
      else Ok ()
    | Capture_jitter { std } -> check_mag i spec "std" std
    | Truncate_capture { at } -> check_time i spec "at" at
    | Flow_reset { at } -> check_time i spec "at" at
  in
  if plan.seed < 0 then Error (Printf.sprintf "plan seed is negative (%d)" plan.seed)
  else
    let rec go i = function
      | [] -> Ok ()
      | spec :: rest ->
        let* () = check_spec i spec in
        go (i + 1) rest
    in
    go 0 plan.specs

(* ---- serialization ---- *)

let dir_label = function
  | Netsim.Packet.To_client -> "to_client"
  | Netsim.Packet.To_server -> "to_server"

let dir_of_label = function
  | "to_client" -> Ok Netsim.Packet.To_client
  | "to_server" -> Ok Netsim.Packet.To_server
  | other -> Error (Printf.sprintf "bad direction %S" other)

let spec_to_json spec =
  let num x = Obs.Json.Num x in
  let fields =
    match spec with
    | Link_flap { at; duration } -> [ ("at", num at); ("duration", num duration) ]
    | Rate_change { at; factor } -> [ ("at", num at); ("factor", num factor) ]
    | Burst_loss { at; duration; dir; prob } ->
      [ ("at", num at); ("duration", num duration); ("dir", Obs.Json.Str (dir_label dir));
        ("prob", num prob) ]
    | Reorder { at; duration; dir; prob; max_extra } ->
      [ ("at", num at); ("duration", num duration); ("dir", Obs.Json.Str (dir_label dir));
        ("prob", num prob); ("max_extra", num max_extra) ]
    | Duplicate { at; duration; dir; prob } ->
      [ ("at", num at); ("duration", num duration); ("dir", Obs.Json.Str (dir_label dir));
        ("prob", num prob) ]
    | Ack_storm { at; duration; hold } ->
      [ ("at", num at); ("duration", num duration); ("hold", num hold) ]
    | Capture_loss { at; duration; prob } ->
      [ ("at", num at); ("duration", num duration); ("prob", num prob) ]
    | Capture_jitter { std } -> [ ("std", num std) ]
    | Truncate_capture { at } -> [ ("at", num at) ]
    | Server_stall { at; duration } -> [ ("at", num at); ("duration", num duration) ]
    | Flow_reset { at } -> [ ("at", num at) ]
  in
  Obs.Json.Obj (("fault", Obs.Json.Str (spec_family spec)) :: fields)

let plan_to_json plan =
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Num (float_of_int plan.seed));
      ("faults", Obs.Json.Arr (List.map spec_to_json plan.specs));
    ]

let ( let* ) r f = Result.bind r f

let field name j =
  match Obs.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let float_field name j =
  let* v = field name j in
  match Obs.Json.to_float v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let str_field name j =
  let* v = field name j in
  match Obs.Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let dir_field j =
  let* s = str_field "dir" j in
  dir_of_label s

let spec_of_json j =
  let* family = str_field "fault" j in
  match family with
  | "link_flap" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    Ok (Link_flap { at; duration })
  | "rate_change" ->
    let* at = float_field "at" j in
    let* factor = float_field "factor" j in
    Ok (Rate_change { at; factor })
  | "burst_loss" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    let* dir = dir_field j in
    let* prob = float_field "prob" j in
    Ok (Burst_loss { at; duration; dir; prob })
  | "reorder" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    let* dir = dir_field j in
    let* prob = float_field "prob" j in
    let* max_extra = float_field "max_extra" j in
    Ok (Reorder { at; duration; dir; prob; max_extra })
  | "duplicate" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    let* dir = dir_field j in
    let* prob = float_field "prob" j in
    Ok (Duplicate { at; duration; dir; prob })
  | "ack_storm" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    let* hold = float_field "hold" j in
    Ok (Ack_storm { at; duration; hold })
  | "capture_loss" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    let* prob = float_field "prob" j in
    Ok (Capture_loss { at; duration; prob })
  | "capture_jitter" ->
    let* std = float_field "std" j in
    Ok (Capture_jitter { std })
  | "truncate_capture" ->
    let* at = float_field "at" j in
    Ok (Truncate_capture { at })
  | "server_stall" ->
    let* at = float_field "at" j in
    let* duration = float_field "duration" j in
    Ok (Server_stall { at; duration })
  | "flow_reset" ->
    let* at = float_field "at" j in
    Ok (Flow_reset { at })
  | other -> Error (Printf.sprintf "unknown fault family %S" other)

let plan_of_json j =
  let* seed = float_field "seed" j in
  let* specs = field "faults" j in
  match Obs.Json.to_list specs with
  | None -> Error "field \"faults\" is not an array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok { seed = int_of_float seed; specs = List.rev acc }
      | item :: rest ->
        let* spec = spec_of_json item in
        go (spec :: acc) rest
    in
    go [] items

let to_string plan = Obs.Json.to_string (plan_to_json plan)

let of_string s =
  match Obs.Json.of_string s with
  | j -> plan_of_json j
  | exception Obs.Json.Parse_error msg -> Error ("parse error: " ^ msg)

(* ---- realization ---- *)

type rule = {
  label : string;
  from_t : float;
  until_t : float;
  decide : now:float -> Netsim.Packet.t -> Netsim.Path.fault_decision;
}

type capture_loss_rule = { cl_from : float; cl_until : float; cl_prob : float; cl_rng : Netsim.Rng.t }

type injector = {
  sim : Netsim.Sim.t;
  plan : plan;
  down_rules : rule list;  (* data: server -> capture point *)
  up_rules : rule list;  (* acks: capture point -> server *)
  capture_loss : capture_loss_rule list;
  capture_jitter : (float * Netsim.Rng.t) list;
  truncate_at : float;
  mutable truncated : bool;
  mutable armed : bool;
  mutable injected : int;
}

let injected t = t.injected

let fire t ~time ~fault ~detail =
  t.injected <- t.injected + 1;
  Obs.Flight.fault ~time ~family:fault ~detail

(* The dup copy trails the original by up to half a typical RTT. *)
let dup_copy_max_extra = 0.020

let injector ~sim plan =
  let root = Netsim.Rng.create plan.seed in
  let substream i spec = Netsim.Rng.named root (Printf.sprintf "%s#%d" (spec_family spec) i) in
  let down_rules = ref [] and up_rules = ref [] in
  let capture_loss = ref [] and capture_jitter = ref [] in
  let truncate_at = ref infinity in
  let add_rule dir rule =
    match dir with
    | Netsim.Packet.To_client -> down_rules := rule :: !down_rules
    | Netsim.Packet.To_server -> up_rules := rule :: !up_rules
  in
  List.iteri
    (fun i spec ->
      match spec with
      | Burst_loss { at; duration; dir; prob } ->
        let rng = substream i spec in
        add_rule dir
          {
            label = "burst_loss";
            from_t = at;
            until_t = at +. duration;
            decide =
              (fun ~now:_ _pkt ->
                if Netsim.Rng.bool rng prob then Netsim.Path.Fault_drop else Netsim.Path.Pass);
          }
      | Reorder { at; duration; dir; prob; max_extra } ->
        let rng = substream i spec in
        add_rule dir
          {
            label = "reorder";
            from_t = at;
            until_t = at +. duration;
            decide =
              (fun ~now:_ _pkt ->
                if Netsim.Rng.bool rng prob then
                  Netsim.Path.Fault_delay (Netsim.Rng.uniform rng 0.0 max_extra)
                else Netsim.Path.Pass);
          }
      | Duplicate { at; duration; dir; prob } ->
        let rng = substream i spec in
        add_rule dir
          {
            label = "duplicate";
            from_t = at;
            until_t = at +. duration;
            decide =
              (fun ~now:_ _pkt ->
                if Netsim.Rng.bool rng prob then
                  Netsim.Path.Fault_duplicate (Netsim.Rng.uniform rng 0.0 dup_copy_max_extra)
                else Netsim.Path.Pass);
          }
      | Ack_storm { at; duration; hold } ->
        add_rule Netsim.Packet.To_server
          {
            label = "ack_storm";
            from_t = at;
            until_t = at +. duration;
            decide =
              (fun ~now pkt ->
                if not pkt.Netsim.Packet.is_ack then Netsim.Path.Pass
                else begin
                  (* hold every ack until the next release tick *)
                  let k = Float.max 1.0 (Float.ceil ((now -. at) /. hold)) in
                  let release = at +. (k *. hold) in
                  Netsim.Path.Fault_delay (Float.max 0.0 (release -. now))
                end);
          }
      | Capture_loss { at; duration; prob } ->
        capture_loss :=
          { cl_from = at; cl_until = at +. duration; cl_prob = prob; cl_rng = substream i spec }
          :: !capture_loss
      | Capture_jitter { std } -> capture_jitter := (std, substream i spec) :: !capture_jitter
      | Truncate_capture { at } -> truncate_at := Float.min !truncate_at at
      | Link_flap _ | Rate_change _ | Server_stall _ | Flow_reset _ ->
        (* scheduled interventions, realized in [arm] *)
        ())
    plan.specs;
  {
    sim;
    plan;
    down_rules = List.rev !down_rules;
    up_rules = List.rev !up_rules;
    capture_loss = List.rev !capture_loss;
    capture_jitter = List.rev !capture_jitter;
    truncate_at = !truncate_at;
    truncated = false;
    armed = false;
    injected = 0;
  }

let hook t rules ~now pkt =
  let rec go = function
    | [] -> Netsim.Path.Pass
    | r :: rest ->
      if now >= r.from_t && now < r.until_t then begin
        match r.decide ~now pkt with
        | Netsim.Path.Pass -> go rest
        | decision ->
          fire t ~time:now ~fault:r.label
            ~detail:(Printf.sprintf "pkt=%d" pkt.Netsim.Packet.id);
          decision
      end
      else go rest
  in
  go rules

let arm t ~bottleneck ~wide_area_down ~wide_area_up ~stall ~reset =
  if t.armed then invalid_arg "Faults.arm: injector already armed";
  t.armed <- true;
  let sim = t.sim in
  List.iter
    (fun spec ->
      match spec with
      | Link_flap { at; duration } ->
        Netsim.Sim.at_clamped sim at (fun () ->
            fire t ~time:(Netsim.Sim.now sim) ~fault:"link_flap"
              ~detail:(Printf.sprintf "down for %.3fs" duration);
            Netsim.Link.set_up bottleneck false);
        Netsim.Sim.at_clamped sim (at +. duration) (fun () ->
            Netsim.Link.set_up bottleneck true)
      | Rate_change { at; factor } ->
        Netsim.Sim.at_clamped sim at (fun () ->
            let rate = Float.max 1.0 (factor *. Netsim.Link.rate bottleneck) in
            fire t ~time:(Netsim.Sim.now sim) ~fault:"rate_change"
              ~detail:(Printf.sprintf "rate -> %.0f B/s" rate);
            Netsim.Link.set_rate bottleneck rate)
      | Server_stall { at; duration } ->
        Netsim.Sim.at_clamped sim at (fun () ->
            fire t ~time:(Netsim.Sim.now sim) ~fault:"server_stall"
              ~detail:(Printf.sprintf "for %.3fs" duration);
            stall ~until:(at +. duration))
      | Flow_reset { at } ->
        Netsim.Sim.at_clamped sim at (fun () ->
            fire t ~time:(Netsim.Sim.now sim) ~fault:"flow_reset" ~detail:"";
            reset ())
      | Burst_loss _ | Reorder _ | Duplicate _ | Ack_storm _ | Capture_loss _
      | Capture_jitter _ | Truncate_capture _ ->
        ())
    t.plan.specs;
  if t.down_rules <> [] then Netsim.Path.set_fault wide_area_down (hook t t.down_rules);
  if t.up_rules <> [] then Netsim.Path.set_fault wide_area_up (hook t t.up_rules)

let observe t ~now pkt =
  if now >= t.truncate_at then begin
    if not t.truncated then begin
      t.truncated <- true;
      fire t ~time:now ~fault:"truncate_capture" ~detail:""
    end;
    None
  end
  else begin
    let lost =
      List.exists
        (fun r -> now >= r.cl_from && now < r.cl_until && Netsim.Rng.bool r.cl_rng r.cl_prob)
        t.capture_loss
    in
    if lost then begin
      fire t ~time:now ~fault:"capture_loss" ~detail:(Printf.sprintf "pkt=%d" pkt.Netsim.Packet.id);
      None
    end
    else begin
      let jittered =
        List.fold_left
          (fun acc (std, rng) -> acc +. Netsim.Rng.gaussian rng ~mean:0.0 ~std)
          now t.capture_jitter
      in
      Some (Float.max 0.0 jittered)
    end
  end
