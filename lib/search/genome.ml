type path = {
  delay_factor : float;
  rate_factor : float;
  buffer_factor : float;
  jitter_std : float;
  cross_loss : float;
}

(* Mild-noise jitter/loss (Netsim.Path.mild): the baseline genome must
   reproduce an unperturbed Measurement.measure run exactly. *)
let baseline_path =
  {
    delay_factor = 1.0;
    rate_factor = 1.0;
    buffer_factor = 1.0;
    jitter_std = Netsim.Path.mild.Netsim.Path.jitter_std;
    cross_loss = Netsim.Path.mild.Netsim.Path.drop_prob;
  }

type t = { cca : string; faults : Faults.plan; path : path }

(* fault times must stay within the simulation horizon: the testbed's
   default 60 s time limit *)
let horizon = 60.0

(* Bounds every mutation clamps into; validate enforces the same box so a
   genome is valid iff mutation could have produced it. *)
let factor_lo = 0.25
let factor_hi = 4.0
let jitter_hi = 0.02
let cross_loss_hi = 0.08
let prob_lo = 0.01
let prob_hi = 0.9
let duration_lo = 0.1
let hold_lo = 0.02
let hold_hi = 0.5
let max_extra_hi = 0.1
let std_hi = 0.01

let clamp lo hi x = Float.min hi (Float.max lo x)

let baseline ~cca ~seed = { cca; faults = { Faults.seed; specs = [] }; path = baseline_path }

(* Clamp a spec into the valid box: times into [0, horizon] with the
   window closed before the horizon, probabilities and magnitudes into
   their mutation ranges. *)
let clamp_spec spec =
  let at_of at = clamp 0.0 (horizon -. duration_lo) at in
  let window at duration =
    let at = at_of at in
    (at, clamp duration_lo (horizon -. at) duration)
  in
  let prob p = clamp prob_lo prob_hi p in
  match spec with
  | Faults.Link_flap { at; duration } ->
    let at, duration = window at duration in
    Faults.Link_flap { at; duration }
  | Faults.Rate_change { at; factor } ->
    Faults.Rate_change { at = at_of at; factor = clamp 0.1 factor_hi factor }
  | Faults.Burst_loss { at; duration; dir; prob = p } ->
    let at, duration = window at duration in
    Faults.Burst_loss { at; duration; dir; prob = prob p }
  | Faults.Reorder { at; duration; dir; prob = p; max_extra } ->
    let at, duration = window at duration in
    Faults.Reorder
      { at; duration; dir; prob = prob p; max_extra = clamp 0.001 max_extra_hi max_extra }
  | Faults.Duplicate { at; duration; dir; prob = p } ->
    let at, duration = window at duration in
    Faults.Duplicate { at; duration; dir; prob = prob p }
  | Faults.Ack_storm { at; duration; hold } ->
    let at, duration = window at duration in
    Faults.Ack_storm { at; duration; hold = clamp hold_lo hold_hi hold }
  | Faults.Capture_loss { at; duration; prob = p } ->
    let at, duration = window at duration in
    Faults.Capture_loss { at; duration; prob = prob p }
  | Faults.Capture_jitter { std } -> Faults.Capture_jitter { std = clamp 0.0001 std_hi std }
  | Faults.Truncate_capture { at } ->
    (* truncating before the flow ramps up leaves nothing to classify *)
    Faults.Truncate_capture { at = clamp 2.0 horizon at }
  | Faults.Server_stall { at; duration } ->
    let at, duration = window at duration in
    Faults.Server_stall { at; duration }
  | Faults.Flow_reset { at } -> Faults.Flow_reset { at = clamp 2.0 horizon at }

let of_plan ~cca (plan : Faults.plan) =
  {
    cca;
    faults = { Faults.seed = max 0 plan.Faults.seed; specs = List.map clamp_spec plan.Faults.specs };
    path = baseline_path;
  }

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () = Faults.validate ~horizon t.faults in
  let in_box name lo hi x =
    if Float.is_finite x && x >= lo && x <= hi then Ok ()
    else Error (Printf.sprintf "path.%s = %g is outside [%g, %g]" name x lo hi)
  in
  let* () = in_box "delay_factor" factor_lo factor_hi t.path.delay_factor in
  let* () = in_box "rate_factor" factor_lo factor_hi t.path.rate_factor in
  let* () = in_box "buffer_factor" factor_lo factor_hi t.path.buffer_factor in
  let* () = in_box "jitter_std" 0.0 jitter_hi t.path.jitter_std in
  in_box "cross_loss" 0.0 cross_loss_hi t.path.cross_loss

let equal a b = a.cca = b.cca && a.faults = b.faults && a.path = b.path

(* ---- serialization ---- *)

let path_to_json p =
  Obs.Json.Obj
    [
      ("delay_factor", Obs.Json.Num p.delay_factor);
      ("rate_factor", Obs.Json.Num p.rate_factor);
      ("buffer_factor", Obs.Json.Num p.buffer_factor);
      ("jitter_std", Obs.Json.Num p.jitter_std);
      ("cross_loss", Obs.Json.Num p.cross_loss);
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("cca", Obs.Json.Str t.cca);
      ("faults", Faults.plan_to_json t.faults);
      ("path", path_to_json t.path);
    ]

let ( let* ) r f = Result.bind r f

let jfield name j =
  match Obs.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let jfloat name j =
  let* v = jfield name j in
  match Obs.Json.to_float v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let path_of_json j =
  let* delay_factor = jfloat "delay_factor" j in
  let* rate_factor = jfloat "rate_factor" j in
  let* buffer_factor = jfloat "buffer_factor" j in
  let* jitter_std = jfloat "jitter_std" j in
  let* cross_loss = jfloat "cross_loss" j in
  Ok { delay_factor; rate_factor; buffer_factor; jitter_std; cross_loss }

let of_json j =
  let* cca =
    let* v = jfield "cca" j in
    match Obs.Json.to_str v with
    | Some s -> Ok s
    | None -> Error "field \"cca\" is not a string"
  in
  let* faults_json = jfield "faults" j in
  let* faults = Faults.plan_of_json faults_json in
  let* path_json = jfield "path" j in
  let* path = path_of_json path_json in
  Ok { cca; faults; path }

let to_string t = Obs.Json.to_string (to_json t)

(* ---- mutation ---- *)

let dirs = [| Netsim.Packet.To_client; Netsim.Packet.To_server |]

(* A fresh random spec, drawn family-first so every fault family stays
   reachable regardless of what the corpus currently holds. *)
let random_spec rng =
  let at () = Netsim.Rng.uniform rng 0.0 (horizon /. 2.0) in
  let duration () = Netsim.Rng.uniform rng duration_lo 4.0 in
  let prob () = Netsim.Rng.uniform rng prob_lo 0.5 in
  let dir () = dirs.(Netsim.Rng.int rng 2) in
  let spec =
    match Netsim.Rng.int rng 11 with
    | 0 -> Faults.Link_flap { at = at (); duration = duration () }
    | 1 -> Faults.Rate_change { at = at (); factor = Netsim.Rng.uniform rng 0.1 factor_hi }
    | 2 -> Faults.Burst_loss { at = at (); duration = duration (); dir = dir (); prob = prob () }
    | 3 ->
      Faults.Reorder
        {
          at = at ();
          duration = duration ();
          dir = dir ();
          prob = prob ();
          max_extra = Netsim.Rng.uniform rng 0.001 max_extra_hi;
        }
    | 4 -> Faults.Duplicate { at = at (); duration = duration (); dir = dir (); prob = prob () }
    | 5 ->
      Faults.Ack_storm
        { at = at (); duration = duration (); hold = Netsim.Rng.uniform rng hold_lo hold_hi }
    | 6 -> Faults.Capture_loss { at = at (); duration = duration (); prob = prob () }
    | 7 -> Faults.Capture_jitter { std = Netsim.Rng.uniform rng 0.0001 std_hi }
    | 8 -> Faults.Truncate_capture { at = Netsim.Rng.uniform rng 2.0 horizon }
    | 9 -> Faults.Server_stall { at = at (); duration = duration () }
    | _ -> Faults.Flow_reset { at = Netsim.Rng.uniform rng 2.0 horizon }
  in
  clamp_spec spec

(* Scale one numeric knob of a spec by a factor in [0.5, 2), clamped back
   into the valid box. *)
let tweak_spec rng spec =
  let k = Netsim.Rng.uniform rng 0.5 2.0 in
  let spec =
    match spec with
    | Faults.Link_flap { at; duration } -> Faults.Link_flap { at = at *. k; duration }
    | Faults.Rate_change { at; factor } -> Faults.Rate_change { at; factor = factor *. k }
    | Faults.Burst_loss { at; duration; dir; prob } ->
      Faults.Burst_loss { at; duration; dir; prob = prob *. k }
    | Faults.Reorder { at; duration; dir; prob; max_extra } ->
      Faults.Reorder { at; duration; dir; prob; max_extra = max_extra *. k }
    | Faults.Duplicate { at; duration; dir; prob } ->
      Faults.Duplicate { at; duration = duration *. k; dir; prob }
    | Faults.Ack_storm { at; duration; hold } ->
      Faults.Ack_storm { at; duration; hold = hold *. k }
    | Faults.Capture_loss { at; duration; prob } ->
      Faults.Capture_loss { at; duration; prob = prob *. k }
    | Faults.Capture_jitter { std } -> Faults.Capture_jitter { std = std *. k }
    | Faults.Truncate_capture { at } -> Faults.Truncate_capture { at = at *. k }
    | Faults.Server_stall { at; duration } ->
      Faults.Server_stall { at; duration = duration *. k }
    | Faults.Flow_reset { at } -> Faults.Flow_reset { at = at *. k }
  in
  clamp_spec spec

let mutate_path rng p =
  let k = Netsim.Rng.uniform rng 0.5 2.0 in
  match Netsim.Rng.int rng 5 with
  | 0 -> { p with delay_factor = clamp factor_lo factor_hi (p.delay_factor *. k) }
  | 1 -> { p with rate_factor = clamp factor_lo factor_hi (p.rate_factor *. k) }
  | 2 -> { p with buffer_factor = clamp factor_lo factor_hi (p.buffer_factor *. k) }
  | 3 -> { p with jitter_std = clamp 0.0 jitter_hi (p.jitter_std *. (k *. 2.0)) }
  | _ -> { p with cross_loss = clamp 0.0 cross_loss_hi ((p.cross_loss +. 0.001) *. (k *. 2.0)) }

let max_specs = 8

let mutate ~rng ?(ccas = []) t =
  let retargetable = List.length ccas > 1 in
  let n_specs = List.length t.faults.Faults.specs in
  let op = Netsim.Rng.int rng (if retargetable then 10 else 9) in
  match op with
  | 0 | 1 ->
    (* add a fresh spec (bounded; falls back to a tweak at the cap) *)
    if n_specs >= max_specs then
      let i = Netsim.Rng.int rng n_specs in
      {
        t with
        faults =
          {
            t.faults with
            Faults.specs =
              List.mapi (fun j s -> if j = i then tweak_spec rng s else s) t.faults.Faults.specs;
          };
      }
    else
      { t with faults = { t.faults with Faults.specs = t.faults.Faults.specs @ [ random_spec rng ] } }
  | 2 when n_specs > 0 ->
    let i = Netsim.Rng.int rng n_specs in
    {
      t with
      faults =
        { t.faults with Faults.specs = List.filteri (fun j _ -> j <> i) t.faults.Faults.specs };
    }
  | 3 | 4 when n_specs > 0 ->
    let i = Netsim.Rng.int rng n_specs in
    {
      t with
      faults =
        {
          t.faults with
          Faults.specs =
            List.mapi (fun j s -> if j = i then tweak_spec rng s else s) t.faults.Faults.specs;
        };
    }
  | 5 -> { t with faults = { t.faults with Faults.seed = Netsim.Rng.int rng 1_000_000 } }
  | 9 ->
    let others = List.filter (fun c -> c <> t.cca) ccas in
    { t with cca = List.nth others (Netsim.Rng.int rng (List.length others)) }
  | _ -> { t with path = mutate_path rng t.path }
