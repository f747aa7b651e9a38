let joint_margin = function Netsim.Packet.Tcp -> 2.0 | Netsim.Packet.Quic -> 0.8
let single_margin = function Netsim.Packet.Tcp -> 1.2 | Netsim.Packet.Quic -> 0.8

let predict_with_floor ~margin ~model ~thresholds vec =
  match Sigproc.Gnb.decide ~margin (Sigproc.Gnb.log_likelihoods model vec) with
  | None -> None
  | Some (label, ll) -> (
    match List.assoc_opt label thresholds with
    | Some floor when ll < floor -> None (* too unlike anything seen in training *)
    | Some _ | None -> Some label)

let segment_labels ?(proto = Netsim.Packet.Tcp) (control : Training.control) ~profile_name
    (p : Pipeline.t) =
  let bundle = Training.bundle_for control proto in
  match
    List.find_opt
      (fun pm -> pm.Training.profile_name = profile_name)
      bundle.Training.per_profile
  with
  | None -> List.map (fun _ -> None) p.segments
  | Some pm ->
    let judge seg =
      match Features.of_segment seg with
      | None -> None
      | Some f ->
        let vec = Training.apply_scaler pm.scaler (Features.vector ~rtt:p.rtt f) in
        predict_with_floor ~margin:(single_margin proto) ~model:pm.model
          ~thresholds:pm.thresholds vec
    in
    List.map judge p.segments

let classify_single ?(proto = Netsim.Packet.Tcp) (control : Training.control) ~profile_name
    (p : Pipeline.t) =
  let bundle = Training.bundle_for control proto in
  match
    List.find_opt
      (fun pm -> pm.Training.profile_name = profile_name)
      bundle.Training.per_profile
  with
  | None -> None
  | Some pm -> (
    match Features.trace_vector p with
    | None -> None
    | Some vec ->
      let vec = Training.apply_scaler pm.scaler vec in
      predict_with_floor ~margin:(single_margin proto) ~model:pm.model ~thresholds:pm.thresholds
        vec)

let classify_joint ?(proto = Netsim.Packet.Tcp) (control : Training.control)
    (prepared : (string * Pipeline.t) list) =
  let bundle = Training.bundle_for control proto in
  (* trace vectors in the profile order the model was trained with *)
  let vectors =
    List.map
      (fun (profile : Profile.t) ->
        match List.assoc_opt profile.Profile.name prepared with
        | None -> None
        | Some p -> Features.trace_vector p)
      control.Training.profiles
  in
  (* when the joint model hesitates (or a profile yielded no segments),
     agreeing single-profile verdicts still classify the measurement *)
  let agreeing_singles () =
    let labels =
      List.filter_map
        (fun (name, p) -> classify_single ~proto control ~profile_name:name p)
        prepared
    in
    (* every profile must classify, and they must all agree — one decisive
       profile alone is how flat look-alikes (Vegas vs a rate-based cruise)
       would leak through *)
    if List.length labels = List.length prepared then
      match List.sort_uniq compare labels with
      | [ label ] -> Some { Plugin.label; confidence = 0.6 }
      | [] | _ :: _ :: _ -> None
    else None
  in
  if List.for_all Option.is_some vectors && vectors <> [] then begin
    let joint_vec = Array.concat (List.map Option.get vectors) in
    let vec = Training.apply_scaler bundle.Training.joint_scaler joint_vec in
    match
      predict_with_floor ~margin:(joint_margin proto) ~model:bundle.Training.joint
        ~thresholds:bundle.Training.joint_thresholds vec
    with
    | Some label -> Some { Plugin.label; confidence = 1.0 }
    | None -> agreeing_singles ()
  end
  else agreeing_singles ()

let joint_scores ?(proto = Netsim.Packet.Tcp) (control : Training.control)
    (prepared : (string * Pipeline.t) list) =
  let bundle = Training.bundle_for control proto in
  let vectors =
    List.map
      (fun (profile : Profile.t) ->
        match List.assoc_opt profile.Profile.name prepared with
        | None -> None
        | Some p -> Features.trace_vector p)
      control.Training.profiles
  in
  if List.for_all Option.is_some vectors && vectors <> [] then begin
    let joint_vec = Array.concat (List.map Option.get vectors) in
    let vec = Training.apply_scaler bundle.Training.joint_scaler joint_vec in
    Sigproc.Gnb.log_likelihoods bundle.Training.joint vec
  end
  else
    (* No joint vector: sum the per-profile log-likelihoods of labels every
       single-profile model can score — the evidence the fallback path
       weighs, in the same (higher is better) units. *)
    let per_profile =
      List.filter_map
        (fun (name, p) ->
          match
            List.find_opt
              (fun pm -> pm.Training.profile_name = name)
              bundle.Training.per_profile
          with
          | None -> None
          | Some pm -> (
            match Features.trace_vector p with
            | None -> None
            | Some vec ->
              let vec = Training.apply_scaler pm.scaler vec in
              Some (Sigproc.Gnb.log_likelihoods pm.model vec)))
        prepared
    in
    match per_profile with
    | [] -> []
    | first :: rest ->
      List.filter_map
        (fun (label, ll) ->
          let total =
            List.fold_left
              (fun acc lls ->
                match acc with
                | None -> None
                | Some sum ->
                  Option.map (fun x -> sum +. x) (List.assoc_opt label lls))
              (Some ll) rest
          in
          Option.map (fun sum -> (label, sum)) total)
        first
      |> List.sort (fun (_, a) (_, b) -> compare b a)
