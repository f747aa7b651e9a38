type outcome = Known of string | Unknown

let rate_based_plugins = [ Bbr_classifier.plugin ]

let extension_plugins =
  [ Akamai_classifier.plugin; Copa_classifier.plugin; Vivace_classifier.plugin ]

let default_plugins (_ : Training.control) = rate_based_plugins
let extended_plugins control = default_plugins control @ extension_plugins

let combine verdicts =
  let labels = List.sort_uniq compare (List.map (fun v -> v.Plugin.label) verdicts) in
  match labels with
  | [ label ] -> Known label
  | [] -> Unknown
  | _ :: _ :: _ ->
    (* classifiers disagree: accept a decisively more confident verdict,
       otherwise leave unknown as the paper's rule dictates *)
    let sorted =
      List.sort (fun a b -> compare b.Plugin.confidence a.Plugin.confidence) verdicts
    in
    (match sorted with
    | best :: second :: _
      when best.Plugin.label <> second.Plugin.label
           && best.Plugin.confidence >= second.Plugin.confidence +. 0.3 ->
      Known best.Plugin.label
    | best :: _ when List.for_all (fun v -> v.Plugin.label = best.Plugin.label) sorted ->
      Known best.Plugin.label
    | _ -> Unknown)

(* Shared engine behind [classify_measurement] and [explain_measurement]:
   runs the loss classifier plus every plugin, counting votes, and
   keeps (plugin, profile) attribution for provenance. *)
let run_classifiers ~plugins ~proto ~control prepared =
  let plugins = if plugins = [] then extended_plugins control else plugins in
  let loss = Loss_classifier.classify_joint ~proto control prepared in
  if loss <> None then Obs.Metrics.bump "classifier.votes";
  let named =
    List.concat_map
      (fun (profile, p) ->
        List.filter_map
          (fun plugin ->
            match plugin.Plugin.classify p with
            | Some v ->
              Obs.Metrics.bump "classifier.votes";
              Some (plugin.Plugin.name, profile, v)
            | None -> None)
          plugins)
      prepared
  in
  (plugins, loss, named)

let outcome_label = function Known l -> l | Unknown -> "unknown"

let classify_measurement ?(plugins = []) ?(proto = Netsim.Packet.Tcp) ~control
    (prepared : (string * Pipeline.t) list) =
  Obs.Span.with_ ~name:"classify" @@ fun () ->
  let _, loss, named = run_classifiers ~plugins ~proto ~control prepared in
  let verdicts = Option.to_list loss @ List.map (fun (_, _, v) -> v) named in
  (combine verdicts, verdicts)

type explanation = {
  candidates : Obs.Provenance.candidate list;
  margin : float;
  confidence : float;
  signals : (string * (string * float) list) list;
}

let explain_measurement ?(plugins = []) ?(proto = Netsim.Packet.Tcp) ~control
    (prepared : (string * Pipeline.t) list) =
  Obs.Span.with_ ~name:"classify" @@ fun () ->
  let plugins_used, loss, named =
    run_classifiers ~plugins ~proto ~control prepared
  in
  let verdicts = Option.to_list loss @ List.map (fun (_, _, v) -> v) named in
  let outcome = combine verdicts in
  let label = outcome_label outcome in
  let scores = Loss_classifier.joint_scores ~proto control prepared in
  let loss_candidates =
    List.map
      (fun (l, ll) ->
        {
          Obs.Provenance.source = "loss_gnb";
          label = l;
          score = ll;
          confidence =
            (match loss with
            | Some v when v.Plugin.label = l -> v.Plugin.confidence
            | _ -> 0.0);
        })
      scores
  in
  let plugin_candidates =
    List.map
      (fun (name, profile, (v : Plugin.verdict)) ->
        {
          Obs.Provenance.source = name ^ ":" ^ profile;
          label = v.Plugin.label;
          score = v.Plugin.confidence;
          confidence = v.Plugin.confidence;
        })
      named
  in
  let sorted_confidences =
    List.sort
      (fun a b -> compare b.Plugin.confidence a.Plugin.confidence)
      verdicts
  in
  (* Winning margin in the units of the deciding source: when the final
     label tops the GNB score list, the log-likelihood gap to the
     runner-up; otherwise the confidence gap between verdicts. *)
  let margin =
    match scores with
    | (l1, a) :: (_, b) :: _ when l1 = label -> a -. b
    | _ -> (
      match sorted_confidences with
      | a :: b :: _ -> a.Plugin.confidence -. b.Plugin.confidence
      | [ a ] -> a.Plugin.confidence
      | [] -> 0.0)
  in
  let confidence =
    List.fold_left
      (fun acc (v : Plugin.verdict) ->
        if v.Plugin.label = label then Float.max acc v.Plugin.confidence
        else acc)
      0.0 verdicts
  in
  let signals =
    List.concat_map
      (fun (profile, p) ->
        List.filter_map
          (fun plugin ->
            match plugin.Plugin.explain p with
            | [] -> None
            | fields -> Some (plugin.Plugin.name ^ ":" ^ profile, fields))
          plugins_used)
      prepared
  in
  let explanation =
    { candidates = loss_candidates @ plugin_candidates; margin; confidence; signals }
  in
  (outcome, verdicts, explanation)
