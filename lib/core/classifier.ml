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
   runs the loss classifier jointly and every plugin on each profile,
   counting votes. Each profile keeps its votes, in plugin order, with
   the plugin's name for provenance. *)
let run_classifiers ~plugins ~proto ~control prepared =
  let plugins = if plugins = [] then extended_plugins control else plugins in
  let loss = Loss_classifier.classify_joint ~proto control prepared in
  if loss <> None then Obs.Metrics.bump "classifier.votes";
  let votes =
    List.map
      (fun (profile, p) ->
        ( profile,
          p,
          List.filter_map
            (fun plugin ->
              match plugin.Plugin.classify p with
              | Some v ->
                Obs.Metrics.bump "classifier.votes";
                Some (plugin.Plugin.name, v)
              | None -> None)
            plugins ))
      prepared
  in
  let verdicts =
    Option.to_list loss @ List.concat_map (fun (_, _, vs) -> List.map snd vs) votes
  in
  (plugins, loss, votes, verdicts)

let outcome_label = function Known l -> l | Unknown -> "unknown"

let classify_measurement ?(plugins = []) ?(proto = Netsim.Packet.Tcp) ~control
    (prepared : (string * Pipeline.t) list) =
  Obs.Span.with_ ~name:"classify" @@ fun () ->
  let _, _, _, verdicts = run_classifiers ~plugins ~proto ~control prepared in
  (combine verdicts, verdicts)

type explanation = {
  candidates : Obs.Provenance.candidate list;
  margin : float;
  confidence : float;
  signals : (string * (string * float) list) list;
  per_profile : (string * string) list;
}

let explain_measurement ?(plugins = []) ?(proto = Netsim.Packet.Tcp) ~control
    (prepared : (string * Pipeline.t) list) =
  Obs.Span.with_ ~name:"classify" @@ fun () ->
  let plugins_used, loss, votes, verdicts =
    run_classifiers ~plugins ~proto ~control prepared
  in
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
    List.concat_map
      (fun (profile, _, vs) ->
        List.map
          (fun (name, (v : Plugin.verdict)) ->
            {
              Obs.Provenance.source = name ^ ":" ^ profile;
              label = v.Plugin.label;
              score = v.Plugin.confidence;
              confidence = v.Plugin.confidence;
            })
          vs)
      votes
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
  (* Each profile's own verdict: its trace's loss verdict with the
     plugin votes it already cast above, which is what
     [classify_measurement [ (profile, p) ]] computes, without running
     the plugins a second time. *)
  let per_profile =
    List.map
      (fun (profile, p, vs) ->
        let loss = Loss_classifier.classify_joint ~proto control [ (profile, p) ] in
        if loss <> None then Obs.Metrics.bump "classifier.votes";
        (profile, outcome_label (combine (Option.to_list loss @ List.map snd vs))))
      votes
  in
  let explanation =
    {
      candidates = loss_candidates @ plugin_candidates;
      margin;
      confidence;
      signals;
      per_profile;
    }
  in
  (outcome, verdicts, explanation)
