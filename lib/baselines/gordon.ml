type outcome = Identified of string | Unknown | Short_flow | Unresponsive

(* Gordon's metric: the cwnd counted once per RTT (upper envelope of the
   unacknowledged packets between its forced drops). *)
let cwnd_style ~rtt ({ times; values } : Nebby.Bif.series) =
  let out_times = ref [] and out_values = ref [] in
  let emit t v =
    out_times := t :: !out_times;
    out_values := v :: !out_values
  in
  if Array.length times > 0 then begin
    let current_t = ref times.(0) and current_max = ref values.(0) in
    for k = 1 to Array.length times - 1 do
      let t = times.(k) and v = values.(k) in
      if t -. !current_t >= rtt then begin
        emit !current_t (Float.max !current_max v);
        current_t := t;
        current_max := v
      end
      else current_max := Float.max !current_max v
    done;
    if !current_max > 0.0 then emit !current_t !current_max
  end;
  {
    Nebby.Bif.times = Array.of_list (List.rev !out_times);
    values = Array.of_list (List.rev !out_values);
  }

(* Gordon ships its own control data, gathered with its own coarse metric. *)
let coarse_control =
  lazy (Nebby.Training.train ~runs_per_cca:10 ~quic_runs_per_cca:2 ~transform:cwnd_style ())

let outcome_label = function
  | Identified name -> name
  | Unknown -> "unknown"
  | Short_flow -> "short_flow"
  | Unresponsive -> "unresponsive"

(* Gordon's grouping: it cannot distinguish within these buckets. *)
let group_of = function
  | "cubic" | "bic" -> Some "cubic"
  | "bbr" | "bbr2" -> Some "bbr"
  | "newreno" | "hstcp" -> Some "reno_hstcp"
  | "illinois" -> Some "ctcp_illinois"
  | _ -> None

(* Classify from a cwnd-style trace subsampled at one point per RTT, the
   granularity Gordon gets from counting unacked packets between forced
   drops. We reuse Nebby's pipeline on the coarse series and then coarsen
   the label to Gordon's buckets. *)
let classify_coarse ~control:_ ~profile (result : Nebby.Testbed.simulation) =
  let control = Lazy.force coarse_control in
  let rtt = Nebby.Profile.rtt profile in
  let coarse = cwnd_style ~rtt (Nebby.Bif.estimate result.Nebby.Testbed.trace) in
  let prepared = Nebby.Pipeline.prepare ~rtt coarse in
  let keyed = [ (profile.Nebby.Profile.name, prepared) ] in
  match fst (Nebby.Classifier.classify_measurement ~control keyed) with
  | Nebby.Classifier.Known label -> (
    match group_of label with Some g -> Identified g | None -> Unknown)
  | Nebby.Classifier.Unknown -> Unknown

let probe ?(seed = 11) ~control ~region (site : Internet.Website.t) =
  let rng =
    Netsim.Rng.create (seed + site.Internet.Website.rank + (Internet.Region.index region * 131))
  in
  (* Gordon opens hundreds of connections and drops packets on each; a
     defended site notices long before the survey completes *)
  if Netsim.Rng.bool rng site.Internet.Website.ddos_sensitivity then
    if Netsim.Rng.bool rng 0.77 then Short_flow else Unresponsive
  else begin
    let profile = Nebby.Profile.delay_50ms in
    let noise =
      Netsim.Path.scale (Internet.Region.noise region) site.Internet.Website.noise_factor
    in
    let cca = Internet.Website.cca_in site region in
    let result =
      Nebby.Testbed.simulate ~seed:(seed + (site.Internet.Website.rank * 7)) ~noise ~profile
        ~page_bytes:site.Internet.Website.page_bytes
        ~make_cca:(Cca.Registry.create cca) ()
    in
    classify_coarse ~control ~profile result
  end

let survey ?sites ?(seed = 11) ~control ~region websites =
  let selected =
    match sites with None -> websites | Some n -> List.filteri (fun i _ -> i < n) websites
  in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun site ->
      let label = outcome_label (probe ~seed ~control ~region site) in
      Hashtbl.replace tally label (1 + Option.value ~default:0 (Hashtbl.find_opt tally label)))
    selected;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
