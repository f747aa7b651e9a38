(* Epochs simulate a continuous census re-visiting the site later: a
   non-zero epoch shifts the measurement seed so the re-measurement sees
   fresh path noise, the way a real re-probe weeks later would. Epoch 0
   is byte-identical to the historical one-shot census. *)
let site_seed ?(epoch = 0) (site : Website.t) region proto =
  (site.Website.rank * 31)
  + (Region.index region * 7919)
  + (epoch * 15485863)
  + (match proto with Netsim.Packet.Tcp -> 0 | Netsim.Packet.Quic -> 104729)

let proto_tag = function Netsim.Packet.Tcp -> "tcp" | Netsim.Packet.Quic -> "quic"

(* site × proto × region × control-version: everything the classification
   is a function of. Rank disambiguates name collisions across synthetic
   populations; the fingerprint invalidates entries when the control
   measurements are retrained. *)
let cache_key ~control ~proto ~region (site : Website.t) =
  Printf.sprintf "%d:%s|%s|%s|%s" site.Website.rank site.Website.name (Region.name region)
    (proto_tag proto)
    (Nebby.Training.fingerprint control)

let site_report ?epoch ~provenance ~control ~proto ~region (site : Website.t) =
  match proto with
  | Netsim.Packet.Quic when not site.Website.quic ->
    {
      Nebby.Measurement.label = "unresponsive";
      attempts = 0;
      per_profile = [];
      failures = [];
      backoff_total = 0.0;
      provenance = None;
      flight = None;
    }
  | _ ->
    let cca_name =
      match proto with
      | Netsim.Packet.Quic -> Option.value ~default:"cubic" site.Website.quic_cca
      | Netsim.Packet.Tcp -> Website.cca_in site region
    in
    let noise = Netsim.Path.scale (Region.noise region) site.Website.noise_factor in
    let report =
      Nebby.Measurement.measure ~provenance ~subject:site.Website.name ~control ~noise
        ~proto ~page_bytes:site.Website.page_bytes
        ~seed:(site_seed ?epoch site region proto)
        ~make_cca:(Cca.Registry.create cca_name) ()
    in
    (* Appendix E: a rate-based sender that is BBR-like but neither v1 nor
       v2 is inferred to be BBRv3 *)
    if report.Nebby.Measurement.label = Nebby.Bbr_classifier.label_unknown_bbr then begin
      let label = "bbr3" in
      {
        report with
        Nebby.Measurement.label;
        provenance =
          Option.map
            (fun p -> { p with Obs.Provenance.label })
            report.Nebby.Measurement.provenance;
      }
    end
    else report

(* The label-only path skips provenance: a census that just tallies has no
   use for the verdict reports, and the skip keeps the hot path lean. *)
let measure_site ~control ~proto ~region site =
  (site_report ~provenance:false ~control ~proto ~region site).Nebby.Measurement.label

let explain_site ?epoch ~control ~proto ~region site =
  site_report ?epoch ~provenance:true ~control ~proto ~region site

let select sites websites =
  match sites with
  | None -> websites
  | Some n -> List.filteri (fun i _ -> i < n) websites

let labels ?sites ?jobs ~control ~proto ~region websites =
  let selected = Array.of_list (select sites websites) in
  Array.to_list
    (Engine.Pool.map ?jobs
       (fun site -> (site, measure_site ~control ~proto ~region site))
       selected)

let explained ?sites ?jobs ~control ~proto ~region websites =
  let selected = Array.of_list (select sites websites) in
  Array.to_list
    (Engine.Pool.map ?jobs
       (fun site -> (site, explain_site ~control ~proto ~region site))
       selected)

let provenance_reports explained =
  List.filter_map
    (fun (_, r) -> r.Nebby.Measurement.provenance)
    explained

let confidence_dists explained =
  Obs.Provenance.confidence_dists (provenance_reports explained)

let margin_dists explained =
  Obs.Provenance.margin_dists (provenance_reports explained)

(* The tally is rebuilt from the per-site labels in canonical (population)
   order, so its contents — including tie order among equal counts — are
   identical whether the labels came from 1 worker or 8. *)
let tally_of_labels labeled =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (_, label) ->
      Hashtbl.replace tally label (1 + Option.value ~default:0 (Hashtbl.find_opt tally label)))
    labeled;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let run ?sites ?jobs ~control ~proto ~region websites =
  tally_of_labels (labels ?sites ?jobs ~control ~proto ~region websites)

let shares tally =
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
  if sum = 0 then List.map (fun (k, _) -> (k, 0.0)) tally
  else List.map (fun (k, n) -> (k, float_of_int n /. float_of_int sum)) tally

let scale_to ~total tally =
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
  if sum = 0 then tally
  else
    List.map
      (fun (k, n) -> (k, int_of_float (float_of_int n *. float_of_int total /. float_of_int sum)))
      tally
